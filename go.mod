module hbat

go 1.24
