// Command promcheck validates Prometheus text exposition (version
// 0.0.4), using the same parser the obs package's golden tests run.
//
// It checks the files named as arguments, or stdin, such as a live
// /metrics scrape:
//
//	curl -s localhost:8090/metrics | go run ./internal/obs/promcheck
package main

import (
	"flag"
	"fmt"
	"os"

	"hbat/internal/obs"
)

func main() {
	flag.Parse()
	if flag.NArg() == 0 {
		check("<stdin>", os.Stdin)
		return
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail(err)
		}
		check(path, f)
		f.Close()
	}
}

func check(name string, f *os.File) {
	n, err := obs.ParseExposition(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", name, err))
	}
	fmt.Printf("%s: ok (%d samples)\n", name, n)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "promcheck:", err)
	os.Exit(1)
}
