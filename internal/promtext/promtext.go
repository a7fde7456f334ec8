// Package promtext is the tests' reference parser for the Prometheus
// text exposition that internal/obs writes: every test that scrapes a
// live /metrics, in process or from a built binary, validates the body
// with ParseExposition. Nothing outside the tests imports it.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseExposition validates a Prometheus text exposition (version
// 0.0.4) and returns the number of sample lines. It checks line syntax,
// metric-name and label grammar, that a family's TYPE is declared at
// most once and before its samples, that all of a family's lines form
// one contiguous group, and — for histograms — that every series has a
// +Inf bucket, non-decreasing cumulative buckets, and a _count equal to
// the +Inf bucket.
func ParseExposition(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	type hist struct {
		buckets map[string]float64 // le -> cumulative count
		lastCum float64
		ordered bool // buckets appeared in non-decreasing order
		sum     *float64
		count   *float64
	}
	type family struct {
		kind   string
		closed bool
		hists  map[string]*hist // label signature (le stripped) -> series
	}
	families := make(map[string]*family)
	current := ""
	samples := 0
	lineNo := 0

	open := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{kind: "untyped", hists: make(map[string]*hist)}
			families[name] = f
		}
		return f
	}
	enter := func(name string) (*family, error) {
		f := open(name)
		if name != current {
			if f.closed {
				return nil, fmt.Errorf("family %s reappears after other families (lines must be grouped)", name)
			}
			if current != "" {
				families[current].closed = true
			}
			current = name
		}
		return f, nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) < 4 {
					return samples, fmt.Errorf("line %d: malformed TYPE line", lineNo)
				}
				name, kind := fields[2], strings.TrimSpace(fields[3])
				if !validName(name) {
					return samples, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return samples, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
				}
				f, err := enter(name)
				if err != nil {
					return samples, fmt.Errorf("line %d: %v", lineNo, err)
				}
				if f.kind != "untyped" {
					return samples, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				if len(f.hists) > 0 {
					return samples, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				f.kind = kind
			case "HELP":
				if len(fields) < 3 || !validName(fields[2]) {
					return samples, fmt.Errorf("line %d: malformed HELP line", lineNo)
				}
				if _, err := enter(fields[2]); err != nil {
					return samples, fmt.Errorf("line %d: %v", lineNo, err)
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		samples++

		// Resolve the owning family: histogram component suffixes belong
		// to their declared base family.
		base := name
		suffix := ""
		for _, s := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, s)
			if trimmed != name {
				if bf, ok := families[trimmed]; ok && bf.kind == "histogram" {
					base, suffix = trimmed, s
				}
				break
			}
		}
		f, err := enter(base)
		if err != nil {
			return samples, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if f.kind == "histogram" && suffix == "" {
			return samples, fmt.Errorf("line %d: bare sample %s in histogram family", lineNo, name)
		}

		le := ""
		var rest []string
		for _, l := range labels {
			if l.Name == "le" {
				le = l.Value
			} else {
				rest = append(rest, l.Name+"="+l.Value)
			}
		}
		sort.Strings(rest)
		sig := strings.Join(rest, ",")
		h := f.hists[sig]
		if h == nil {
			h = &hist{buckets: make(map[string]float64), ordered: true}
			f.hists[sig] = h
		}
		switch suffix {
		case "_bucket":
			if le == "" {
				return samples, fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			if _, dup := h.buckets[le]; dup {
				return samples, fmt.Errorf("line %d: duplicate bucket le=%q", lineNo, le)
			}
			if value < h.lastCum {
				h.ordered = false
			}
			h.buckets[le], h.lastCum = value, value
		case "_sum":
			if h.sum != nil {
				return samples, fmt.Errorf("line %d: duplicate _sum for %s%s", lineNo, base, sig)
			}
			h.sum = &value
		case "_count":
			if h.count != nil {
				return samples, fmt.Errorf("line %d: duplicate _count for %s%s", lineNo, base, sig)
			}
			h.count = &value
		default:
			// Plain counter/gauge/untyped series: duplicate label sets
			// within a family are invalid.
			if len(h.buckets) > 0 {
				return samples, fmt.Errorf("line %d: duplicate series %s%s", lineNo, name, sig)
			}
			h.buckets["="] = value
		}
	}
	if err := sc.Err(); err != nil {
		return samples, err
	}

	for name, f := range families {
		if f.kind != "histogram" {
			continue
		}
		for sig, h := range f.hists {
			inf, ok := h.buckets["+Inf"]
			if !ok {
				return samples, fmt.Errorf("histogram %s{%s}: missing +Inf bucket", name, sig)
			}
			if !h.ordered {
				return samples, fmt.Errorf("histogram %s{%s}: cumulative buckets decrease", name, sig)
			}
			if h.count == nil || h.sum == nil {
				return samples, fmt.Errorf("histogram %s{%s}: missing _sum or _count", name, sig)
			}
			if *h.count != inf {
				return samples, fmt.Errorf("histogram %s{%s}: _count %v != +Inf bucket %v", name, sig, *h.count, inf)
			}
		}
	}
	return samples, nil
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// parseSample parses `name{l="v",...} value [timestamp]`.
func parseSample(line string) (string, []label, float64, error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	name := line[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	var labels []label
	if i < len(line) && line[i] == '{' {
		var err error
		labels, i, err = parseLabels(line, i+1)
		if err != nil {
			return "", nil, 0, err
		}
	}
	rest := strings.Fields(line[i:])
	if len(rest) == 0 || len(rest) > 2 {
		return "", nil, 0, fmt.Errorf("expected value after %q", name)
	}
	value, err := parseFloat(rest[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q: %v", rest[0], err)
	}
	if len(rest) == 2 {
		if _, err := strconv.ParseInt(rest[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad timestamp %q", rest[1])
		}
	}
	return name, labels, value, nil
}

// parseLabels parses from just after '{' through '}' and returns the
// index after it.
func parseLabels(line string, i int) ([]label, int, error) {
	var labels []label
	for {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i < len(line) && line[i] == '}' {
			return labels, i + 1, nil
		}
		j := i
		for j < len(line) && line[j] != '=' {
			j++
		}
		if j >= len(line) {
			return nil, 0, fmt.Errorf("unterminated label in %q", line)
		}
		lname := strings.TrimSpace(line[i:j])
		if !validName(lname) {
			return nil, 0, fmt.Errorf("bad label name %q", lname)
		}
		i = j + 1
		if i >= len(line) || line[i] != '"' {
			return nil, 0, fmt.Errorf("label %s: expected quoted value", lname)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(line) {
				return nil, 0, fmt.Errorf("label %s: unterminated value", lname)
			}
			c := line[i]
			if c == '\\' {
				if i+1 >= len(line) {
					return nil, 0, fmt.Errorf("label %s: dangling escape", lname)
				}
				switch line[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, 0, fmt.Errorf("label %s: bad escape \\%c", lname, line[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, label{lname, val.String()})
		if i < len(line) && line[i] == ',' {
			i++
		}
	}
}

// parseFloat accepts every exposition value form; strconv handles
// "+Inf", "-Inf", and "NaN" natively.
func parseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// label is one name="value" pair of a sample.
type label struct {
	Name, Value string
}
