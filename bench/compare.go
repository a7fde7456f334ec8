package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
)

// compare is the A/A check and the parent-versus-change gate: for
// every workload × end-to-end metric it prints both medians, the ratio
// with its base, the metric's bound and a verdict.

const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares a parent's runs a with a change's runs b under def.
//   - worse: b's median is worse than a's by more than the bound.
//   - unresolved: not worse, but either side's spread between runs is
//     wider than the bound, so "unchanged" cannot be claimed — unless
//     every run of b reads better than every run of a.
//   - ok: otherwise.
func judge(def metricDef, a, b series) string {
	if a.Median == 0 {
		return verdictUnresolved
	}
	change := (b.Median - a.Median) / a.Median
	if def.Better == "higher" {
		change = -change
	}
	if change > def.Bound {
		return verdictWorse
	}
	if max(a.Spread, b.Spread) > def.Bound && !allBetter(def, a.Values, b.Values) {
		return verdictUnresolved
	}
	return verdictOK
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(def metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (def.Better == "higher" && y <= x) || (def.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, suiteSchema)
	}
	return &s, nil
}

// compareMain implements `bench compare A.json B.json`. It returns the
// exit code: 1 when any metric is worse or a file is unreadable, 2 on
// usage.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json  (A is the base: the parent, or the first A/A set)")
		return 2
	}
	a, err := readSuite(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	b, err := readSuite(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 1
	}
	return compareSuites(a, b, w)
}

func compareSuites(a, b *suite, w io.Writer) int {
	fmt.Fprintf(w, "A: %s, %d-core, seed %d, %g s × %d runs\n", a.Machine.CPU, a.Machine.NProc, a.Seed, a.Seconds, a.Runs)
	fmt.Fprintf(w, "B: %s, %d-core, seed %d, %g s × %d runs\n", b.Machine.CPU, b.Machine.NProc, b.Seed, b.Seconds, b.Runs)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintln(w, "NOTE: the two files were measured with different seeds or run lengths; the comparison is not like for like")
	}
	byName := make(map[string]suiteWorkload, len(b.Workloads))
	for _, sw := range b.Workloads {
		byName[sw.Name] = sw
	}
	fmt.Fprintf(w, "%-11s %-16s %12s %12s  %-22s %6s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-11s missing from B\n", wa.Name)
			worse++
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := judge(d, sa, sb)
			if v == verdictWorse {
				worse++
			}
			ratio := "n/a"
			if sa.Median != 0 {
				ratio = fmt.Sprintf("%.3f of %.5g %s", sb.Median/sa.Median, sa.Median, sa.Unit)
			}
			sign := "+"
			if d.Better == "higher" {
				sign = "-"
			}
			fmt.Fprintf(w, "%-11s %-16s %12.5g %12.5g  %-22s %s%3.0f%%  %s", wa.Name, d.Name, sa.Median, sb.Median, ratio, sign, 100*d.Bound, v)
			if v == verdictUnresolved {
				fmt.Fprintf(w, " (spread A %.1f%%, B %.1f%%)", 100*sa.Spread, 100*sb.Spread)
			}
			fmt.Fprintln(w)
		}
		if wa.Failed+wb.Failed > 0 || !wa.Correct || !wb.Correct {
			fmt.Fprintf(w, "%-11s FAILED OPERATIONS: A %d of %d, B %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			worse++
		}
		if wa.SimDigest != wb.SimDigest || !maps.Equal(wa.Exact, wb.Exact) {
			fmt.Fprintf(w, "\n*** %s: SIMULATED RESULTS DIFFER between A and B ***\n", wa.Name)
			fmt.Fprintf(w, "***   sim_digest A %.16s  B %.16s\n", wa.SimDigest, wb.SimDigest)
			for k, v := range wa.Exact {
				if wb.Exact[k] != v {
					fmt.Fprintf(w, "***   %s: A %d  B %d\n", k, v, wb.Exact[k])
				}
			}
			fmt.Fprintf(w, "*** a change meant only to speed the simulator up must leave every simulated count identical\n\n")
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse\n", worse)
		return 1
	}
	return 0
}
