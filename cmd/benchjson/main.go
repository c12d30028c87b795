// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON object on stdout mapping each benchmark name to its
// measurements:
//
//	go test -run=NONE -bench=. -benchmem . | benchjson > BENCH_PR2.json
//
// Output shape (keys sorted, so reruns diff cleanly):
//
//	{
//	  "BenchmarkCompile": {"iterations": 16, "ns_per_op": 70552719, "b_per_op": 26478113, "allocs_per_op": 378059},
//	  ...
//	}
//
// Lines that are not benchmark results (headers, PASS/ok trailers) are
// ignored. A benchmark that appears more than once (e.g. -count>1)
// keeps the minimum ns/op run, the conventional "best of N" summary.
//
// With -diff OLD.json, instead of emitting JSON it compares the run on
// stdin against a previously committed baseline and prints a
// per-benchmark delta table (ns/op, B/op, allocs/op, each with a
// percentage). Benchmarks present on only one side are listed as added
// or removed. `make bench-diff` wires this against the newest committed
// BENCH_*.json.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result holds one benchmark line's measurements. B/op and allocs/op are
// -1 when the run lacked -benchmem. Extra collects custom b.ReportMetric
// units (models, core-items, coldimports, ...) keyed by unit name.
type result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      int64              `json:"b_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// parseLine parses one "BenchmarkName-8  123  456 ns/op  789 B/op  12 allocs/op"
// line. The trailing -N GOMAXPROCS suffix is stripped from the name so
// results compare across machines.
func parseLine(line string) (string, result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", result{}, false
	}
	r := result{Iterations: iters, BPerOp: -1, AllocsPerOp: -1}
	// The remainder alternates value/unit pairs.
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "B/op":
			r.BPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		default:
			// A custom b.ReportMetric unit (models, core-items, coldimports, ...).
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[unit] = v
		}
	}
	if !seenNs {
		return "", result{}, false
	}
	return name, r, true
}

func main() {
	diffBase := flag.String("diff", "", "baseline BENCH_*.json to diff the run on stdin against")
	flag.Parse()

	results := make(map[string]result)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, dup := results[name]; !dup || r.NsPerOp < prev.NsPerOp {
			results[name] = r
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *diffBase != "" {
		if err := printDiff(*diffBase, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)

	// Emit by hand to keep the keys in sorted order (encoding/json sorts
	// map keys too, but building the document explicitly keeps the format
	// obvious and the indentation stable).
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintln(out, "{")
	for i, n := range names {
		blob, err := json.Marshal(results[n])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		comma := ","
		if i == len(names)-1 {
			comma = ""
		}
		fmt.Fprintf(out, "  %q: %s%s\n", n, blob, comma)
	}
	fmt.Fprintln(out, "}")
}

// printDiff renders a per-benchmark delta table of the new results
// against the baseline file. Negative percentages are improvements for
// every column (less time, fewer bytes, fewer allocations).
func printDiff(basePath string, new map[string]result) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	old := make(map[string]result)
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", basePath, err)
	}

	names := make([]string, 0, len(new)+len(old))
	for n := range new {
		names = append(names, n)
	}
	for n := range old {
		if _, ok := new[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "vs %s:\n", basePath)
	fmt.Fprintf(out, "%-55s %25s %25s %25s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, n := range names {
		nr, inNew := new[n]
		or, inOld := old[n]
		switch {
		case !inOld:
			fmt.Fprintf(out, "%-55s %25s\n", n, "(added)")
		case !inNew:
			fmt.Fprintf(out, "%-55s %25s\n", n, "(removed)")
		default:
			fmt.Fprintf(out, "%-55s %25s %25s %25s\n", n,
				deltaCol(or.NsPerOp, nr.NsPerOp),
				deltaCol(float64(or.BPerOp), float64(nr.BPerOp)),
				deltaCol(float64(or.AllocsPerOp), float64(nr.AllocsPerOp)))
			printExtraDiff(out, or.Extra, nr.Extra)
		}
	}
	return nil
}

// printExtraDiff renders one indented sub-row per custom metric unit
// present on either side (models, core-items, coldimports, ...).
func printExtraDiff(out *bufio.Writer, old, new map[string]float64) {
	units := make([]string, 0, len(old)+len(new))
	for u := range old {
		units = append(units, u)
	}
	for u := range new {
		if _, ok := old[u]; !ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	for _, u := range units {
		ov, inOld := old[u]
		nv, inNew := new[u]
		switch {
		case !inOld:
			fmt.Fprintf(out, "  %-53s %25s\n", u, fmt.Sprintf("(added) %s", humanize(nv)))
		case !inNew:
			fmt.Fprintf(out, "  %-53s %25s\n", u, "(removed)")
		default:
			fmt.Fprintf(out, "  %-53s %25s\n", u, deltaCol(ov, nv))
		}
	}
}

// deltaCol formats "old -> new (+x.x%)" for one measurement column;
// missing values (-1, from runs without -benchmem) render as "-".
func deltaCol(old, new float64) string {
	if old < 0 || new < 0 {
		return "-"
	}
	pct := ""
	if old > 0 {
		pct = fmt.Sprintf(" (%+.1f%%)", 100*(new-old)/old)
	}
	return fmt.Sprintf("%s -> %s%s", humanize(old), humanize(new), pct)
}

// humanize renders a count with k/M/G suffixes so wide columns stay
// readable; small integers print exactly.
func humanize(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.3gk", v/1e3)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
