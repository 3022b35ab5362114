// Command benchjson converts `go test -bench` text output into a JSON
// record, and diffs two such records. `make bench` pipes the repository
// benchmarks through it to write BENCH_PR*.json files, so the performance
// trajectory of the hot paths is recorded per PR in a machine-readable form;
// the CI bench job then reports regressions with compare (non-gating).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH.json
//	benchjson compare [-threshold 0.10] OLD.json NEW.json
//	benchjson speedup P1.json P2.json P4.json
//
// Non-benchmark lines (package headers, PASS/ok) are ignored; every metric
// pair a benchmark reports (ns/op, B/op, allocs/op, custom b.ReportMetric
// units) is preserved under its unit name.
//
// compare prints the per-benchmark ns/op and allocs/op deltas of the
// benchmarks present in both files and exits with status 1 when any metric
// regressed by more than the threshold (a fraction: 0.10 = +10%), so a CI
// job can surface regressions while staying non-gating via
// continue-on-error.
//
// speedup joins the records of a GOMAXPROCS sweep (scripts/bench_cores.sh)
// on the benchmark base name and prints each benchmark's scaling profile:
// ns/op per core count, speedup and per-core efficiency against the
// fewest-cores record.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name including the -P GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps a unit (e.g. "ns/op") to its value.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	// Go is the toolchain that produced the numbers.
	Go string `json:"go"`
	// MaxProcs is runtime.GOMAXPROCS at conversion time — benchmarks ran in
	// the same environment, so it records the parallelism available.
	MaxProcs int `json:"maxprocs"`
	// NProc is runtime.NumCPU, the host's logical cores: a record made at
	// maxprocs below nproc did not use the whole host.
	NProc int `json:"nproc"`
	// Benchmarks lists every parsed result in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "compare" || os.Args[1] == "speedup") {
		run := runCompare
		if os.Args[1] == "speedup" {
			run = runSpeedup
		}
		code, err := run(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(code)
	}
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and extracts the benchmark lines.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64, (len(fields)-2)/2)}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}
