package main

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: github.com/ppdp/ppdp
BenchmarkMondrianK10-4   	     171	   6912345 ns/op	 2173554 B/op	   12687 allocs/op
BenchmarkE2RuntimeVsN-4  	       2	 512345678 ns/op	21.00 result-rows	 1234 B/op	   99 allocs/op
PASS
ok  	github.com/ppdp/ppdp	3.210s
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkMondrianK10-4" || b.Iterations != 171 {
		t.Errorf("benchmark[0] = %+v", b)
	}
	if b.Metrics["ns/op"] != 6912345 || b.Metrics["B/op"] != 2173554 || b.Metrics["allocs/op"] != 12687 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	// Custom b.ReportMetric units survive.
	if rep.Benchmarks[1].Metrics["result-rows"] != 21 {
		t.Errorf("custom metric lost: %v", rep.Benchmarks[1].Metrics)
	}
	if rep.Go == "" || rep.MaxProcs < 1 || rep.NProc < 1 {
		t.Errorf("environment fields missing: %+v", rep)
	}
}

func TestParseIgnoresGarbage(t *testing.T) {
	rep, err := parse(strings.NewReader("Benchmark\nBenchmarkX abc 1 ns/op\nnot a line\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("garbage parsed as benchmarks: %+v", rep.Benchmarks)
	}
}
