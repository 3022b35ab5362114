package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// This file splits the CPU profile the traced run takes by the layer of the
// code that ran. The Go toolchain's pprof prints every sample's stack
// (`go tool pprof -traces`); the benchmark reads that listing.

const modulePrefix = "github.com/ppdp/ppdp/internal/"

// layerOf maps a repository package to its layer.
var layerOf = map[string]string{
	"server": "server", "obsmetrics": "server",
	"jobs":        "jobs",
	"resultcache": "resultcache",
	"core":        "core", "policy": "core",
	"engine": "algorithms", "algorithms": "algorithms",
	"generalize": "generalize", "hierarchy": "generalize", "lattice": "generalize",
	"privacy": "measure", "metrics": "measure",
	"dataset": "dataset", "parallel": "dataset", "synth": "dataset",
	"store":     "store",
	"reconcile": "reconcile", "republish": "reconcile",
}

// frameLayer returns the layer of a function name, or "" for code outside
// the repository and the benchmark.
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "loadgen"
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	top, _, _ := strings.Cut(pkg, "/")
	if l, ok := layerOf[top]; ok {
		return l
	}
	return "other"
}

// isGC reports whether a frame is garbage-collector work: background
// marking and sweeping, mark assists and write-barrier flushes.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" ||
		fn == "runtime.markroot" || fn == "runtime.wbBufFlush" || fn == "runtime.sweepone"
}

// profileShares returns each layer's share of the profile's CPU time and
// the CPU time profiled. A sample is charged to "gc" when any frame is GC
// work; otherwise to the innermost frame that belongs to a layer, so time in
// the standard library and the runtime (maps, allocation, JSON) counts
// against the repository code that called it. Samples with no such frame
// (the HTTP plumbing, the scheduler) count as "other".
func profileShares(path string) (map[string]float64, time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	// pprof keeps fetched profiles under PPROF_TMPDIR; a local file is
	// read in place, and the variable only keeps pprof inside the run's
	// directory.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for _, s := range parseTraces(out) {
		total += s.value
		layer, gc := "", false
		for _, fn := range s.stack {
			gc = gc || isGC(fn)
			if layer == "" {
				layer = frameLayer(fn)
			}
		}
		switch {
		case gc:
			layer = "gc"
		case layer == "":
			layer = "other"
		}
		byLayer[layer] += s.value
	}
	shares := map[string]float64{}
	for l, v := range byLayer {
		shares[l] = ratio(float64(v), float64(total))
	}
	return shares, total, nil
}

// traceSample is one sample of a pprof -traces listing: its CPU time and
// its stack, innermost frame first.
type traceSample struct {
	value time.Duration
	stack []string
}

// parseTraces reads a pprof -traces listing. Each sample follows a
// separator line; its first frame line starts with the value in a
// 10-character column, and every frame line names one function after
// column 13, with " (inline)" appended to inlined frames. Label lines
// ("key:  value") carry no frame and are skipped.
func parseTraces(listing []byte) []traceSample {
	var out []traceSample
	var cur *traceSample
	sc := bufio.NewScanner(bytes.NewReader(listing))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			out = append(out, traceSample{})
			cur = &out[len(out)-1]
			continue
		}
		if cur == nil || len(line) < 14 || line[10:13] != "   " {
			continue
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				continue
			}
			cur.value = d
		}
		cur.stack = append(cur.stack, strings.TrimSuffix(line[13:], " (inline)"))
	}
	// The listing ends with a separator, which opens no sample.
	for len(out) > 0 && len(out[len(out)-1].stack) == 0 {
		out = out[:len(out)-1]
	}
	return out
}
