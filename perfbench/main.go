// Command perfbench is the service benchmark of ppdp. It starts the real
// HTTP service in-process — server.Open and Serve on a loopback listener,
// the path `ppdp serve` takes — drives it over HTTP with one of three seeded
// workloads, checks every response, and prints one JSON result as the last
// line of its standard output.
//
//	perfbench --workload cold-mix|hot-read|durable-append --seed N --seconds S --trace 0|1
//
// With --trace 0 the run measures the end-to-end metrics with tracing and
// profiling off. With --trace 1 it measures the per-layer metrics: /metrics
// scrapes and a CPU profile split by package around a timed phase, and an
// in-process replay of the workload's operations with spans around the
// calls into each layer. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times one run sets the workload up; setup_s is
// the median, and the last set-up service is the one measured.
const setupRepeats = 5

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of one run. Every metric is also printed as
// a human-readable line; only the ones named in BENCHMARK.json for the run's
// mode go into the result line.
type report struct {
	metrics map[string]metric
	order   []string
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) set(name string, value float64, unit, note string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.metrics[name]
		line := fmt.Sprintf("metric %-32s %14.4f %s", name, m.Value, m.Unit)
		if n := r.notes[name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// the order the result line lists them.
var endToEnd = []string{
	"setup_s", "throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
	"publish_p50_ms", "publish_p90_ms", "cpu_ms_per_op", "alloc_kb_per_op", "rss_peak_mb",
}

var perLayer = []string{
	"server.non_run_ms", "server.resp_kb_per_op", "core.prepare_us", "core.input_ms",
	"resultcache.hit_ratio", "jobs.queue_wait_ms", "jobs.run_ms",
	"algorithms.mondrian_ms", "algorithms.topdown_ms", "algorithms.datafly_ms",
	"algorithms.anatomy_ms", "algorithms.samarati_ms", "algorithms.units_per_run",
	"measure.groupby_ms", "measure.privacy_ms", "measure.ncp_ms",
	"dataset.readcsv_ms", "dataset.fingerprint_ms", "dataset.snapshot_write_ms",
	"store.put_table_ms", "store.apply_ms", "store.fsyncs_per_op", "store.write_amp", "store.open_ms",
	"reconcile.publish_per_append", "reconcile.lag_max",
	"go.gc_cpu_frac", "go.gc_cycles_per_op", "go.alloc_objects_per_op",
	"cpu.algorithms", "cpu.generalize", "cpu.dataset", "cpu.measure", "cpu.server", "cpu.store",
	"cpu.gc", "cpu.core", "cpu.jobs", "cpu.reconcile", "cpu.loadgen",
	"loadgen.late_p90_ms", "trace.overhead_ratio",
}

func main() {
	name := flag.String("workload", "", "workload: cold-mix, hot-read or durable-append")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	newBench, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-mix, hot-read or durable-append)", name)
	}
	work := os.Getenv("PERFBENCH_WORKDIR")
	if work == "" {
		work = ".bench_build"
	}
	traceFile := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	work, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := newBench(newInputs(seed), work)
	host := hostRecord(name, seed, work)
	stealBefore := readSteal()
	var out result
	if trace == 0 {
		out, err = measureEndToEnd(b, time.Duration(seconds)*time.Second)
	} else {
		out, err = measurePerLayer(b, time.Duration(seconds)*time.Second, work, traceFile)
	}
	if err != nil {
		return err
	}
	host["cpu_steal_share"] = readSteal().share(stealBefore)
	hj, _ := json.Marshal(host) // strings and numbers always encode
	fmt.Printf("host %s\n", hj)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureEndToEnd sets the workload up setupRepeats times, runs the measured
// phase on the last service with tracing off, and checks what it left
// behind.
func measureEndToEnd(b bench, d time.Duration) (result, error) {
	svc, setups, err := setUp(b)
	if err != nil {
		return result{}, err
	}
	before := sampleProcess()
	ph := b.run(svc, d)
	after := sampleProcess()
	svc, err = b.finish(svc, ph)
	if svc != nil {
		svc.close()
	}
	ph.check("post-run check", err)

	r := newReport()
	r.set("setup_s", median(setups)/ph.slowdown(), "s",
		fmt.Sprintf("median of %d set-ups; %.4f as measured", len(setups), median(setups)))
	ph.addEndToEnd(r, after.sub(before).sub(ph.probeUse))
	r.print()
	return ph.result(r, endToEnd), nil
}

// setUp opens and seeds the workload's service setupRepeats times and
// returns the last one with every set-up time.
func setUp(b bench) (*service, []float64, error) {
	var svc *service
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if svc != nil {
			svc.close()
		}
		start := time.Now()
		var err error
		if svc, err = b.setup(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return svc, setups, nil
}

// hostRecord describes where a result was measured.
func hostRecord(workload string, seed int64, work string) map[string]any {
	return map[string]any{
		"workload":    workload,
		"seed":        seed,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"fsync":       "fsync on every WAL append and table snapshot (the store's only policy)",
		"data_dir_fs": filesystemOf(work),
	}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// errCheck marks an operation whose response arrived but failed its check.
var errCheck = errors.New("output check failed")
