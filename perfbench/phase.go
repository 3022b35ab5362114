package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// bench is one workload: how its service is set up, how its measured phase
// drives it, what is checked afterwards and how its operations replay
// in-process under the tracer.
type bench interface {
	// setup opens the service and seeds and warms it, up to the first
	// timed operation.
	setup() (*service, error)
	// run drives the service for d and checks every response.
	run(svc *service, d time.Duration) *phase
	// finish runs the post-run checks. It may restart the service; the
	// service it returns is the one to close.
	finish(svc *service, ph *phase) (*service, error)
	// route is the request route whose server-side time the per-layer run
	// reports.
	route() string
	// replay repeats the workload's operations in-process, calling each
	// layer in the order the service does, with spans around the calls,
	// and checks the replayed releases against core. dir is an empty
	// directory for the replay's own durable store.
	replay(tr *tracer, dir string) error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(in *inputs, work string) bench{
	"cold-mix":       newColdMix,
	"hot-read":       newHotRead,
	"durable-append": newDurableAppend,
}

// phase is what one measured phase observed. Times are in milliseconds.
type phase struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	elapsed   time.Duration
	latency   []float64
	// publish is the time from sending each operation until its result is
	// visible to readers. An anonymize response is its own publication, so
	// there publish equals latency; an append is published when the spec
	// watching the dataset has reconciled it.
	publish []float64
	// late is how long the load generator took to send each operation
	// after the previous one completed.
	late      []float64
	respBytes int64
	// checks and checksFailed count the checks made outside the measured
	// operations: post-run checks and the replay's.
	checks, checksFailed int64

	// pollMS is the publication poll interval, the resolution of publish
	// (0 where publication is the response).
	pollMS float64
	// writeAmp, lagMax and openMS are set by workloads on a data directory.
	writeAmp float64
	lagMax   int64
	openMS   float64
	// probes are the host probes between the phase's parts, probeUse the
	// process's resource use while they ran, and roundTripShare the
	// workload's weight of their round-trip part.
	probes         []hostProbe
	probeUse       procSample
	roundTripShare float64
	// rssPeaks is the largest resident set size sampled in each part.
	rssPeaks []float64
}

// tally is one client's share of a phase, merged when the client stops.
type tally struct {
	attempted, failed      int64
	latency, publish, late []float64
	respBytes              int64
}

func (p *phase) merge(t *tally) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted += t.attempted
	p.failed += t.failed
	p.latency = append(p.latency, t.latency...)
	p.publish = append(p.publish, t.publish...)
	p.late = append(p.late, t.late...)
	p.respBytes += t.respBytes
}

// ok is the number of operations that succeeded and passed their checks.
func (p *phase) ok() int64 { return p.attempted - p.failed }

// check counts one check made outside the measured operations.
func (p *phase) check(what string, err error) {
	p.checks++
	if err != nil {
		p.checksFailed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// outcome is what one operation observed: its response latency, the time
// until its result was visible (0 when that is the response), the response
// size and whether it passed its checks.
type outcome struct {
	latency, publish time.Duration
	bytes            int
	err              error
}

// partLength is the length of one part of a measured phase. The host
// probe runs before the first part and after each, while no client has an
// operation in flight.
const partLength = 2 * time.Second

// closedLoopPhase runs clients concurrent clients for d. Each sends its next
// operation as soon as the previous one completed and was checked. The
// phase is cut into parts of about partLength with a host probe between
// them; each client's operation count runs on across the parts.
// roundTripShare is the workload's weight of the probe's round-trip part
// (see hostspeed.go).
func closedLoopPhase(clients int, d time.Duration, roundTripShare float64, op func(client, i int) outcome) *phase {
	ph := &phase{roundTripShare: roundTripShare}
	parts := max(1, int((d+partLength/2)/partLength))
	next := make([]int, clients)
	var echo *echoServer
	if probing {
		var err error
		if echo, err = startEcho(); err != nil {
			ph.check("host probe", err)
			return ph
		}
		defer echo.close()
	}
	probe := func() {
		if echo == nil {
			return
		}
		p, err := probeHost(echo)
		if err != nil {
			// Not a check of the service, but its metrics cannot be
			// scaled without the probe.
			ph.check("host probe", err)
			return
		}
		ph.probes = append(ph.probes, p)
		ph.probeUse = ph.probeUse.add(p.use)
	}
	probe()
	for s := 0; s < parts; s++ {
		ph.elapsed += closedLoopPart(ph, d/time.Duration(parts), next, op)
		probe()
	}
	return ph
}

// closedLoopPart runs one part of a closed-loop phase for d and returns how
// long the clients were active: the mean over clients of the time until
// each one's last operation completed.
func closedLoopPart(ph *phase, d time.Duration, next []int, op func(client, i int) outcome) time.Duration {
	stop := make(chan struct{})
	rss := watchRSS(stop)
	start := time.Now()
	deadline := start.Add(d)
	active := make([]time.Duration, len(next))
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tally{}
			prev := time.Now()
			for ; prev.Before(deadline); next[c]++ {
				sent := time.Now()
				t.late = append(t.late, ms(sent.Sub(prev)))
				o := op(c, next[c])
				t.attempted++
				t.respBytes += int64(o.bytes)
				if o.err != nil {
					t.failed++
					reportFailure(o.err)
				} else {
					t.latency = append(t.latency, ms(o.latency))
					t.publish = append(t.publish, ms(max(o.publish, o.latency)))
				}
				prev = time.Now()
			}
			active[c] = prev.Sub(start)
			ph.merge(t)
		}(c)
	}
	wg.Wait()
	close(stop)
	ph.rssPeaks = append(ph.rssPeaks, <-rss)
	var sum time.Duration
	for _, a := range active {
		sum += a
	}
	return sum / time.Duration(len(active))
}

// failureReports bounds how many failures one run prints.
var failureReports struct {
	sync.Mutex
	n int
}

func reportFailure(err error) {
	failureReports.Lock()
	defer failureReports.Unlock()
	if failureReports.n < 10 {
		fmt.Printf("failure: %v\n", err)
	}
	failureReports.n++
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0, so an empty phase reports zeros rather
// than values JSON cannot encode.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addEndToEnd adds the end-to-end metrics of a measured phase; proc is the
// process's resource use over the phase. Times are scaled to the reference
// host by the phase's host probes (see hostspeed.go); each line's note
// gives the value as measured.
func (p *phase) addEndToEnd(r *report, proc procSample) {
	ops := float64(max(p.ok(), 1))
	w := p.slowdown()
	r.set("host.slowdown", w, "ratio", fmt.Sprintf("host probes over the reference host, round trips weighed %.2f", p.roundTripShare))
	r.set("host.slowdown_compute", slowdownOf(p.probes, 0), "ratio", "computation part alone")
	r.set("host.slowdown_round_trips", slowdownOf(p.probes, 1), "ratio", "round-trip part alone")
	scaled := func(name string, raw, factor float64, unit, note string) {
		r.set(name, raw/factor, unit, fmt.Sprintf("%s; %.4f as measured", note, raw))
	}
	scaled("throughput_ops_s", ratio(float64(p.ok()), p.elapsed.Seconds()), 1/w, "1/s", "closed loop")
	n := fmt.Sprintf("n=%d", len(p.latency))
	scaled("latency_p50_ms", quantile(p.latency, 0.50), w, "ms", n)
	scaled("latency_p90_ms", quantile(p.latency, 0.90), w, "ms", n)
	if len(p.latency) > 1000 {
		// Only where more than ten samples lie beyond it; not in the
		// result line, whose metrics every workload reports.
		scaled("latency_p99_ms", quantile(p.latency, 0.99), w, "ms", n)
	}
	pn := fmt.Sprintf("n=%d; synchronous, equals latency", len(p.publish))
	if p.pollMS > 0 {
		pn = fmt.Sprintf("n=%d; resolution: poll interval %.0f ms", len(p.publish), p.pollMS)
	}
	scaled("publish_p50_ms", quantile(p.publish, 0.50), w, "ms", pn)
	scaled("publish_p90_ms", quantile(p.publish, 0.90), w, "ms", pn)
	failed, attempted := p.failed+p.checksFailed, p.attempted+p.checks
	r.set("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio",
		fmt.Sprintf("%d of %d operations and checks", failed, attempted))
	scaled("cpu_ms_per_op", ms(proc.cpu)/ops, w, "ms", "getrusage, whole process")
	r.set("alloc_kb_per_op", proc.allocBytes/1024/ops, "kB", "runtime/metrics, whole process")
	r.set("rss_peak_mb", median(p.rssPeaks), "MB",
		fmt.Sprintf("median over %d parts of the peak VmRSS read every %v", len(p.rssPeaks), rssInterval))
}

// slowdown is how much slower than the reference host the phase's host ran,
// by its probes.
func (p *phase) slowdown() float64 { return slowdownOf(p.probes, p.roundTripShare) }

// result builds the result line from the named metrics of the report.
func (p *phase) result(r *report, names []string) result {
	out := result{
		Correct:   p.failed+p.checksFailed == 0,
		Attempted: max(p.attempted+p.checks, 1),
		Failed:    p.failed + p.checksFailed,
		Metrics:   map[string]metric{},
	}
	for _, name := range names {
		out.Metrics[name] = r.metrics[name]
	}
	return out
}
