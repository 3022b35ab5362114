package main

import (
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The host this benchmark runs on shares its CPUs with other machines, and
// its speed drifts by up to a factor of two over minutes to hours, for the
// same program on the same inputs. So every run also times fixed reference
// work of its own, the host probe, that uses nothing of the program, and
// reports its time metrics scaled to the speed the probe had on the
// reference host: a metric reads as it would have read there. Changes to
// the program do not change the probe, so they show in the scaled metrics
// in full, while a slower host slows the probe too and is divided out. The
// raw, unscaled values are printed beside them.
//
// The probe has two parts: computation (hashing, map inserts and a sort)
// and loopback TCP round trips. A slower host does not slow both alike, so
// each workload weighs them by what its own operations spend time on (its
// round-trip share). The probe runs between the parts of the measured
// phase (see closedLoopPhase), while the service is idle, and each run uses
// the median of its probes. The traced run does not probe: its per-layer
// metrics are not scaled, and the probe would show in its CPU profile.

const (
	// probeWorkers is how many goroutines run each part of the probe at
	// once: as many as the closed-loop workloads have clients.
	probeWorkers = 2
	// probeRounds is how many reference jobs, and probeRoundTrips how many
	// 1 kB round trips, each probe worker runs.
	probeRounds     = 40
	probeRoundTrips = 1500
	// refCompute and refRoundTrips are the two parts' times on the
	// reference host, the host the benchmark was sized on (2 vCPUs of a
	// shared machine, Go 1.24): medians over 30 s runs of the three
	// workloads.
	refCompute    = 117 * time.Millisecond
	refRoundTrips = 40 * time.Millisecond
)

// probing turns the host probes on; measurePerLayer turns them off.
var probing = true

// probeSink keeps the reference job's result alive.
var probeSink struct {
	sync.Mutex
	n int
}

// referenceJob is the probe's unit of computation, a mix of what the
// program's hot paths do: hashing, map inserts and lookups, and a sort. It
// reuses the scratch space it is given, so that it allocates nothing and no
// garbage collection falls into a probe.
func referenceJob(seed uint64, xs []uint64, counts map[uint64]int) int {
	clear(counts)
	x := seed | 1
	for i := range xs {
		// xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x >> 44
		counts[xs[i]%5000]++
	}
	slices.Sort(xs)
	return len(counts) + int(xs[len(xs)/2])
}

// echoServer is a loopback TCP server of the benchmark's own that writes
// back whatever it reads, for the round-trip part of the probe, with
// probeWorkers clients connected to it.
type echoServer struct {
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // the listener was closed
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer c.Close()
				_, _ = io.Copy(c, c) // ends when the client closes
			}()
		}
	}()
	for w := 0; w < probeWorkers; w++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, c)
	}
	return e, nil
}

// close closes the clients and the listener and waits until every server
// goroutine has returned.
func (e *echoServer) close() {
	for _, c := range e.conns {
		c.Close()
	}
	e.ln.Close()
	e.wg.Wait()
}

// hostProbe is one timed probe: the times of its two parts and the
// process's resource use while it ran.
type hostProbe struct {
	compute, roundTrips time.Duration
	use                 procSample
}

// probeHost times both parts of the probe, each on probeWorkers
// goroutines. It starts from a collected heap.
func probeHost(e *echoServer) (hostProbe, error) {
	runtime.GC()
	before := sampleProcess()
	compute, _ := onEachWorker(func(w int, start func()) error {
		xs, counts := make([]uint64, 20000), make(map[uint64]int, 5000)
		start()
		n := 0
		for i := 0; i < probeRounds; i++ {
			n += referenceJob(uint64(w*probeRounds+i), xs, counts)
		}
		probeSink.Lock()
		probeSink.n += n
		probeSink.Unlock()
		return nil
	})
	roundTrips, err := onEachWorker(func(w int, start func()) error {
		c, buf := e.conns[w], make([]byte, 1024)
		start()
		for i := 0; i < probeRoundTrips; i++ {
			if _, err := c.Write(buf); err != nil {
				return err
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return err
			}
		}
		return nil
	})
	return hostProbe{compute: compute, roundTrips: roundTrips, use: sampleProcess().sub(before)}, err
}

// onEachWorker runs f on probeWorkers goroutines, each timed from its call
// of start until f returns, and returns the mean time, so that one
// goroutine started late does not count for both, and the errors.
func onEachWorker(f func(w int, start func()) error) (time.Duration, error) {
	times := make([]time.Duration, probeWorkers)
	errs := make([]error, probeWorkers)
	var wg sync.WaitGroup
	for w := 0; w < probeWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var t0 time.Time
			errs[w] = f(w, func() { t0 = time.Now() })
			times[w] = time.Since(t0)
		}(w)
	}
	wg.Wait()
	var sum time.Duration
	for _, t := range times {
		sum += t
	}
	return sum / probeWorkers, errors.Join(errs...)
}

// slowdownOf is how much slower than on the reference host the probes ran
// — 2 means half as fast — with their round-trip part weighed by share and
// their computation by 1-share: the weighted geometric mean of the two
// parts' median slowdowns. It is 1 when there are no probes.
func slowdownOf(probes []hostProbe, share float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	var compute, roundTrips []float64
	for _, p := range probes {
		compute = append(compute, float64(p.compute)/float64(refCompute))
		roundTrips = append(roundTrips, float64(p.roundTrips)/float64(refRoundTrips))
	}
	return math.Pow(median(compute), 1-share) * math.Pow(median(roundTrips), share)
}
