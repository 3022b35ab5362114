package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/ppdp/ppdp/internal/server"
)

// service is one in-process ppdp server on a loopback listener and the HTTP
// client that drives it.
type service struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// openService starts the service the way `ppdp serve` does: server.Open,
// then Serve on a listener, here on a loopback port.
func openService(cfg server.Config) (*service, error) {
	srv, err := server.Open(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &service{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			// Two load clients plus the publication poller keep their
			// connections open between requests.
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// close shuts the server down and waits until Serve has returned, which
// also closes the executor and the durable store.
func (s *service) close() error {
	s.cancel()
	err := <-s.done
	s.client.CloseIdleConnections()
	return err
}

// do sends one request and returns the status and the whole body.
func (s *service) do(method, path, accept, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect sends one request and fails unless the status is want.
func (s *service) expect(want int, method, path, accept, ctype string, body []byte) ([]byte, error) {
	status, data, err := s.do(method, path, accept, ctype, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads GET /metrics into a map from series (name plus labels, as
// printed) to value.
func (s *service) scrape() (map[string]float64, error) {
	data, err := s.expect(http.StatusOK, "GET", "/metrics", "", "", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// procSample is the process-wide resource use at one instant.
type procSample struct {
	cpu          time.Duration
	allocBytes   float64
	allocObjects float64
	gcCycles     float64
	gcCPU        float64
	totalCPU     float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// sampleProcess reads process CPU time (getrusage) and the allocation and GC
// counters of runtime/metrics.
func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ps := procSample{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	ps.allocBytes, ps.allocObjects, ps.gcCycles, ps.gcCPU, ps.totalCPU = val(0), val(1), val(2), val(3), val(4)
	return ps
}

func (a procSample) add(b procSample) procSample {
	return procSample{
		cpu:          a.cpu + b.cpu,
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCycles:     a.gcCycles + b.gcCycles,
		gcCPU:        a.gcCPU + b.gcCPU,
		totalCPU:     a.totalCPU + b.totalCPU,
	}
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:          a.cpu - b.cpu,
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

// rssInterval is how often watchRSS reads the resident set size.
const rssInterval = 20 * time.Millisecond

// rssMB reads the process's resident set size (VmRSS) in MB.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// watchRSS reads the resident set size every rssInterval until stop is
// closed, then sends the largest value it read.
func watchRSS(stop <-chan struct{}) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- max(peak, rssMB())
				return
			case <-tick.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return out
}

// cpuTicks is the machine's busy and stolen CPU time from /proc/stat.
type cpuTicks struct{ busy, steal float64 }

// readSteal reads the aggregate cpu line of /proc/stat (zeros when it is
// unreadable).
func readSteal() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	v := make([]float64, 9)
	for i := 1; i < 9; i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
	}
	// user, nice, system, irq, softirq run on the CPU; steal is time the
	// hypervisor gave this machine's runnable CPUs to someone else.
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// share is the stolen share of the time this machine's CPUs wanted to run
// between two readings: how much a noisy host slowed the run.
func (c cpuTicks) share(before cpuTicks) float64 {
	busy, steal := c.busy-before.busy, c.steal-before.steal
	return ratio(steal, busy+steal)
}

// filesystemOf names the filesystem holding dir, for the host record.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
