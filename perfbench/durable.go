package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/ppdp/ppdp/internal/server"
)

// Durable-append load: one client appends a chunk of new rows, polls the
// watching spec until the append is published, then appends the next. A
// closed loop, so no operation waits behind an earlier one and each measures
// one append and one republication. Every appendCycle appends the client
// puts the base table back (PUT, then the wait for its publication), so
// that the table grows through the same sizes in every cycle and the work
// per append does not depend on how many appends a run gets through.
const (
	appendRows      = 30
	appendCycle     = 40
	appendChunks    = 1024                 // generated chunks; a longer phase cycles through them again
	pollInterval    = 5 * time.Millisecond // resolution of publish_*
	publishDeadline = 5 * time.Second
)

// appendSpec keeps a mondrian k=10 release of the appended census dataset
// published.
var appendSpec = spec{name: "census-k10", item: mixItem{
	label: "census mondrian k=10 (spec)", dataset: "census", algorithm: "mondrian", policy: kPolicy(10, 0), k: 10}}

// durableAppend is the write side: CSV ingest, the durable store (a snapshot
// of the whole table and a fsynced WAL record on every generation), the
// fingerprint, the reconciler and a mondrian rerun on a growing table.
type durableAppend struct {
	in   *inputs
	dirs dataDirs
	// chunks are the CSV bodies of the appends, sent in order.
	chunks [][]byte
	// rows is the dataset's row count once every append so far landed.
	rows int
}

func newDurableAppend(in *inputs, work string) bench {
	return &durableAppend{in: in, dirs: dataDirs{work: work}, chunks: in.newIndividuals(appendChunks, appendRows)}
}

func (b *durableAppend) route() string { return "POST /v1/datasets/{name}/rows" }

// setup opens a service on a fresh data directory, uploads census-5k with
// PUT, declares a mondrian k=10 spec watching it and waits for the first
// publication.
func (b *durableAppend) setup() (*service, error) {
	cfg, err := b.dirs.next()
	if err != nil {
		return nil, err
	}
	return openSeeded(cfg, b.seed)
}

func (b *durableAppend) seed(svc *service) error {
	base := b.in.dataset("census-5k")
	if _, err := svc.expect(http.StatusCreated, "PUT", "/v1/datasets/census?family=census", "", "text/csv", base.csv); err != nil {
		return err
	}
	b.rows = base.table.Len()
	return appendSpec.declare(svc)
}

// dataDirs hands each set-up a fresh data directory under work and removes
// the previous one.
type dataDirs struct {
	work string
	n    int
	cur  server.Config
}

func (d *dataDirs) next() (server.Config, error) {
	if d.cur.DataDir != "" {
		if err := os.RemoveAll(d.cur.DataDir); err != nil {
			return server.Config{}, err
		}
	}
	d.n++
	d.cur = server.Config{DataDir: filepath.Join(d.work, fmt.Sprintf("data-%d", d.n))}
	return d.cur, nil
}

// spec is a release spec a workload declares.
type spec struct {
	name string
	item mixItem
}

// declare creates the spec and waits until its first release is published.
func (sp spec) declare(svc *service) error {
	body, _ := json.Marshal(map[string]any{ // strings and a policy always encode
		"name": sp.name, "dataset": sp.item.dataset, "algorithm": sp.item.algorithm,
		"policy": sp.item.policy, "quasi_identifiers": sp.item.qi,
	})
	if _, err := svc.expect(http.StatusCreated, "POST", "/v1/specs", "", "application/json", body); err != nil {
		return err
	}
	deadline := time.Now().Add(publishDeadline)
	for {
		st, err := sp.state(svc)
		if err != nil {
			return err
		}
		if st.ReconciledGeneration >= st.DatasetGeneration && st.ReleaseID != "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("spec %s not published within %v: %+v", sp.name, publishDeadline, st)
		}
		time.Sleep(pollInterval)
	}
}

// specState is the part of GET /v1/specs/{name} the benchmark reads.
type specState struct {
	ReleaseID            string `json:"release_id"`
	State                string `json:"state"`
	LastError            string `json:"last_error"`
	DatasetGeneration    uint64 `json:"dataset_generation"`
	ReconciledGeneration uint64 `json:"reconciled_generation"`
}

func (sp spec) state(svc *service) (specState, error) {
	var st specState
	body, err := svc.expect(http.StatusOK, "GET", "/v1/specs/"+sp.name, "", "", nil)
	if err != nil {
		return st, err
	}
	err = json.Unmarshal(body, &st)
	return st, err
}

// durableRoundTrips is durable-append's weight of the host probe's
// round-trip part (hostspeed.go). Each append is a republication's
// computation plus a train of small HTTP polls; in ten 12 s runs on the
// sized host its throughput, median latencies and CPU per append scaled by
// both parts, weighed alike, spread by 0.02-0.04 of their medians (its
// p90 latency by 0.11), by either part alone by 0.06-0.14.
const durableRoundTrips = 0.5

func (b *durableAppend) run(svc *service, d time.Duration) *phase {
	before := dirUsage(b.dirs.cur.DataDir)
	st, err := appendSpec.state(svc)
	if err != nil {
		reportFailure(err)
		return &phase{attempted: 1, failed: 1}
	}
	base := b.in.dataset("census-5k")
	gen := st.DatasetGeneration
	var (
		appendBytes int64
		lagMax      int64
	)
	ph := closedLoopPhase(1, d, durableRoundTrips, func(_, i int) outcome {
		if i > 0 && i%appendCycle == 0 {
			// Put the base table back; its time counts in the phase but
			// in no operation's latency.
			sent := time.Now()
			if _, err := svc.expect(http.StatusCreated, "PUT", "/v1/datasets/census?family=census", "", "text/csv", base.csv); err != nil {
				return outcome{err: fmt.Errorf("reset before append %d: %w", i, err)}
			}
			gen++
			b.rows = base.table.Len()
			if _, _, err := awaitPublication(svc, gen, sent); err != nil {
				return outcome{err: fmt.Errorf("reset before append %d: %w", i, err)}
			}
		}
		chunk := b.chunks[i%len(b.chunks)]
		appendBytes += int64(len(chunk))
		want := b.rows + appendRows
		sent := time.Now()
		status, body, err := svc.do("POST", "/v1/datasets/census/rows", "", "text/csv", chunk)
		o := outcome{latency: time.Since(sent), bytes: len(body)}
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("append %d: status %d: %s", i, status, bytes.TrimSpace(body))
		}
		if err == nil {
			var info struct {
				Rows int `json:"rows"`
			}
			if err = json.Unmarshal(body, &info); err == nil && info.Rows != want {
				err = fmt.Errorf("append %d: %w: dataset has %d rows, want %d", i, errCheck, info.Rows, want)
			}
		}
		if err != nil {
			o.err = err
			return o
		}
		b.rows = want
		gen++
		var lag int64
		o.publish, lag, o.err = awaitPublication(svc, gen, sent)
		lagMax = max(lagMax, lag)
		return o
	})
	ph.pollMS = ms(pollInterval)
	ph.lagMax = lagMax
	after := dirUsage(b.dirs.cur.DataDir)
	ph.writeAmp = float64(after.sub(before)) / float64(max(appendBytes, 1))
	return ph
}

// awaitPublication polls the spec every pollInterval until its reconciled
// generation reaches gen, and returns the time since sent and the largest
// generation lag it saw. It sleeps between reads rather than spinning, so it
// never takes CPU from the reconciler it waits for.
func awaitPublication(svc *service, gen uint64, sent time.Time) (time.Duration, int64, error) {
	var lagMax int64
	for {
		st, err := appendSpec.state(svc)
		if err != nil {
			return 0, lagMax, err
		}
		lagMax = max(lagMax, int64(st.DatasetGeneration)-int64(st.ReconciledGeneration))
		if st.ReconciledGeneration >= gen {
			return time.Since(sent), lagMax, nil
		}
		if time.Since(sent) > publishDeadline {
			return 0, lagMax, fmt.Errorf("generation %d: %w: not published within %v (spec %+v)", gen, errCheck, publishDeadline, st)
		}
		time.Sleep(pollInterval)
	}
}

// finish restarts the service on the finished data directory and checks
// that the spec's reconciled generation and release survived, and that the
// release still meets k over every row.
func (b *durableAppend) finish(svc *service, ph *phase) (*service, error) {
	svc, after, err := restart(svc, b.dirs.cur, appendSpec, ph)
	if err != nil {
		return svc, err
	}
	body, err := svc.expect(http.StatusOK, "GET", "/v1/releases/"+after.ReleaseID, "", "", nil)
	if err != nil {
		return svc, err
	}
	var rel anonymizeReply
	if err := json.Unmarshal(body, &rel); err != nil {
		return svc, err
	}
	if k := appendSpec.item.k; rel.Measurements.K < k || rel.Rows != b.rows {
		return svc, fmt.Errorf("%w: recovered release has k=%d over %d rows, want k>=%d over %d", errCheck, rel.Measurements.K, rel.Rows, k, b.rows)
	}
	return svc, nil
}

// restart closes svc and opens a service on the same data directory, timing
// the open (phase.openMS), and checks that the spec's reconciled generation
// and release id survived. The service it returns is the one to close.
func restart(svc *service, cfg server.Config, sp spec, ph *phase) (*service, specState, error) {
	before, err := sp.state(svc)
	if err != nil {
		return svc, before, err
	}
	if err := svc.close(); err != nil {
		return nil, before, err
	}
	start := time.Now()
	svc, err = openService(cfg)
	ph.openMS = ms(time.Since(start))
	if err != nil {
		return nil, before, err
	}
	after, err := sp.state(svc)
	if err == nil && (after.ReleaseID != before.ReleaseID || after.ReconciledGeneration != before.ReconciledGeneration) {
		err = fmt.Errorf("%w: spec %s changed across restart: before %+v, after %+v", errCheck, sp.name, before, after)
	}
	return svc, after, err
}

// usage is what a data directory holds: the size of each table snapshot and
// of the WAL generations together.
type usage struct {
	tables map[string]int64
	wal    int64
}

// dirUsage reads a data directory's usage.
func dirUsage(dir string) usage {
	u := usage{tables: map[string]int64{}}
	// The walk function never fails the walk, so Walk returns nil.
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil // a file removed mid-walk by a checkpoint is skipped
		}
		switch {
		case strings.HasSuffix(path, ".tbl"):
			u.tables[filepath.Base(path)] = info.Size()
		case strings.HasPrefix(filepath.Base(path), "wal."):
			u.wal += info.Size()
		}
		return nil
	})
	return u
}

// sub is the bytes written between two usages: new table snapshots plus WAL
// growth.
func (u usage) sub(before usage) int64 {
	n := u.wal - before.wal
	for name, size := range u.tables {
		if _, ok := before.tables[name]; !ok {
			n += size
		}
	}
	return n
}

func (b *durableAppend) replay(tr *tracer, dir string) error {
	return replayDurable(tr, b, dir)
}
