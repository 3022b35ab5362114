package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/ppdp/ppdp/internal/core"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/engine"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/metrics"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/privacy"
	"github.com/ppdp/ppdp/internal/resultcache"
	"github.com/ppdp/ppdp/internal/store"
)

// span is one timed call into a layer. Spans of one replayed operation
// share Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the replay's spans in memory. The replay is sequential, so
// the open spans form a stack and the top is the parent of the next one. An
// off tracer records nothing, so the same replay can be timed without spans.
type tracer struct {
	off   bool
	t0    time.Time
	spans []span
	open  []int
	op    int
	// units is the final Spec.Progress total of every replayed run.
	units []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens the root span of a new replayed operation; its layer is
// "replay", the benchmark's own glue between the calls.
func (t *tracer) root(name string) int {
	t.op++
	return t.begin("replay", name)
}

func (t *tracer) begin(layer, name string) int {
	if t.off {
		return 0
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t.off {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(layer, name string, f func() error) error {
	id := t.begin(layer, name)
	err := f()
	t.end(id)
	return err
}

// meanMS is the mean duration of the spans called name, in milliseconds
// (0 when the replay made no such call).
func (t *tracer) meanMS(name string) float64 {
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += time.Duration(s.End - s.Start)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// unitsPerRun is the mean work count of the replayed algorithm runs.
func (t *tracer) unitsPerRun() float64 {
	if len(t.units) == 0 {
		return 0
	}
	sum := 0
	for _, u := range t.units {
		sum += u
	}
	return float64(sum) / float64(len(t.units))
}

// selfTime is each layer's self time: its spans' durations minus the parts
// their child spans cover.
func (t *tracer) selfTime() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// replayTable is a dataset as the service holds it after an upload.
type replayTable struct {
	family string
	table  *dataset.Table
	hier   *hierarchy.Set
}

// replayUploads repeats the service's CSV ingest of every generated dataset.
func replayUploads(tr *tracer, in *inputs) (map[string]*replayTable, error) {
	out := map[string]*replayTable{}
	for _, d := range in.datasets {
		root := tr.root("upload " + d.name)
		rt := &replayTable{family: d.family.Name, hier: d.family.Hierarchies()}
		err := tr.do("dataset", "Family.ReadCSV", func() (err error) {
			rt.table, err = d.family.ReadCSV(bytes.NewReader(d.csv))
			return err
		})
		if err != nil {
			return nil, err
		}
		rt.table.SetScanWorkers(runtime.GOMAXPROCS(0))
		tr.do("dataset", "Table.Fingerprint", func() error { rt.table.Fingerprint(); return nil })
		tr.end(root)
		out[d.name] = rt
	}
	return out, nil
}

// replayRelease is a release computed by the replay.
type replayRelease struct {
	res      *engine.Result
	measured core.Measurements
	units    int
}

func (m mixItem) coreConfig(hier *hierarchy.Set) core.Config {
	return core.Config{Algorithm: core.Algorithm(m.algorithm), Policy: m.policy, QuasiIdentifiers: m.qi, Hierarchies: hier}
}

// replayAnonymize runs one anonymization the way the service's runner does
// through core: prepare (core.New), input projection, the engine run, and
// the measurement of the released table. It mirrors core's measurement for
// the criteria the benchmark's policies use (k-anonymity, and distinct-l
// for anatomy, which core does not measure).
func replayAnonymize(tr *tracer, rt *replayTable, m mixItem) (*replayRelease, error) {
	var anon *core.Anonymizer
	if err := tr.do("core", "core.New", func() (err error) {
		anon, err = core.New(m.coreConfig(rt.hier))
		return err
	}); err != nil {
		return nil, err
	}
	var input *dataset.Table
	if err := tr.do("core", "Table.DropIdentifiers", func() (err error) {
		input, err = rt.table.DropIdentifiers()
		return err
	}); err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	input.SetScanWorkers(workers)
	pol := anon.Policy()
	sensitive := ""
	if names := input.Schema().SensitiveNames(); len(names) > 0 {
		sensitive = names[0]
	}
	extra, err := pol.AttributeCriteria(sensitive)
	if err != nil {
		return nil, err
	}
	alg, err := engine.Lookup(m.algorithm)
	if err != nil {
		return nil, err
	}
	rel := &replayRelease{}
	spec := engine.Spec{
		K: pol.KAnonymityK(), L: pol.BucketL(), MaxSuppression: pol.SuppressionBudget(),
		Sensitive: sensitive, QuasiIdentifiers: m.qi, Hierarchies: rt.hier,
		Extra: extra, Policy: pol,
		Progress: func(done, total int) { rel.units = total },
	}
	if err := tr.do("algorithms", "engine.Run "+m.algorithm, func() (err error) {
		rel.res, err = alg.Run(context.Background(), input, spec)
		return err
	}); err != nil {
		return nil, err
	}
	tr.units = append(tr.units, rel.units)
	for _, t := range []*dataset.Table{rel.res.Table, rel.res.QIT, rel.res.ST} {
		if t != nil {
			t.SetScanWorkers(workers)
		}
	}
	rel.measured.SuppressedRows = rel.res.SuppressedRows
	released := rel.res.Table
	if released == nil {
		return rel, nil
	}
	qi := released.Schema().QuasiIdentifierNames()
	if len(m.qi) > 0 {
		qi = m.qi
	}
	var classes []dataset.EquivalenceClass
	if err := tr.do("measure", "Table.GroupBy", func() (err error) {
		classes, err = released.GroupBy(qi...)
		return err
	}); err != nil {
		return nil, err
	}
	meas := &rel.measured
	if err := tr.do("measure", "privacy.Measure", func() (err error) {
		meas.K = privacy.MeasureK(classes)
		if sensitive != "" && released.Schema().Has(sensitive) {
			if meas.DistinctL, err = privacy.MeasureDistinctL(released, classes, sensitive); err != nil {
				return err
			}
			if meas.MaxEMD, err = privacy.MeasureMaxEMD(released, classes, sensitive, false); err != nil {
				return err
			}
		}
		if pol.Has(policy.KAnonymity) {
			meas.Criteria = map[string]core.CriterionMeasurement{policy.KAnonymity: {
				Target: float64(pol.KAnonymityK()), Measured: float64(privacy.MeasureK(classes)),
			}}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tr.do("measure", "metrics.NCP+Discernibility", func() (err error) {
		if meas.NCP, err = metrics.NCP(input, released, rt.hier); err != nil {
			return err
		}
		meas.Discernibility, err = metrics.Discernibility(released, input.Len())
		return err
	}); err != nil {
		return nil, err
	}
	return rel, nil
}

// replayRequest replays one anonymize request as an operation of its own.
func replayRequest(tr *tracer, rt *replayTable, m mixItem) (*replayRelease, error) {
	root := tr.root("anonymize " + m.label)
	defer tr.end(root)
	return replayAnonymize(tr, rt, m)
}

// check compares a replayed release with core.Anonymizer.AnonymizeContext on
// the same input, byte for byte by content fingerprint, and with the
// service's response for the same request (ref, "" to skip).
func (rel *replayRelease) check(rt *replayTable, m mixItem, ref []byte) error {
	anon, err := core.New(m.coreConfig(rt.hier))
	if err != nil {
		return err
	}
	want, err := anon.AnonymizeContext(context.Background(), rt.table)
	if err != nil {
		return err
	}
	pairs := [][2]*dataset.Table{{rel.res.Table, want.Table}, {rel.res.QIT, want.QIT}, {rel.res.ST, want.ST}}
	for _, p := range pairs {
		if (p[0] == nil) != (p[1] == nil) || (p[0] != nil && p[0].Fingerprint() != p[1].Fingerprint()) {
			return fmt.Errorf("%s: %w: replayed release differs from core's", m.label, errCheck)
		}
	}
	got, exp := rel.measured, want.Measured
	if got.K != exp.K || got.DistinctL != exp.DistinctL || got.MaxEMD != exp.MaxEMD ||
		got.NCP != exp.NCP || got.Discernibility != exp.Discernibility || got.SuppressedRows != exp.SuppressedRows {
		return fmt.Errorf("%s: %w: replayed measurements %+v differ from core's %+v", m.label, errCheck, got, exp)
	}
	if ref == nil {
		return nil
	}
	var r anonymizeReply
	if err := json.Unmarshal(ref, &r); err != nil {
		return err
	}
	rows := 0
	for _, t := range []*dataset.Table{rel.res.Table, rel.res.QIT} {
		if t != nil {
			rows = t.Len()
		}
	}
	if r.Rows != rows || r.Measurements.K != got.K || r.Measurements.NCP != got.NCP {
		return fmt.Errorf("%s: %w: replayed release (rows=%d k=%d ncp=%v) differs from the service's (rows=%d k=%d ncp=%v)",
			m.label, errCheck, rows, got.K, got.NCP, r.Rows, r.Measurements.K, r.Measurements.NCP)
	}
	return nil
}

// replayCache is a result cache the replay fills and consults. The span
// around a hit times the lookup, not the service's key layout, so any stable
// per-request key serves: the request's label and the table fingerprint.
type replayCache struct {
	tr    *tracer
	cache *resultcache.Cache
}

func newReplayCache(tr *tracer) *replayCache {
	return &replayCache{tr: tr, cache: resultcache.New(64)}
}

func (c *replayCache) key(rt *replayTable, m mixItem) string {
	return m.label + "\x1f" + rt.table.Fingerprint()
}

func (c *replayCache) put(rt *replayTable, m mixItem, rel *replayRelease) {
	c.cache.Put(c.key(rt, m), rel)
}

// hit replays a cache-hit request: prepare, then the keyed lookup.
func (c *replayCache) hit(rt *replayTable, m mixItem) error {
	root := c.tr.root("hit " + m.label)
	defer c.tr.end(root)
	if err := c.tr.do("core", "core.New", func() error {
		_, err := core.New(m.coreConfig(rt.hier))
		return err
	}); err != nil {
		return err
	}
	return c.tr.do("resultcache", "resultcache.Get", func() error {
		if _, ok := c.cache.Get(c.key(rt, m)); !ok {
			return fmt.Errorf("%s: %w: replayed lookup missed the cache", m.label, errCheck)
		}
		return nil
	})
}

// replayPage reads one row page of a release.
func replayPage(tr *tracer, rel *replayRelease, offset, limit int) {
	t := rel.res.Table
	if t == nil {
		t = rel.res.QIT
	}
	root := tr.root("page")
	tr.do("dataset", "Table.Row page", func() error {
		for i := offset; i < offset+limit && i < t.Len(); i++ {
			if _, err := t.Row(i); err != nil {
				return err
			}
		}
		return nil
	})
	tr.end(root)
}

// replayStore is a durable store of the replay's own, written the way the
// server's registry writes its store: a table snapshot first, then the
// journaled op that references it.
type replayStore struct {
	tr *tracer
	st *store.Store
}

func openReplayStore(tr *tracer, dir string) (*replayStore, error) {
	s := &replayStore{tr: tr}
	err := tr.do("store", "store.Open", func() (err error) {
		s.st, err = store.Open(dir, store.Options{})
		return err
	})
	return s, err
}

func (s *replayStore) close() error { return s.st.Close() }

// put persists the tables and journals the op that references them.
func (s *replayStore) put(kind, key string, gen int, tables ...*dataset.Table) error {
	var fps []string
	for _, t := range tables {
		if t == nil {
			continue
		}
		if err := s.tr.do("store", "Store.PutTable", func() error {
			fp, err := s.st.PutTable(t)
			fps = append(fps, fp)
			return err
		}); err != nil {
			return err
		}
	}
	meta := json.RawMessage(fmt.Sprintf(`{"generation":%d}`, gen))
	return s.apply(store.Op{Op: store.OpPut, Kind: kind, Key: key, Tables: fps, Meta: meta})
}

func (s *replayStore) apply(op store.Op) error {
	return s.tr.do("store", "Store.Apply", func() error { return s.st.Apply(op) })
}

// ingest replays a CSV upload (rt.table nil) or an append onto rt.table on
// a durable server: CSV ingest, the copy-on-write append, the content
// fingerprint, then the snapshot and its journal record. The snapshot
// encode is timed once more on its own: the dataset layer's share of
// PutTable, which adds the file, fsync and rename.
func (s *replayStore) ingest(d *input, gen int, rt *replayTable, csv []byte) (*dataset.Table, error) {
	var t *dataset.Table
	err := s.tr.do("dataset", "Family.ReadCSV", func() (err error) {
		t, err = d.family.ReadCSV(bytes.NewReader(csv))
		return err
	})
	if err != nil {
		return nil, err
	}
	if rt.table != nil {
		// An append: the rows land on a copy of the stored table.
		rows := t
		err = s.tr.do("dataset", "Table.Clone+AppendTable", func() error {
			t = rt.table.Clone()
			return t.AppendTable(rows)
		})
		if err != nil {
			return nil, err
		}
	}
	t.SetScanWorkers(runtime.GOMAXPROCS(0))
	s.tr.do("dataset", "Table.Fingerprint", func() error { t.Fingerprint(); return nil })
	if err := s.put(store.KindDataset, d.name, gen, t); err != nil {
		return nil, err
	}
	return t, s.tr.do("dataset", "Table.WriteSnapshot", func() error { return t.WriteSnapshot(io.Discard) })
}

// publish replays one reconciliation of a spec: the run, the release's
// snapshots and journal record, the spec record, and the removal of the
// release it replaces.
func (s *replayStore) publish(rt *replayTable, sp spec, gen int) (*replayRelease, error) {
	root := s.tr.root("reconcile " + sp.name)
	defer s.tr.end(root)
	rel, err := replayAnonymize(s.tr, rt, sp.item)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s-%d", sp.name, gen)
	if err := s.put(store.KindRelease, key, gen, rel.res.Table, rel.res.QIT, rel.res.ST); err != nil {
		return nil, err
	}
	if err := s.apply(store.Op{Op: store.OpPut, Kind: store.KindSpec, Key: sp.name, Meta: json.RawMessage(fmt.Sprintf(`{"generation":%d}`, gen))}); err != nil {
		return nil, err
	}
	if gen > 1 {
		return rel, s.apply(store.Op{Op: store.OpDelete, Kind: store.KindRelease, Key: fmt.Sprintf("%s-%d", sp.name, gen-1)})
	}
	return rel, nil
}

// durableReplayOps bounds how many appends the replay repeats.
const durableReplayOps = 20

// replayDurable repeats durable-append on a store of its own: the upload,
// the spec's first publication, then each append (ingest, copy-on-write
// append, fingerprint, snapshot, journal) and its republication.
func replayDurable(tr *tracer, b *durableAppend, dir string) error {
	st, err := openReplayStore(tr, dir)
	if err != nil {
		return err
	}
	defer st.close()
	base := b.in.dataset("census-5k")
	rt := &replayTable{family: base.family.Name, hier: base.family.Hierarchies()}
	census := &input{name: appendSpec.item.dataset, family: base.family}
	root := tr.root("upload census")
	rt.table, err = st.ingest(census, 1, rt, base.csv)
	tr.end(root)
	if err != nil {
		return err
	}
	rel, err := st.publish(rt, appendSpec, 1)
	if err != nil {
		return err
	}
	for i, chunk := range b.chunks[:min(len(b.chunks), durableReplayOps)] {
		gen := i + 2
		root := tr.root("append")
		t, err := st.ingest(census, gen, rt, chunk)
		tr.end(root)
		if err != nil {
			return err
		}
		rt.table = t
		if rel, err = st.publish(rt, appendSpec, gen); err != nil {
			return err
		}
	}
	return rel.check(rt, appendSpec.item, nil)
}

// measurePerLayer is the traced run. The workload runs for d under a CPU
// profile with /metrics scraped around it, and the post-run checks run.
// Then the workload's operations replay in-process, without spans and with
// them: the traced replay gives the per-layer spans, and the ratio of the
// replay times is what the spans cost.
func measurePerLayer(b bench, d time.Duration, work, traceFile string) (result, error) {
	probing = false
	svc, err := b.setup()
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	profPath := filepath.Join(work, "cpu.pprof")
	ph, m0, m1, proc, err := profiledRun(b, svc, d, profPath)
	if err != nil {
		svc.close()
		return result{}, err
	}
	svc, err = b.finish(svc, ph)
	if svc != nil {
		svc.close()
	}
	ph.check("post-run check", err)
	// The first replay warms the caches and is not timed. Then replays
	// without and with spans run in the order plain, traced, traced, plain,
	// so that a drift over the sequence (the disk writing back an earlier
	// replay's store) weighs on both kinds alike. The last traced replay's
	// spans are reported.
	_, err = timeReplay(b, &tracer{off: true}, filepath.Join(work, "replay-warm"))
	ph.check("replay without spans", err)
	var plain, traced time.Duration
	var tr *tracer
	for i, spans := range []bool{false, true, true, false} {
		t := &tracer{off: true}
		if spans {
			t = newTracer()
			tr = t
		}
		d, err := timeReplay(b, t, filepath.Join(work, fmt.Sprintf("replay-%d", i)))
		ph.check("replay", err)
		if spans {
			traced += d
		} else {
			plain += d
		}
	}

	shares, cpu, err := profileShares(profPath)
	if err != nil {
		return result{}, err
	}
	r := newReport()
	ops := float64(max(ph.ok(), 1))
	delta := func(series string) float64 { return sumSeries(m1, series) - sumSeries(m0, series) }
	// mean is a histogram's mean over the traced phase; labels selects one
	// series ("" sums them all).
	mean := func(name, labels string) float64 {
		return ratio(delta(name+"_sum"+labels), delta(name+"_count"+labels))
	}
	reqMS := mean("ppdp_http_request_duration_seconds", fmt.Sprintf(`{route=%q}`, b.route())) * 1000
	runMS := mean("ppdp_run_duration_seconds", "") * 1000
	r.set("server.non_run_ms", reqMS-runMS, "ms", "mean "+b.route()+" time minus mean client run time")
	r.set("server.resp_kb_per_op", float64(ph.respBytes)/1024/ops, "kB", "response body bytes")
	r.set("core.prepare_us", tr.meanMS("core.New")*1000, "us", "span around core.New")
	r.set("core.input_ms", tr.meanMS("Table.DropIdentifiers"), "ms", "span around Table.DropIdentifiers")
	hits, misses := delta("ppdp_cache_hits_total"), delta("ppdp_cache_misses_total")
	r.set("resultcache.hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("%.0f hits of %.0f lookups", hits, hits+misses))
	r.set("jobs.queue_wait_ms", mean("ppdp_jobs_queue_wait_seconds", "")*1000, "ms", "/metrics")
	r.set("jobs.run_ms", runMS, "ms", "/metrics, client runs")
	for _, alg := range []string{"mondrian", "topdown", "datafly", "anatomy", "samarati"} {
		r.set("algorithms."+alg+"_ms", tr.meanMS("engine.Run "+alg), "ms", "span around engine.Algorithm.Run")
	}
	r.set("algorithms.units_per_run", tr.unitsPerRun(), "count", "final Spec.Progress total")
	r.set("measure.groupby_ms", tr.meanMS("Table.GroupBy"), "ms", "released table")
	r.set("measure.privacy_ms", tr.meanMS("privacy.Measure"), "ms", "privacy.Measure* of one run")
	r.set("measure.ncp_ms", tr.meanMS("metrics.NCP+Discernibility"), "ms", "metrics.NCP + Discernibility")
	r.set("dataset.readcsv_ms", tr.meanMS("Family.ReadCSV"), "ms", "")
	r.set("dataset.fingerprint_ms", tr.meanMS("Table.Fingerprint"), "ms", "")
	r.set("dataset.snapshot_write_ms", tr.meanMS("Table.WriteSnapshot"), "ms", "grown table, encode only")
	r.set("store.put_table_ms", tr.meanMS("Store.PutTable"), "ms", "")
	r.set("store.apply_ms", tr.meanMS("Store.Apply"), "ms", "")
	r.set("store.fsyncs_per_op", delta("ppdp_store_wal_fsyncs_total")/ops, "count", "/metrics")
	r.set("store.write_amp", ph.writeAmp, "ratio", "new table files + WAL growth per appended CSV byte, resets' writes included")
	r.set("store.open_ms", ph.openMS, "ms", "server.Open on the finished data dir")
	r.set("reconcile.publish_per_append", delta("ppdp_reconcile_success_total")/ops, "ratio", "/metrics")
	r.set("reconcile.lag_max", float64(ph.lagMax), "count", "generations, from polls")
	r.set("go.gc_cpu_frac", ratio(proc.gcCPU, proc.totalCPU), "ratio", "runtime/metrics")
	r.set("go.gc_cycles_per_op", proc.gcCycles/ops, "count", "")
	r.set("go.alloc_objects_per_op", proc.allocObjects/ops, "count", "")
	for _, layer := range []string{"algorithms", "generalize", "dataset", "measure", "server", "store", "gc", "core", "jobs", "reconcile", "loadgen"} {
		r.set("cpu."+layer, shares[layer], "share", fmt.Sprintf("self CPU, %v profiled", cpu))
	}
	r.set("loadgen.late_p90_ms", quantile(ph.late, 0.90), "ms", "")
	r.set("trace.overhead_ratio", ratio(traced.Seconds(), plain.Seconds()), "ratio",
		fmt.Sprintf("two replays with spans over two without: %v over %v", traced.Round(time.Millisecond), plain.Round(time.Millisecond)))
	r.print()

	self := tr.selfTime()
	layers := make([]string, 0, len(self))
	var total time.Duration
	for l, d := range self {
		layers = append(layers, l)
		total += d
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("self %-12s %10.3f ms  %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(max(total, 1)))
	}
	if err := writeTrace(traceFile, tr); err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), traceFile)
	return ph.result(r, perLayer), nil
}

// timeReplay runs the workload's replay under tr with its store in dir and
// returns how long it took. Each replay starts on a collected heap, so that
// it does not pay for the garbage of the one before.
func timeReplay(b bench, tr *tracer, dir string) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := b.replay(tr, dir)
	return time.Since(start), err
}

// profiledRun runs one phase under a CPU profile written to path, with
// /metrics scraped before and after it, and returns the process's resource
// use over the phase.
func profiledRun(b bench, svc *service, d time.Duration, path string) (ph *phase, m0, m1 map[string]float64, proc procSample, err error) {
	if m0, err = svc.scrape(); err != nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close() // on error paths; the success path checks Close below
	if err = pprof.StartCPUProfile(f); err != nil {
		return
	}
	p0 := sampleProcess()
	ph = b.run(svc, d)
	proc = sampleProcess().sub(p0)
	pprof.StopCPUProfile()
	if err = f.Close(); err != nil {
		return
	}
	m1, err = svc.scrape()
	return
}

// writeTrace writes the replay's spans and per-layer self times as JSON.
func writeTrace(path string, tr *tracer) error {
	self := map[string]float64{}
	for l, d := range tr.selfTime() {
		self[l] = ms(d)
	}
	data, err := json.Marshal(map[string]any{"self_ms": self, "spans": tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sumSeries sums every scraped series of a metric: the unlabelled series
// name, or every labelled one when name carries no labels.
func sumSeries(m map[string]float64, name string) float64 {
	if strings.Contains(name, "{") {
		return m[name]
	}
	total := m[name]
	for k, v := range m {
		if strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
