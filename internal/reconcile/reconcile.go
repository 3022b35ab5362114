// Package reconcile keeps stored release specs continuously in sync with
// their datasets: a spec (dataset, policy, algorithm) is desired state, and
// the manager re-publishes the spec's release whenever the dataset moves to
// a new generation, in the style of a Kubernetes controller.
//
// The manager owns only the runtime half of the control loop — per-spec
// serialization (one reconciliation in flight per spec, with a dirty mark
// for notifications that arrive mid-run), exponential backoff after
// failures, the byte-identical fingerprint short-circuit, and the outcome
// counters exported as ppdp_reconcile_* metrics. Everything durable (the
// spec record, the release swap, the m-invariance history) lives behind the
// Engine interface the HTTP server implements on its registry, so the
// control loop is testable against a fake in microseconds.
package reconcile

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Engine is the reconciler's view of the system it drives. All methods are
// called without manager locks held and may block.
type Engine interface {
	// Enqueue schedules run on the execution backend (the server's job
	// executor). The callback receives the job's context; Enqueue returning
	// an error (queue saturated) counts as a failed reconciliation and
	// backs off.
	Enqueue(spec string, run func(ctx context.Context)) error
	// Publish runs one reconciliation of the spec against the dataset's
	// current state and atomically swaps the spec's release. It returns the
	// dataset generation and content fingerprint the new release reflects.
	Publish(ctx context.Context, spec string) (gen uint64, fp string, err error)
	// Noop records that the spec is reconciled with the given dataset
	// generation without a new release: the dataset's bytes are identical
	// to what the current release was built from. Implementations persist
	// the generation bump so the short-circuit survives a restart.
	Noop(spec string, gen uint64, fp string) error
}

// Config tunes a Manager.
type Config struct {
	// Engine executes reconciliations. Required.
	Engine Engine
	// BackoffBase is the first retry delay after a failure (default 500ms);
	// subsequent failures double it up to BackoffMax (default 1m).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Logf, when non-nil, receives one line per reconciliation outcome.
	Logf func(format string, args ...any)
}

// Status is the runtime state of one tracked spec, surfaced on
// GET /v1/specs/{name}.
type Status struct {
	// State is "idle", "running" (enqueued or executing) or "backoff"
	// (failed, waiting to retry).
	State string
	// Retries is the number of consecutive failed reconciliations.
	Retries int
	// LastError is the most recent failure ("" after a success).
	LastError string
	// DatasetGeneration is the latest dataset generation the manager has
	// been notified of; ReconciledGeneration is the one the spec's release
	// reflects. Their difference is the spec's lag.
	DatasetGeneration     uint64
	ReconciledGeneration  uint64
	ReconciledFingerprint string
}

// Stats is an aggregate snapshot of the control loop, exported as
// ppdp_reconcile_* metrics and the /healthz reconcile block.
type Stats struct {
	// Specs is the number of tracked specs.
	Specs int
	// Success, Noop and Errors count finished reconciliation runs by
	// outcome (a noop is the fingerprint short-circuit).
	Success int64
	Noop    int64
	Errors  int64
	// Retries counts backoff retries scheduled after failures.
	Retries int64
	// Lag is the summed generation lag over all tracked specs.
	Lag uint64
}

// state is the runtime record of one tracked spec.
type state struct {
	name    string
	dataset string

	latestGen  uint64 // dataset generation per the last notification
	latestFP   string
	reconGen   uint64 // generation the spec's release reflects
	reconFP    string
	inflight   bool
	retries    int
	lastError  string
	retryTimer *time.Timer
}

// Manager runs the reconciliation control loop.
type Manager struct {
	engine  Engine
	base    time.Duration
	max     time.Duration
	logf    func(format string, args ...any)
	mu      sync.Mutex
	specs   map[string]*state
	success int64
	noop    int64
	errors  int64
	retried int64
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Manager. It panics on a nil engine — a programmer error.
func New(cfg Config) *Manager {
	if cfg.Engine == nil {
		panic("reconcile: New with nil Engine")
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 500 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Manager{
		engine: cfg.Engine,
		base:   cfg.BackoffBase,
		max:    cfg.BackoffMax,
		logf:   cfg.Logf,
		specs:  make(map[string]*state),
	}
}

// Track registers a spec with the manager: dataset names the watched
// dataset, datasetGen/datasetFP its current generation and fingerprint, and
// reconGen/reconFP the generation and fingerprint the spec's stored release
// reflects (zero values for a brand-new spec). When the dataset is already
// ahead — a spec recovered from storage after appends it never saw —
// reconciliation starts immediately.
func (m *Manager) Track(name, dataset string, datasetGen uint64, datasetFP string, reconGen uint64, reconFP string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	st := &state{
		name:      name,
		dataset:   dataset,
		latestGen: datasetGen,
		latestFP:  datasetFP,
		reconGen:  reconGen,
		reconFP:   reconFP,
	}
	m.specs[name] = st
	m.kickLocked(st)
}

// Forget stops tracking a spec (deleted). An in-flight run finishes but its
// outcome is dropped.
func (m *Manager) Forget(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.specs[name]
	if !ok {
		return
	}
	if st.retryTimer != nil {
		st.retryTimer.Stop()
	}
	delete(m.specs, name)
}

// Notify reports that a dataset moved to a new generation with the given
// content fingerprint. Every spec watching it is re-checked. Callers must
// not hold locks the Engine implementation takes (the server notifies after
// releasing its registry lock).
func (m *Manager) Notify(dataset string, gen uint64, fp string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	for _, st := range m.specs {
		if st.dataset != dataset {
			continue
		}
		if gen > st.latestGen {
			st.latestGen, st.latestFP = gen, fp
		}
		m.kickLocked(st)
	}
}

// Status returns the runtime state of one tracked spec.
func (m *Manager) Status(name string) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.specs[name]
	if !ok {
		return Status{}, false
	}
	out := Status{
		State:                 "idle",
		Retries:               st.retries,
		LastError:             st.lastError,
		DatasetGeneration:     st.latestGen,
		ReconciledGeneration:  st.reconGen,
		ReconciledFingerprint: st.reconFP,
	}
	switch {
	case st.inflight:
		out.State = "running"
	case st.retryTimer != nil:
		out.State = "backoff"
	}
	return out, true
}

// Stats returns the aggregate control-loop snapshot.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Specs:   len(m.specs),
		Success: m.success,
		Noop:    m.noop,
		Errors:  m.errors,
		Retries: m.retried,
	}
	for _, st := range m.specs {
		if st.latestGen > st.reconGen {
			s.Lag += st.latestGen - st.reconGen
		}
	}
	return s
}

// Close stops the control loop: pending retries are canceled and in-flight
// runs are waited for. Tracked state is retained for Status readers.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	for _, st := range m.specs {
		if st.retryTimer != nil {
			st.retryTimer.Stop()
			st.retryTimer = nil
		}
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// kickLocked starts a reconciliation for st if one is needed and none is in
// flight. Called with m.mu held.
func (m *Manager) kickLocked(st *state) {
	if m.closed || st.inflight || st.retryTimer != nil {
		return // finish() re-kicks, so a mid-run notification is never lost
	}
	if st.latestGen <= st.reconGen {
		return // in sync
	}
	// Fingerprint short-circuit: the dataset moved to a new generation but
	// its bytes are identical (a PUT replace with the same content), so the
	// current release already reflects it. Record the bump durably without
	// burning an executor run.
	if st.latestFP == st.reconFP && st.latestFP != "" {
		gen, fp, name := st.latestGen, st.latestFP, st.name
		st.inflight = true
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			err := m.engine.Noop(name, gen, fp)
			m.finish(name, gen, fp, true, err)
		}()
		return
	}
	st.inflight = true
	name := st.name
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := m.engine.Enqueue(name, func(ctx context.Context) {
			gen, fp, err := m.engine.Publish(ctx, name)
			m.finish(name, gen, fp, false, err)
		})
		if err != nil {
			// The executor refused the job (saturated queue): count it as a
			// failed run and retry on the backoff schedule.
			m.finish(name, 0, "", false, fmt.Errorf("enqueue: %w", err))
		}
	}()
}

// finish settles one reconciliation outcome and re-kicks if the spec went
// dirty mid-run or is still lagging. The outcome is logged after m.mu is
// released, so a slow Logf never stalls other specs' settles or Status.
func (m *Manager) finish(name string, gen uint64, fp string, noop bool, err error) {
	if format, args := m.settle(name, gen, fp, noop, err); format != "" {
		m.logf(format, args...)
	}
}

// settle records one outcome under m.mu and returns the log line finish
// emits (an empty format when the spec was forgotten mid-run).
func (m *Manager) settle(name string, gen uint64, fp string, noop bool, err error) (format string, args []any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.specs[name]
	if !ok {
		return "", nil // forgotten mid-run
	}
	st.inflight = false
	if err != nil {
		m.errors++
		st.retries++
		st.lastError = err.Error()
		delay := m.backoff(st.retries)
		if !m.closed {
			m.retried++
			st.retryTimer = time.AfterFunc(delay, func() { m.retry(name) })
		}
		return "reconcile %s: attempt %d failed (retry in %s): %v", []any{name, st.retries, delay, err}
	}
	st.retries = 0
	st.lastError = ""
	if gen > st.reconGen {
		st.reconGen, st.reconFP = gen, fp
	}
	m.kickLocked(st)
	if noop {
		m.noop++
		return "reconcile %s: noop (dataset generation %d byte-identical)", []any{name, gen}
	}
	m.success++
	return "reconcile %s: reconciled to dataset generation %d", []any{name, gen}
}

// retry fires when a backoff timer expires.
func (m *Manager) retry(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.specs[name]
	if !ok {
		return
	}
	st.retryTimer = nil
	m.kickLocked(st)
}

// backoff returns the delay before retry attempt n (1-based): base doubling
// per failure, capped at max.
func (m *Manager) backoff(n int) time.Duration {
	d := m.base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= m.max {
			return m.max
		}
	}
	if d > m.max {
		return m.max
	}
	return d
}
