// Package datafly implements Sweeney's Datafly algorithm: a greedy
// full-domain generalization heuristic that repeatedly generalizes the
// quasi-identifier attribute with the most distinct values until the table is
// k-anonymous up to a bounded amount of record suppression.
// Each round's generalization candidates — the distinct-value counts of the
// quasi-identifier attributes — are independent of each other, so they are
// scored by a bounded worker pool (Config.Workers); the picked attribute is
// identical for every worker count because the tie-breaking fold happens
// sequentially, in attribute order, after the pool joins.
package datafly

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Common errors.
var (
	// ErrUnsatisfiable is returned when even full generalization with the
	// allowed suppression budget cannot reach k-anonymity.
	ErrUnsatisfiable = errors.New("datafly: k-anonymity not reachable within the suppression budget")
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("datafly: invalid configuration")
)

// Config controls a Datafly run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// MaxSuppression is the maximum fraction of records (0..1) that may be
	// removed instead of generalized further. Sweeney's original heuristic
	// allows suppressing up to k records; expressing the budget as a
	// fraction matches how the experiments sweep it.
	MaxSuppression float64
	// Workers bounds the pool that scores one round's generalization
	// candidates concurrently. Zero uses runtime.GOMAXPROCS(0); 1 forces a
	// sequential run. The released table is identical for every count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every
	// generalization round — the same unit of work the context is polled at.
	// Total is the worst-case round count (one per hierarchy level across the
	// quasi-identifier, plus the final check); a successful run ends with a
	// (total, total) event.
	Progress func(done, total int)
}

// Result describes the outcome of a Datafly run.
type Result struct {
	// Table is the released, generalized (and possibly row-suppressed) table.
	Table *dataset.Table
	// Node is the full-domain generalization level per quasi-identifier, in
	// QuasiIdentifiers order.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// SuppressedRows is the number of records removed.
	SuppressedRows int
	// Iterations is the number of generalization steps performed.
	Iterations int
}

// Anonymize runs Datafly over t with no cancellation; it is shorthand for
// AnonymizeContext with a background context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs Datafly over t. The context is polled once per
// generalization round — the algorithm's natural unit of work — so a
// canceled or timed-out run returns ctx.Err() after at most one round
// instead of a release.
func AnonymizeContext(ctx context.Context, t *dataset.Table, cfg Config) (*Result, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("%w: k = %d", ErrConfig, cfg.K)
	}
	if cfg.Hierarchies == nil {
		return nil, fmt.Errorf("%w: nil hierarchy set", ErrConfig)
	}
	if cfg.MaxSuppression < 0 || cfg.MaxSuppression > 1 {
		return nil, fmt.Errorf("%w: max suppression %v", ErrConfig, cfg.MaxSuppression)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: workers = %d", ErrConfig, cfg.Workers)
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	qi := cfg.QuasiIdentifiers
	if len(qi) == 0 {
		qi = t.Schema().QuasiIdentifierNames()
	}
	if len(qi) == 0 {
		return nil, fmt.Errorf("%w: no quasi-identifier attributes", ErrConfig)
	}
	maxLevels, err := cfg.Hierarchies.MaxLevels(qi)
	if err != nil {
		return nil, err
	}
	budget := int(cfg.MaxSuppression * float64(t.Len()))
	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	// Worst case the heuristic generalizes one attribute level per round
	// until every attribute tops out, then runs one final check round.
	totalRounds := 1
	for _, m := range maxLevels {
		totalRounds += m
	}

	node := make(lattice.Node, len(qi))
	// The first round groups the input itself; every later round reads a
	// fresh recoding, so t is never modified.
	current := t
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("datafly: %w", err)
		}
		report(iterations, totalRounds)
		classes, err := current.GroupBy(qi...)
		if err != nil {
			return nil, err
		}
		violating := violatingRows(classes, cfg.K)
		if len(violating) <= budget {
			released, err := generalize.SuppressRows(current, violating)
			if err != nil {
				return nil, err
			}
			report(totalRounds, totalRounds)
			return &Result{
				Table:            released,
				Node:             node,
				QuasiIdentifiers: append([]string(nil), qi...),
				SuppressedRows:   len(violating),
				Iterations:       iterations,
			}, nil
		}
		// Generalize the attribute with the most distinct values, among
		// attributes that still have headroom. Candidates are scored by the
		// worker pool (each candidate's count is independent of the others);
		// the tie-breaking fold runs sequentially in attribute order, so the
		// pick is identical for every worker count.
		counts, err := parallel.Map(len(qi), workers, func(i int) (int, error) {
			if node[i] >= maxLevels[i] {
				return -1, nil
			}
			dom, err := current.Domain(qi[i])
			if err != nil {
				return 0, err
			}
			return len(dom), nil
		})
		if err != nil {
			return nil, err
		}
		pick := -1
		maxDistinct := -1
		for i, n := range counts {
			if n < 0 {
				continue
			}
			if n > maxDistinct {
				maxDistinct = n
				pick = i
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("%w: %d records still violate %d-anonymity at full generalization (budget %d)",
				ErrUnsatisfiable, len(violating), cfg.K, budget)
		}
		node[pick]++
		iterations++
		// Re-apply the full-domain recoding from the original table so that
		// hierarchy levels stay aligned with original values.
		current, err = generalize.FullDomain(t, qi, cfg.Hierarchies, node)
		if err != nil {
			return nil, err
		}
	}
}

// violatingRows returns the row indices of all classes smaller than k.
func violatingRows(classes []dataset.EquivalenceClass, k int) []int {
	var out []int
	for _, c := range classes {
		if c.Size() < k {
			out = append(out, c.Rows...)
		}
	}
	return out
}
