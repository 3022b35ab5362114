// Package datafly implements Sweeney's Datafly algorithm: a greedy
// full-domain generalization heuristic that repeatedly generalizes the
// quasi-identifier attribute with the most distinct values until the table is
// k-anonymous up to a bounded amount of record suppression.
//
// Rounds are scored by counting, not by recoding: the run builds one
// generalize.Levels for its input, which maps every attribute's dictionary
// codes to generalized ids per hierarchy level. A round asks it how many rows
// fall in classes smaller than k at the current node
// (generalize.Levels.RowsBelow), and the attribute with the most distinct
// values is read off its per-level cardinalities. Only the final node is
// recoded with generalize.FullDomain, grouped and suppressed to build the
// release.
package datafly

import (
	"context"
	"errors"
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
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

	levels, err := generalize.NewLevels(t, qi, cfg.Hierarchies)
	if err != nil {
		return nil, err
	}
	node := make(lattice.Node, len(qi))
	// The first round counts the input itself; every later round counts the
	// node the previous round stepped to.
	violating, err := levels.RowsBelow(node, cfg.K)
	if err != nil {
		return nil, err
	}
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("datafly: %w", err)
		}
		report(iterations, totalRounds)
		if violating <= budget {
			// Recode from the original table, so hierarchy levels stay
			// aligned with original values.
			recoded, err := generalize.FullDomain(t, qi, cfg.Hierarchies, node)
			if err != nil {
				return nil, err
			}
			classes, err := recoded.GroupBy(qi...)
			if err != nil {
				return nil, err
			}
			drop := violatingRows(classes, cfg.K)
			released, err := generalize.SuppressRows(recoded, drop)
			if err != nil {
				return nil, err
			}
			report(totalRounds, totalRounds)
			return &Result{
				Table:            released,
				Node:             node,
				QuasiIdentifiers: append([]string(nil), qi...),
				SuppressedRows:   len(drop),
				Iterations:       iterations,
			}, nil
		}
		// Generalize the attribute with the most distinct values, among
		// attributes that still have headroom; ties go to the earliest
		// attribute.
		pick := -1
		maxDistinct := -1
		for i := range qi {
			if node[i] >= maxLevels[i] {
				continue
			}
			if n := levels.Cardinality(i, node[i]); n > maxDistinct {
				maxDistinct = n
				pick = i
			}
		}
		if pick == -1 {
			return nil, fmt.Errorf("%w: %d records still violate %d-anonymity at full generalization (budget %d)",
				ErrUnsatisfiable, violating, cfg.K, budget)
		}
		node[pick]++
		iterations++
		if violating, err = levels.RowsBelow(node, cfg.K); err != nil {
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
