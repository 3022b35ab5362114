// Package samarati implements Samarati's full-domain anonymization algorithm:
// a binary search on the height of the generalization lattice for the lowest
// height at which some node achieves k-anonymity with at most MaxSuppression
// records suppressed. Among the satisfying nodes of that height, the node
// suppressing the fewest records is released.
//
// A node is scored by counting, not by recoding: the search builds one
// generalize.Levels for its input, which maps every attribute's dictionary
// codes to generalized ids per hierarchy level, and asks it how many rows
// fall in classes smaller than k (generalize.Levels.RowsBelow). Only the
// chosen node is recoded with generalize.FullDomain, grouped and suppressed
// to build the release.
//
// The nodes of one height level are independent of each other, so each
// level is evaluated by a bounded worker pool (Config.Workers); the released
// node is identical for every worker count because the fewest-suppressions
// fold happens sequentially, in level order, after the pool joins.
package samarati

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/parallel"
)

// Common errors.
var (
	// ErrUnsatisfiable is returned when no lattice node achieves k-anonymity
	// within the suppression budget.
	ErrUnsatisfiable = errors.New("samarati: no generalization satisfies k-anonymity within the suppression budget")
	// ErrConfig is returned for invalid configurations.
	ErrConfig = errors.New("samarati: invalid configuration")
)

// Config controls a Samarati run.
type Config struct {
	// K is the required minimum equivalence-class size.
	K int
	// QuasiIdentifiers lists the attributes to generalize; when empty the
	// schema's quasi-identifier columns are used.
	QuasiIdentifiers []string
	// Hierarchies supplies a hierarchy for every quasi-identifier.
	Hierarchies *hierarchy.Set
	// MaxSuppression is the maximum fraction of records (0..1) that may be
	// suppressed.
	MaxSuppression float64
	// Workers bounds the pool that evaluates one height level's lattice
	// nodes concurrently. Zero uses runtime.GOMAXPROCS(0); 1 forces a
	// sequential run. The released node is identical for every count.
	Workers int
	// Progress, when non-nil, receives (done, total) after every evaluated
	// lattice node — the same unit of work the context is polled at. Total is
	// the lattice size (an upper bound: the binary search visits a subset);
	// a successful run ends with a (total, total) event. Pool workers report
	// concurrently and may interleave out of order; callers that need a
	// monotone stream wrap the sink (see engine.Monotone, which the engine
	// adapter applies).
	Progress func(done, total int)
}

// Result describes the outcome of a Samarati run.
type Result struct {
	// Table is the released table.
	Table *dataset.Table
	// Node is the chosen lattice node.
	Node lattice.Node
	// QuasiIdentifiers is the attribute order Node refers to.
	QuasiIdentifiers []string
	// SuppressedRows is the number of removed records.
	SuppressedRows int
	// Height is the chosen node's lattice height.
	Height int
	// NodesEvaluated counts how many lattice nodes were checked.
	NodesEvaluated int
}

// Anonymize runs Samarati's binary lattice search over t with no
// cancellation; it is shorthand for AnonymizeContext with a background
// context.
func Anonymize(t *dataset.Table, cfg Config) (*Result, error) {
	return AnonymizeContext(context.Background(), t, cfg)
}

// AnonymizeContext runs Samarati's binary lattice search over t. The context
// is polled once per evaluated lattice node — the search's natural unit of
// work — so a canceled or timed-out run returns ctx.Err() after at most one
// node's evaluation instead of a release.
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
	lat, err := lattice.New(qi, maxLevels)
	if err != nil {
		return nil, err
	}
	levels, err := generalize.NewLevels(t, qi, cfg.Hierarchies)
	if err != nil {
		return nil, err
	}
	budget := int(cfg.MaxSuppression * float64(t.Len()))
	report := cfg.Progress
	if report == nil {
		report = func(int, int) {}
	}
	totalNodes := lat.Size()

	var evaluated atomic.Int64
	// bestAtHeight returns the best satisfying node at height h, or nil. The
	// level's nodes are independent, so they are counted by the worker pool;
	// the fewest-suppressions fold runs sequentially afterwards, in level
	// order, so the choice is identical for every worker count.
	bestAtHeight := func(h int) (lattice.Node, int, error) {
		level := lat.NodesAtHeight(h)
		costs, err := parallel.Map(len(level), workers, func(i int) (int, error) {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("samarati: %w", err)
			}
			// The verification walk below the binary search can revisit a
			// height, so cap the reported count at the lattice size.
			report(min(int(evaluated.Add(1)), totalNodes), totalNodes)
			return levels.RowsBelow(level[i], cfg.K)
		})
		if err != nil {
			return nil, 0, err
		}
		var best lattice.Node
		bestSuppress := -1
		for i, suppress := range costs {
			if suppress <= budget && (bestSuppress == -1 || suppress < bestSuppress) {
				best = level[i].Clone()
				bestSuppress = suppress
			}
		}
		return best, bestSuppress, nil
	}

	// Binary search the minimal height with a satisfying node. Satisfiability
	// is monotone in height only in the weak sense used by Samarati: the top
	// node maximally generalizes, so if it fails nothing succeeds; the search
	// still verifies the found layer exactly.
	lo, hi := 0, lat.MaxHeight()
	var found lattice.Node
	foundSuppress := 0
	foundHeight := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		node, suppress, err := bestAtHeight(mid)
		if err != nil {
			return nil, err
		}
		if node != nil {
			found, foundSuppress, foundHeight = node, suppress, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if found == nil {
		return nil, fmt.Errorf("%w (k=%d, budget=%d rows)", ErrUnsatisfiable, cfg.K, budget)
	}
	// The binary search can overshoot when satisfiability is not perfectly
	// monotone across heights; walk down from the found height to the first
	// height where no node satisfies, keeping the lowest satisfying layer.
	for h := foundHeight - 1; h >= 0; h-- {
		node, suppress, err := bestAtHeight(h)
		if err != nil {
			return nil, err
		}
		if node == nil {
			break
		}
		found, foundSuppress, foundHeight = node, suppress, h
	}

	released, err := apply(t, qi, cfg.Hierarchies, found, cfg.K)
	if err != nil {
		return nil, err
	}
	report(totalNodes, totalNodes)
	return &Result{
		Table:            released,
		Node:             found,
		QuasiIdentifiers: append([]string(nil), qi...),
		SuppressedRows:   foundSuppress,
		Height:           foundHeight,
		NodesEvaluated:   int(evaluated.Load()),
	}, nil
}

// apply produces the released table for node, suppressing undersized classes.
func apply(t *dataset.Table, qi []string, hs *hierarchy.Set, node lattice.Node, k int) (*dataset.Table, error) {
	recoded, err := generalize.FullDomain(t, qi, hs, node)
	if err != nil {
		return nil, err
	}
	classes, err := recoded.GroupBy(qi...)
	if err != nil {
		return nil, err
	}
	var drop []int
	for _, c := range classes {
		if c.Size() < k {
			drop = append(drop, c.Rows...)
		}
	}
	return generalize.SuppressRows(recoded, drop)
}
