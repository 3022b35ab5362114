package generalize_test

import (
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

// This file holds the row-rewriting recoders FullDomain and RecodeGroups
// replaced: deep-copy the table, then overwrite every recoded cell through
// SetValue. They are kept only as the reference the coded recoders are
// checked against (equivalence_test.go); their outputs are row-backed tables
// whose columns, fingerprints and snapshots are derived from the rows.

// refFullDomain is the row-rewriting full-domain recoder.
func refFullDomain(t *dataset.Table, attrs []string, hs *hierarchy.Set, node lattice.Node) (*dataset.Table, error) {
	if len(attrs) != len(node) {
		return nil, fmt.Errorf("%w: %d attributes, %d levels", generalize.ErrNodeArity, len(attrs), len(node))
	}
	out := t.Clone()
	for i, attr := range attrs {
		level := node[i]
		if level == 0 {
			continue
		}
		h, err := hs.Get(attr)
		if err != nil {
			return nil, err
		}
		col, err := t.Schema().Index(attr)
		if err != nil {
			return nil, err
		}
		cache := make(map[string]string)
		for r := 0; r < out.Len(); r++ {
			v, err := out.Value(r, col)
			if err != nil {
				return nil, err
			}
			g, ok := cache[v]
			if !ok {
				g, err = h.Generalize(v, level)
				if err != nil {
					return nil, fmt.Errorf("generalize: row %d attribute %q: %w", r, attr, err)
				}
				cache[v] = g
			}
			if err := out.SetValue(r, col, g); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// refRecodeGroups is the row-rewriting per-group recoder.
func refRecodeGroups(t *dataset.Table, attrs []string, hs *hierarchy.Set, groups [][]int) (*dataset.Table, []generalize.GroupSummary, error) {
	schema := t.Schema()
	cols := make([]int, len(attrs))
	numeric := make([]bool, len(attrs))
	for i, a := range attrs {
		c, err := schema.Index(a)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		attr, _ := schema.ByName(a)
		numeric[i] = attr.Type == dataset.Numeric
	}

	out := t.Clone()
	summaries := make([]generalize.GroupSummary, 0, len(groups))
	seen := make([]bool, t.Len())
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, nil, fmt.Errorf("generalize: group %d is empty", gi)
		}
		values := make([]string, len(attrs))
		for ai := range attrs {
			vals := make([]string, 0, len(g))
			for _, r := range g {
				if r < 0 || r >= t.Len() {
					return nil, nil, fmt.Errorf("generalize: group %d references row %d out of range", gi, r)
				}
				v, err := t.Value(r, cols[ai])
				if err != nil {
					return nil, nil, err
				}
				vals = append(vals, v)
			}
			summary, err := generalize.Summarize(attrs[ai], vals, numeric[ai], hs)
			if err != nil {
				return nil, nil, err
			}
			values[ai] = summary
		}
		for _, r := range g {
			if seen[r] {
				return nil, nil, fmt.Errorf("generalize: row %d appears in more than one group", r)
			}
			seen[r] = true
			for ai := range attrs {
				if err := out.SetValue(r, cols[ai], values[ai]); err != nil {
					return nil, nil, err
				}
			}
		}
		summaries = append(summaries, generalize.GroupSummary{Rows: append([]int(nil), g...), Values: values})
	}
	return out, summaries, nil
}
