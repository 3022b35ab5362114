// Package generalize applies recodings to tables: full-domain generalization
// driven by a lattice node, record suppression, cell suppression, and
// multidimensional (per-group) recoding used by partitioning algorithms such
// as Mondrian and k-member clustering.
package generalize

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

// ErrNodeArity is returned when a lattice node does not have one level per
// quasi-identifier attribute.
var ErrNodeArity = errors.New("generalize: node arity does not match attribute count")

// FullDomain applies the full-domain recoding described by node: the i-th
// quasi-identifier attribute in attrs is generalized to level node[i] using
// its hierarchy. All other columns are left untouched. The input table is not
// modified.
//
// The result is a column-backed table (dataset.FromCodedColumns): every
// distinct value of a recoded column is generalized once, the codes are
// remapped into a first-appearance dictionary — the one Table.CodedColumn
// would build from the recoded rows — and untouched columns share the
// input's coded columns. String rows are built only if a caller asks for
// them.
func FullDomain(t *dataset.Table, attrs []string, hs *hierarchy.Set, node lattice.Node) (*dataset.Table, error) {
	if len(attrs) != len(node) {
		return nil, fmt.Errorf("%w: %d attributes, %d levels", ErrNodeArity, len(attrs), len(node))
	}
	cols, err := codedColumns(t)
	if err != nil {
		return nil, err
	}
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
		src := cols[col]
		gen := make([]string, src.Cardinality())
		var fails []error
		for code, v := range src.Dict {
			g, err := h.Generalize(v, level)
			if err != nil {
				if fails == nil {
					fails = make([]error, len(gen))
				}
				fails[code] = err
				continue
			}
			gen[code] = g
		}
		if fails != nil {
			// Report the first row holding an ungeneralizable value, as a
			// row-order scan would.
			for r, code := range src.Codes {
				if fails[code] != nil {
					return nil, fmt.Errorf("generalize: row %d attribute %q: %w", r, attr, fails[code])
				}
			}
		}
		memo := unsetCodes(len(gen))
		var in interner
		codes := make([]uint32, len(src.Codes))
		for r, old := range src.Codes {
			code := memo[old]
			if code == unset {
				code = in.intern(gen[old])
				memo[old] = code
			}
			codes[r] = code
		}
		cols[col] = dataset.NewCodedColumn(codes, in.dict)
	}
	return columnTable(t, cols)
}

// codedColumns returns the coded view of every column of t.
func codedColumns(t *dataset.Table) ([]*dataset.CodedColumn, error) {
	cols := make([]*dataset.CodedColumn, t.Schema().Len())
	for j := range cols {
		cc, err := t.CodedColumn(j)
		if err != nil {
			return nil, err
		}
		cols[j] = cc
	}
	return cols, nil
}

// columnTable builds the column-backed result of a recoding of t.
func columnTable(t *dataset.Table, cols []*dataset.CodedColumn) (*dataset.Table, error) {
	out, err := dataset.FromCodedColumns(t.Schema(), cols)
	if err != nil {
		return nil, err
	}
	out.SetScanWorkers(t.ScanWorkers())
	return out, nil
}

// unset marks a memo slot whose new code is not known yet.
const unset = ^uint32(0)

// unsetCodes returns n memo slots, all unset.
func unsetCodes(n int) []uint32 {
	memo := make([]uint32, n)
	for i := range memo {
		memo[i] = unset
	}
	return memo
}

// interner numbers values in the order they are first interned. Recoders
// intern each row's value in row order (through a memo, so each distinct
// source value is looked up once), which yields the first-appearance
// dictionary Table.CodedColumn would build from the recoded rows.
type interner struct {
	index map[string]uint32
	dict  []string
}

func (in *interner) intern(v string) uint32 {
	if code, ok := in.index[v]; ok {
		return code
	}
	if in.index == nil {
		in.index = make(map[string]uint32)
	}
	code := uint32(len(in.dict))
	in.dict = append(in.dict, v)
	in.index[v] = code
	return code
}

// SuppressRows returns a copy of the table with the given row indices
// removed. The indices of all other rows shift accordingly.
func SuppressRows(t *dataset.Table, drop []int) (*dataset.Table, error) {
	dropped := make(map[int]bool, len(drop))
	for _, i := range drop {
		if i < 0 || i >= t.Len() {
			return nil, fmt.Errorf("generalize: suppress row %d out of range", i)
		}
		dropped[i] = true
	}
	keep := make([]int, 0, t.Len()-len(dropped))
	for i := 0; i < t.Len(); i++ {
		if !dropped[i] {
			keep = append(keep, i)
		}
	}
	return t.Select(keep)
}

// SuppressCells overwrites the named columns of the given rows with the
// suppression marker "*". It modifies a copy and returns it.
func SuppressCells(t *dataset.Table, rows []int, attrs []string) (*dataset.Table, error) {
	out := t.Clone()
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		c, err := t.Schema().Index(a)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}
	for _, r := range rows {
		for _, c := range cols {
			if err := out.SetValue(r, c, dataset.SuppressedValue); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// GroupSummary describes the recoded quasi-identifier values shared by one
// group of rows under multidimensional recoding.
type GroupSummary struct {
	// Rows are the member row indices in the original table.
	Rows []int
	// Values holds one recoded value per quasi-identifier attribute, in the
	// order the attrs argument was given.
	Values []string
}

// RecodeGroups performs multidimensional (per-group) recoding: every group of
// row indices becomes one equivalence class whose quasi-identifier values are
// replaced by a summary of the group's values — a "[lo-hi)" interval for
// numeric attributes (or the single value when all members agree) and the
// lowest common generalization for categorical attributes (falling back to a
// brace-enclosed value set when no hierarchy is available).
//
// It returns the recoded table together with the per-group summaries.
func RecodeGroups(t *dataset.Table, attrs []string, hs *hierarchy.Set, groups [][]int) (*dataset.Table, []GroupSummary, error) {
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

	src, err := codedColumns(t)
	if err != nil {
		return nil, nil, err
	}
	n := t.Len()
	// rowGroup[r] is the index of the group covering row r, or -1.
	rowGroup := make([]int32, n)
	for r := range rowGroup {
		rowGroup[r] = -1
	}
	summaries := make([]GroupSummary, 0, len(groups))
	for gi, g := range groups {
		if len(g) == 0 {
			return nil, nil, fmt.Errorf("generalize: group %d is empty", gi)
		}
		values := make([]string, len(attrs))
		vals := make([]string, 0, len(g))
		for ai := range attrs {
			cc := src[cols[ai]]
			vals = vals[:0]
			for _, r := range g {
				if r < 0 || r >= n {
					return nil, nil, fmt.Errorf("generalize: group %d references row %d out of range", gi, r)
				}
				vals = append(vals, cc.Dict[cc.Codes[r]])
			}
			summary, err := summarize(attrs[ai], vals, numeric[ai], hs)
			if err != nil {
				return nil, nil, err
			}
			values[ai] = summary
		}
		for _, r := range g {
			if r < 0 || r >= n {
				return nil, nil, fmt.Errorf("generalize: group %d references row %d out of range", gi, r)
			}
			if rowGroup[r] >= 0 {
				return nil, nil, fmt.Errorf("generalize: row %d appears in more than one group", r)
			}
			rowGroup[r] = int32(gi)
		}
		summaries = append(summaries, GroupSummary{Rows: append([]int(nil), g...), Values: values})
	}

	// Each recoded column holds one value per group; rows outside every
	// group keep their original value.
	out := append([]*dataset.CodedColumn(nil), src...)
	for ai, c := range cols {
		orig := src[c]
		groupMemo, origMemo := unsetCodes(len(groups)), unsetCodes(orig.Cardinality())
		var in interner
		codes := make([]uint32, n)
		for r, old := range orig.Codes {
			var code uint32
			if g := rowGroup[r]; g >= 0 {
				if code = groupMemo[g]; code == unset {
					code = in.intern(summaries[g].Values[ai])
					groupMemo[g] = code
				}
			} else if code = origMemo[old]; code == unset {
				code = in.intern(orig.Dict[old])
				origMemo[old] = code
			}
			codes[r] = code
		}
		out[c] = dataset.NewCodedColumn(codes, in.dict)
	}
	released, err := columnTable(t, out)
	if err != nil {
		return nil, nil, err
	}
	return released, summaries, nil
}

// summarize recodes one attribute's group values into a single released value.
func summarize(attr string, vals []string, isNumeric bool, hs *hierarchy.Set) (string, error) {
	if allEqual(vals) {
		return vals[0], nil
	}
	if isNumeric {
		lo, hi, ok := numericSpan(vals)
		if ok {
			// Intervals are half-open; widen the upper bound to include the max.
			return hierarchy.FormatInterval(lo, hi+1, isIntegral(vals)), nil
		}
	}
	if hs != nil && hs.Has(attr) {
		h, err := hs.Get(attr)
		if err != nil {
			return "", err
		}
		if g, ok := lowestCommonGeneralization(h, vals); ok {
			return g, nil
		}
	}
	return valueSet(vals), nil
}

func allEqual(vals []string) bool {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return false
		}
	}
	return true
}

func numericSpan(vals []string) (lo, hi float64, ok bool) {
	for i, v := range vals {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 0 || f < lo {
			lo = f
		}
		if i == 0 || f > hi {
			hi = f
		}
	}
	return lo, hi, true
}

func isIntegral(vals []string) bool {
	for _, v := range vals {
		if strings.ContainsAny(v, ".eE") {
			return false
		}
	}
	return true
}

// lowestCommonGeneralization finds the smallest hierarchy level at which all
// values share a generalization, returning that shared value.
func lowestCommonGeneralization(h hierarchy.Hierarchy, vals []string) (string, bool) {
	for level := 1; level <= h.MaxLevel(); level++ {
		g0, err := h.Generalize(vals[0], level)
		if err != nil {
			return "", false
		}
		same := true
		for _, v := range vals[1:] {
			g, err := h.Generalize(v, level)
			if err != nil {
				return "", false
			}
			if g != g0 {
				same = false
				break
			}
		}
		if same {
			return g0, true
		}
	}
	return "", false
}

// valueSet renders distinct values as a sorted brace-enclosed set.
func valueSet(vals []string) string {
	set := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		set[v] = struct{}{}
	}
	distinct := make([]string, 0, len(set))
	for v := range set {
		distinct = append(distinct, v)
	}
	sort.Strings(distinct)
	return "{" + strings.Join(distinct, ",") + "}"
}
