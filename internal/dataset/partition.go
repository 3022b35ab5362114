package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/ppdp/ppdp/internal/parallel"
)

// EquivalenceClass is a group of row indices that share identical values on a
// set of grouping columns (normally the quasi-identifier). The Signature is
// the joined grouping-value key that defines the class.
type EquivalenceClass struct {
	// Signature is the unit-separator-joined grouping values of the class.
	Signature string
	// Values are the shared grouping values, in grouping-column order.
	Values []string
	// Rows are the indices (into the grouped table) of the class members.
	Rows []int
}

// Size returns the number of records in the class.
func (ec EquivalenceClass) Size() int { return len(ec.Rows) }

// signatureSep separates values inside an equivalence-class signature. The
// ASCII unit separator cannot appear in realistic attribute values.
const signatureSep = "\x1f"

// Signature joins grouping values into an equivalence-class key.
func Signature(values []string) string { return strings.Join(values, signatureSep) }

// SplitSignature splits an equivalence-class key back into its values.
func SplitSignature(sig string) []string { return strings.Split(sig, signatureSep) }

// GroupBy partitions the table into equivalence classes over the named
// columns. Classes are returned in deterministic order (sorted by signature)
// and each class lists its member row indices in table order.
//
// Grouping runs over the dictionary-encoded columnar view: each row's key is
// the mixed-radix combination of its interned value codes — a single uint64
// that identifies the value tuple exactly — so the hot loop does one integer
// map operation per row and allocates nothing per row. Member-row sets and
// per-class value slices are carved out of shared arenas, and the string
// signature is materialized once per class, byte-identical to the historical
// string-join implementation (which remains as groupBySignature, both as the
// fallback when the cardinality product overflows and as the reference
// implementation for equivalence tests).
func (t *Table) GroupBy(columns ...string) ([]EquivalenceClass, error) {
	cols := make([]int, len(columns))
	for i, c := range columns {
		ci, err := t.schema.Index(c)
		if err != nil {
			return nil, err
		}
		cols[i] = ci
	}
	n := t.Len()
	if n == 0 {
		return []EquivalenceClass{}, nil
	}
	k := len(cols)
	coded := make([]*CodedColumn, k)
	radix := make([]uint64, k)
	prod := uint64(1)
	for i, ci := range cols {
		cc, err := t.CodedColumn(ci)
		if err != nil {
			return nil, err
		}
		if !cc.clean {
			// A value contains a control byte: it could embed the 0x1f
			// signature separator, in which case distinct value tuples can
			// join to one signature and must be merged exactly as the
			// historical implementation merged them (and rank order is no
			// longer signature byte order). Delegate wholesale.
			return t.groupBySignature(cols)
		}
		coded[i] = cc
		card := uint64(cc.Cardinality())
		radix[i] = card
		if prod > math.MaxUint64/card {
			// The exact combined key does not fit 64 bits (astronomically
			// wide groupings only); fall back to string signatures.
			return t.groupBySignature(cols)
		}
		prod *= card
	}

	// Pass 1: assign every row to a group via its exact combined key. With a
	// scan-worker bound set (SetScanWorkers), contiguous row chunks build
	// partial group maps concurrently and merge left to right; the result is
	// byte-identical to the sequential scan for every worker count (see
	// groupAssign).
	groups, rowGroup := groupAssign(coded, radix, n, t.scanParallelism())

	// Order classes before materializing. The dictionaries are free of
	// control bytes (checked above), so the mixed-radix combination of
	// per-value lexicographic ranks orders classes exactly like a byte
	// comparison of their joined signatures would (values cannot contain the
	// 0x1f separator or anything below it): the sort compares integers
	// instead of strings.
	type ranked struct {
		rk uint64
		gi int32
	}
	perm := make([]ranked, len(groups))
	for gi, g := range groups {
		key := g.key
		rk := uint64(0)
		weight := uint64(1)
		for i := k - 1; i >= 0; i-- {
			rk += uint64(coded[i].ranks[key%radix[i]]) * weight
			weight *= radix[i]
			key /= radix[i]
		}
		perm[gi] = ranked{rk: rk, gi: int32(gi)}
	}
	slices.SortFunc(perm, func(a, b ranked) int {
		if a.rk < b.rk {
			return -1
		}
		if a.rk > b.rk {
			return 1
		}
		return 0
	})

	// Pass 2: scatter rows into one shared arena, preserving table order
	// within each class.
	rowsArena := make([]int, n)
	cursor := make([]int32, len(groups))
	off := int32(0)
	for gi := range groups {
		groups[gi].off = off
		cursor[gi] = off
		off += groups[gi].count
	}
	for r := 0; r < n; r++ {
		gi := rowGroup[r]
		rowsArena[cursor[gi]] = r
		cursor[gi]++
	}

	// Materialize classes in output order: decode each group key back into
	// value strings carved from a shared arena.
	out := make([]EquivalenceClass, len(groups))
	valuesArena := make([]string, len(groups)*k)
	for oi, p := range perm {
		g := groups[p.gi]
		values := valuesArena[oi*k : (oi+1)*k : (oi+1)*k]
		key := g.key
		for i := k - 1; i >= 0; i-- {
			values[i] = coded[i].Dict[key%radix[i]]
			key /= radix[i]
		}
		sig := Signature(values)
		if k == 0 {
			// Preserve the historical string-split behavior: grouping by no
			// columns yields Values == [""], not an empty slice.
			values = SplitSignature(sig)
		}
		out[oi] = EquivalenceClass{
			Signature: sig,
			Values:    values,
			Rows:      rowsArena[g.off : g.off+g.count : g.off+g.count],
		}
	}
	return out, nil
}

// grp is pass-1 grouping state: one entry per distinct combined key, indexed
// in first-appearance order over the table's rows.
type grp struct {
	key        uint64
	count, off int32
}

// gbPartial is one row chunk's partial grouping state. Group ids are local
// to the chunk until merge renumbers them through the accumulated
// first-appearance map.
type gbPartial struct {
	lo, hi int
	first  map[uint64]int32
	groups []grp
}

// groupByMinChunk is the smallest chunk the parallel grouping pass will
// split off; a variable so equivalence tests can force multi-chunk runs on
// small fixtures.
var groupByMinChunk = parallel.MinChunk

// groupAssign computes, for every row, the id of its group (rowGroup) and
// the per-group key/count table, with groups numbered in first-appearance
// order. workers > 1 scans contiguous row chunks concurrently into partial
// states and merges them strictly left to right.
//
// Determinism: chunk 0's local first-appearance order is by construction a
// prefix of the global one, and merging chunk i+1 renumbers its local ids
// through the accumulated map — appending genuinely new keys in their local
// (= global remaining) first-appearance order. Inductively the merged group
// numbering, counts, and row assignments equal the sequential scan's exactly
// for every worker count; byte-identity of GroupBy's output follows. Each
// chunk writes only its own rowGroup[lo:hi] segment, so the shared slice
// needs no synchronization beyond the fold's completion barrier.
func groupAssign(coded []*CodedColumn, radix []uint64, n, workers int) ([]grp, []int32) {
	rowGroup := make([]int32, n)
	scan := func(lo, hi int) (*gbPartial, error) {
		p := &gbPartial{
			lo:     lo,
			hi:     hi,
			first:  make(map[uint64]int32, (hi-lo)/4+8),
			groups: make([]grp, 0, 64),
		}
		for r := lo; r < hi; r++ {
			key := uint64(0)
			for i, cc := range coded {
				key = key*radix[i] + uint64(cc.Codes[r])
			}
			gi, ok := p.first[key]
			if !ok {
				gi = int32(len(p.groups))
				p.groups = append(p.groups, grp{key: key})
				p.first[key] = gi
			}
			p.groups[gi].count++
			rowGroup[r] = gi
		}
		return p, nil
	}
	merge := func(acc, next *gbPartial) (*gbPartial, error) {
		remap := make([]int32, len(next.groups))
		for li, g := range next.groups {
			gi, ok := acc.first[g.key]
			if !ok {
				gi = int32(len(acc.groups))
				acc.groups = append(acc.groups, grp{key: g.key})
				acc.first[g.key] = gi
			}
			acc.groups[gi].count += g.count
			remap[li] = gi
		}
		for r := next.lo; r < next.hi; r++ {
			rowGroup[r] = remap[rowGroup[r]]
		}
		acc.hi = next.hi
		return acc, nil
	}
	p, _ := parallel.Fold(n, workers, groupByMinChunk, scan, merge)
	return p.groups, rowGroup
}

// groupBySignature is the historical string-join grouping used when the
// coded-key space overflows uint64, and the reference implementation that
// coded grouping is tested against.
func (t *Table) groupBySignature(cols []int) ([]EquivalenceClass, error) {
	groups := make(map[string][]int)
	for r, row := range t.data() {
		key := make([]string, len(cols))
		for i, c := range cols {
			key[i] = row[c]
		}
		sig := Signature(key)
		groups[sig] = append(groups[sig], r)
	}
	out := make([]EquivalenceClass, 0, len(groups))
	for sig, rows := range groups {
		out = append(out, EquivalenceClass{
			Signature: sig,
			Values:    SplitSignature(sig),
			Rows:      rows,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out, nil
}

// GroupByQuasiIdentifier partitions the table into equivalence classes over
// all quasi-identifier columns of its schema.
func (t *Table) GroupByQuasiIdentifier() ([]EquivalenceClass, error) {
	return t.GroupBy(t.schema.QuasiIdentifierNames()...)
}

// ClassSizes returns the multiset of equivalence-class sizes, sorted
// ascending. It is a convenient summary for k-anonymity checks and risk
// metrics.
func ClassSizes(classes []EquivalenceClass) []int {
	out := make([]int, len(classes))
	for i, c := range classes {
		out[i] = c.Size()
	}
	sort.Ints(out)
	return out
}

// MinClassSize returns the smallest equivalence-class size, or 0 if there are
// no classes.
func MinClassSize(classes []EquivalenceClass) int {
	min := 0
	for i, c := range classes {
		if i == 0 || c.Size() < min {
			min = c.Size()
		}
	}
	return min
}

// AverageClassSize returns the mean equivalence-class size, or 0 if there are
// no classes.
func AverageClassSize(classes []EquivalenceClass) float64 {
	if len(classes) == 0 {
		return 0
	}
	total := 0
	for _, c := range classes {
		total += c.Size()
	}
	return float64(total) / float64(len(classes))
}

// SensitiveDistribution returns, for one equivalence class, the absolute
// frequency of each value of the named sensitive column among the class
// members.
//
// It counts the sensitive column's codes, so privacy checks on column-backed
// tables (full-domain candidates) never materialize rows.
func (t *Table) SensitiveDistribution(class EquivalenceClass, sensitive string) (map[string]int, error) {
	cc, err := t.CodedColumnByName(sensitive)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, r := range class.Rows {
		if r < 0 || r >= cc.Len() {
			return nil, fmt.Errorf("%w: %d (table has %d rows)", ErrRowIndex, r, cc.Len())
		}
		out[cc.Dict[cc.Codes[r]]]++
	}
	return out, nil
}
