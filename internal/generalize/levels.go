package generalize

import (
	"fmt"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
)

// Levels is the level table of one full-domain lattice search over a fixed
// input and quasi-identifier: for every attribute and every hierarchy level
// it maps the input's dictionary codes to dense generalized ids. A search
// builds it once, calling Hierarchy.Generalize once per distinct value and
// level, and then scores any number of lattice nodes with the class-count
// kernel (dataset.CountClasses) instead of recoding and grouping the table
// per node. Its answers equal those of FullDomain followed by GroupBy,
// errors included. A Levels is read-only once built and safe for concurrent
// use.
type Levels struct {
	t     *dataset.Table
	attrs []string
	hs    *hierarchy.Set
	// codes[i] are the input codes of attribute i.
	codes [][]uint32
	// levels[i][l] describes attribute i generalized to level l.
	levels [][]level
	// tableOnly sends every node to the FullDomain + GroupBy path: an
	// attribute is listed twice, and FullDomain then generalizes it twice.
	tableOnly bool
}

// level is one attribute generalized to one hierarchy level.
type level struct {
	// remap maps an input code to its generalized id, numbered in first
	// appearance order (the codes FullDomain gives the recoded column); nil
	// at level 0, where ids are the input codes.
	remap []uint32
	// card is the number of distinct values at this level.
	card int
	// safe reports that no generalized value holds a control byte, so
	// GroupBy on the recoding groups exact value tuples.
	safe bool
	// err is the error FullDomain raises for this level, if any.
	err error
}

// NewLevels builds the level table of t for the quasi-identifier attrs, one
// entry per attribute and level from 0 to the hierarchy's maximum.
func NewLevels(t *dataset.Table, attrs []string, hs *hierarchy.Set) (*Levels, error) {
	l := &Levels{
		t:      t,
		attrs:  append([]string(nil), attrs...),
		hs:     hs,
		codes:  make([][]uint32, len(attrs)),
		levels: make([][]level, len(attrs)),
	}
	seen := make(map[string]bool, len(attrs))
	for i, attr := range attrs {
		if seen[attr] {
			l.tableOnly = true
		}
		seen[attr] = true
		src, err := t.CodedColumnByName(attr)
		if err != nil {
			return nil, err
		}
		h, err := hs.Get(attr)
		if err != nil {
			return nil, err
		}
		l.codes[i] = src.Codes
		lv := make([]level, h.MaxLevel()+1)
		lv[0] = level{card: src.Cardinality(), safe: dataset.SignatureSafe(src.Dict)}
		for g := 1; g < len(lv); g++ {
			lv[g] = generalizeLevel(src, attr, h, g)
		}
		l.levels[i] = lv
	}
	return l, nil
}

// generalizeLevel maps src's dictionary to attribute attr at level g.
func generalizeLevel(src *dataset.CodedColumn, attr string, h hierarchy.Hierarchy, g int) level {
	var in interner
	remap := make([]uint32, src.Cardinality())
	var fails []error
	for code, v := range src.Dict {
		gen, err := h.Generalize(v, g)
		if err != nil {
			if fails == nil {
				fails = make([]error, len(remap))
			}
			fails[code] = err
			continue
		}
		remap[code] = in.intern(gen)
	}
	if fails != nil {
		// The first row holding an ungeneralizable value, as FullDomain
		// reports it.
		for r, code := range src.Codes {
			if fails[code] != nil {
				return level{err: fmt.Errorf("generalize: row %d attribute %q: %w", r, attr, fails[code])}
			}
		}
	}
	return level{remap: remap, card: len(in.dict), safe: dataset.SignatureSafe(in.dict)}
}

// Cardinality returns the number of distinct values attribute i (in the
// order NewLevels was given) takes at the given level: the size of the
// recoded column's domain.
func (l *Levels) Cardinality(i, lvl int) int { return l.levels[i][lvl].card }

// RowsBelow returns the number of rows that fall in equivalence classes
// smaller than k once the input is generalized to node: the rows a
// full-domain search suppresses at that node. It counts on the level table;
// where GroupBy groups by something other than exact value tuples (a
// generalized value holds a control byte), or the node lies outside the
// table, it recodes with FullDomain and groups with GroupBy instead, so the
// answer and any error are always those of that path.
func (l *Levels) RowsBelow(node lattice.Node, k int) (int, error) {
	if len(node) != len(l.attrs) {
		return 0, fmt.Errorf("%w: %d attributes, %d levels", ErrNodeArity, len(l.attrs), len(node))
	}
	keys := make([]dataset.ClassKey, len(node))
	counted := !l.tableOnly
	for i, g := range node {
		if !counted || g < 0 || g >= len(l.levels[i]) {
			// FullDomain reports whatever error comes first from here on.
			counted = false
			break
		}
		e := &l.levels[i][g]
		if e.err != nil {
			return 0, e.err
		}
		counted = e.safe
		keys[i] = dataset.ClassKey{Codes: l.codes[i], Remap: e.remap, Card: e.card}
	}
	if counted {
		if rows, ok := dataset.RowsBelow(l.t.Len(), keys, k); ok {
			return rows, nil
		}
	}
	recoded, err := FullDomain(l.t, l.attrs, l.hs, node)
	if err != nil {
		return 0, err
	}
	rows := 0
	err = recoded.EachClassSize(func(size int) {
		if size < k {
			rows += size
		}
	}, l.attrs...)
	return rows, err
}
