package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the columnar views of a Table. Cells are strings (so
// generalized values like "[20-30)" remain first-class), held in one of two
// storage forms:
//
//   - Row-backed tables (FromRows, ReadCSV, every mutated table) keep string
//     rows as the source of truth and build typed columns lazily.
//   - Column-backed tables (FromCodedColumns: snapshots, full-domain and
//     per-group recodings, Concat, every projection, and selections of
//     column-backed tables) hold one CodedColumn per attribute and build
//     string rows only if a caller asks for rows (Row, Rows, Clone, a
//     mutation and so on; see rowSource). Grouping, fingerprints, domains,
//     frequencies, sensitive distributions, Select, Project and Concat read
//     the codes directly. A projection shares its parent's coded columns
//     (coding a row-backed parent's kept columns on the parent, once).
//
// Hot paths — equivalence-class grouping, Mondrian partitioning, query
// evaluation, information-loss metrics — operate on cached typed columns:
//
//   - FloatColumn parses every cell of a column exactly once and records which
//     cells are numeric, so algorithms never re-run strconv.ParseFloat on the
//     same cell at every recursion level.
//   - CodedColumn interns every distinct value of a column as a dense uint32
//     code in first-appearance row order, so grouping and equality
//     predicates compare integers instead of building per-row strings. The
//     first-appearance rule makes the dictionary a function of the cell
//     sequence alone: a column-backed table and the row-backed table with
//     the same rows hold identical dictionaries, fingerprints and snapshot
//     bytes.
//
// Caches are invalidated on mutation (SetValue invalidates only the touched
// column; Append and AppendTable invalidate everything) and rebuilt on the
// next access. Returned columns are immutable snapshots: a mutation never
// changes a column a caller or a projection already holds, it only causes
// the next accessor call to rebuild. Tables sharing row storage through
// WithSchema also share the cache, so mutations through one view invalidate
// the other.

// FloatColumn is a parse-once numeric view of one column. Values[i] holds the
// parsed number of row i and is meaningful only where Valid[i] is true (cells
// that are suppressed or generalized to intervals do not parse).
type FloatColumn struct {
	// Values holds one parsed value per row; entries where Valid is false
	// are zero and must be ignored.
	Values []float64
	// Valid reports, per row, whether the cell parsed as a number.
	Valid []bool
	// ValidCount is the number of rows whose cell parsed.
	ValidCount int
	// Min and Max are the extrema over valid cells; when ValidCount is zero
	// Min is +Inf and Max is -Inf.
	Min, Max float64
}

// Len returns the number of rows in the column.
func (c *FloatColumn) Len() int { return len(c.Values) }

// CodedColumn is a dictionary-encoded view of one column: every distinct
// string value is interned as a dense uint32 code in first-appearance (row)
// order, which makes the encoding deterministic for a given table content.
type CodedColumn struct {
	// Codes holds one dictionary code per row.
	Codes []uint32
	// Dict maps codes back to values; Dict[Codes[i]] is the cell of row i.
	Dict []string
	// index maps values back to codes. Row-scanning builders fill it as a
	// side effect of interning; snapshot-loaded columns leave it nil and
	// Code() builds it on first use (indexOnce), so opening a snapshot never
	// pays O(dict) map construction for columns nobody reverse-looks-up.
	index     map[string]uint32
	indexOnce sync.Once
	// ranks[code] is the position of Dict[code] in byte-lexicographic order
	// of the dictionary; grouping uses it to order classes without comparing
	// strings.
	ranks []uint32
	// clean reports that no dictionary value contains a byte below 0x20.
	// Only then is per-value rank order guaranteed to match the byte order
	// of joined signatures (the separator is 0x1f).
	clean bool
	// checked records that the codes are known to be a first-appearance
	// encoding of Dict: set by Table.CodedColumn and CSV ingest, which
	// intern in that order, by the column-backed producers in this package,
	// and by FromCodedColumns after a successful check, so a column shared
	// by many column-backed tables is checked once.
	checked atomic.Bool
}

// Len returns the number of rows in the column.
func (c *CodedColumn) Len() int { return len(c.Codes) }

// Cardinality returns the number of distinct values in the column.
func (c *CodedColumn) Cardinality() int { return len(c.Dict) }

// Value returns the string value for a code.
func (c *CodedColumn) Value(code uint32) string { return c.Dict[code] }

// Rank returns the position of the code's value in byte-lexicographic order
// of the dictionary, so comparing ranks compares values.
func (c *CodedColumn) Rank(code uint32) uint32 { return c.ranks[code] }

// Code returns the dictionary code of a value and whether the value occurs in
// the column.
func (c *CodedColumn) Code(value string) (uint32, bool) {
	c.indexOnce.Do(c.ensureIndex)
	code, ok := c.index[value]
	return code, ok
}

// ensureIndex builds the value→code map for columns loaded without one.
func (c *CodedColumn) ensureIndex() {
	if c.index != nil {
		return
	}
	idx := make(map[string]uint32, len(c.Dict))
	for code, v := range c.Dict {
		idx[v] = uint32(code)
	}
	c.index = idx
}

// ErrCodedColumn is returned by FromCodedColumns when a column's codes do not
// form a valid first-appearance encoding of its dictionary.
var ErrCodedColumn = errors.New("dataset: invalid coded column")

// NewCodedColumn wraps ready codes and their dictionary as a CodedColumn,
// computing the lexicographic ranks grouping uses. dict must hold distinct
// values, numbered in first-appearance order over codes (code 0 is the value
// of row 0, the next unseen code is the next new value, and so on): that is
// the encoding Table.CodedColumn builds, and FromCodedColumns refuses any
// other. The column takes ownership of both slices.
func NewCodedColumn(codes []uint32, dict []string) *CodedColumn {
	cc := &CodedColumn{Codes: codes, Dict: dict}
	cc.buildRanks()
	return cc
}

// checkFirstAppearance verifies that every code indexes the dictionary and
// that codes first appear in order 0, 1, 2, ..., covering the whole
// dictionary — the invariant that makes a column's dictionary a function of
// its cell sequence.
func (c *CodedColumn) checkFirstAppearance() error {
	next := uint32(0)
	for i, code := range c.Codes {
		if int(code) >= len(c.Dict) {
			return fmt.Errorf("%w: row %d: code %d exceeds dictionary size %d", ErrCodedColumn, i, code, len(c.Dict))
		}
		if code >= next {
			if code != next {
				return fmt.Errorf("%w: row %d: code %d appears before code %d", ErrCodedColumn, i, code, next)
			}
			next++
		}
	}
	if int(next) != len(c.Dict) {
		return fmt.Errorf("%w: %d of %d dictionary values unused", ErrCodedColumn, len(c.Dict)-int(next), len(c.Dict))
	}
	return nil
}

// FromCodedColumns builds a column-backed table from one coded column per
// schema attribute. The columns are shared, not copied, so they must not be
// modified afterwards; column-backed tables never write to them (a mutation
// first materializes private string rows, see Table.promote). Arity, equal
// row counts and each column's first-appearance encoding are validated.
// String rows are built only if a caller asks for rows; grouping,
// fingerprints and the other column readers work on the codes.
func FromCodedColumns(schema *Schema, cols []*CodedColumn) (*Table, error) {
	if len(cols) != schema.Len() {
		return nil, fmt.Errorf("%w: got %d columns, want %d", ErrRowArity, len(cols), schema.Len())
	}
	n := 0
	if len(cols) > 0 && cols[0] != nil {
		n = cols[0].Len()
	}
	for j, cc := range cols {
		if cc == nil {
			return nil, fmt.Errorf("%w: column %d is nil", ErrCodedColumn, j)
		}
		if cc.Len() != n {
			return nil, fmt.Errorf("%w: column %d has %d rows, column 0 has %d", ErrCodedColumn, j, cc.Len(), n)
		}
		if !cc.checked.Load() {
			if err := cc.checkFirstAppearance(); err != nil {
				return nil, fmt.Errorf("column %d: %w", j, err)
			}
			cc.checked.Store(true)
		}
	}
	t := NewTable(schema)
	t.cache.codes = make(map[int]*CodedColumn, len(cols))
	for j, cc := range cols {
		t.cache.codes[j] = cc
	}
	t.src = &rowSource{n: n, cols: cols}
	return t, nil
}

// selectRows returns the column of the given rows, in the given order, with
// codes renumbered in first-appearance order over the selection.
func (c *CodedColumn) selectRows(indices []int) *CodedColumn {
	const unset = ^uint32(0)
	memo := make([]uint32, len(c.Dict))
	for i := range memo {
		memo[i] = unset
	}
	out := &CodedColumn{Codes: make([]uint32, len(indices))}
	for i, r := range indices {
		old := c.Codes[r]
		code := memo[old]
		if code == unset {
			code = uint32(len(out.Dict))
			out.Dict = append(out.Dict, c.Dict[old])
			memo[old] = code
		}
		out.Codes[i] = code
	}
	out.buildRanks()
	out.checked.Store(true)
	return out
}

// concat returns the column of c's rows followed by b's. c's dictionary is
// kept as a prefix and b's values that c lacks follow in b's code order, so a
// first-appearance encoding stays one. b's values are found by binary search
// over c's rank order, and the ranks of the result are merged from c's, so
// the cost is linear in c's dictionary plus b's size, with no map over c.
func (c *CodedColumn) concat(b *CodedColumn) *CodedColumn {
	d := len(c.Dict)
	// sorted[r] is the code of rank r.
	sorted := make([]uint32, d)
	for code, r := range c.ranks {
		sorted[r] = uint32(code)
	}
	out := &CodedColumn{
		Codes: make([]uint32, len(c.Codes)+len(b.Codes)),
		Dict:  append(make([]string, 0, d+len(b.Dict)), c.Dict...),
		clean: c.clean,
	}
	copy(out.Codes, c.Codes)
	remap := make([]uint32, len(b.Dict))
	var added []uint32 // new codes, in b's code order
	for bc, v := range b.Dict {
		r := sort.Search(d, func(i int) bool { return c.Dict[sorted[i]] >= v })
		if r < d && c.Dict[sorted[r]] == v {
			remap[bc] = sorted[r]
			continue
		}
		remap[bc] = uint32(len(out.Dict))
		added = append(added, remap[bc])
		out.Dict = append(out.Dict, v)
	}
	for i, bc := range b.Codes {
		out.Codes[len(c.Codes)+i] = remap[bc]
	}
	// Ranks: merge c's sorted codes with the sorted new codes.
	sort.Slice(added, func(i, j int) bool { return out.Dict[added[i]] < out.Dict[added[j]] })
	out.ranks = make([]uint32, len(out.Dict))
	i, k := 0, 0
	for r := range out.ranks {
		if k == len(added) || (i < d && c.Dict[sorted[i]] < out.Dict[added[k]]) {
			out.ranks[sorted[i]] = uint32(r)
			i++
		} else {
			out.ranks[added[k]] = uint32(r)
			k++
		}
	}
	for _, code := range added {
		if hasControlByte(out.Dict[code]) {
			out.clean = false
		}
	}
	out.checked.Store(true)
	return out
}

// rowSource materializes row storage on demand for column-backed tables:
// cells are reconstructed as dictionary strings (for snapshots, aliasing the
// mapped blob), packed into one arena of row blocks, so materialization
// allocates string headers but never copies cell bytes.
type rowSource struct {
	n    int
	cols []*CodedColumn
}

func (s *rowSource) materialize() []Row {
	k := len(s.cols)
	rows := make([]Row, s.n)
	arena := make([]string, s.n*k)
	for j, cc := range s.cols {
		dict, codes := cc.Dict, cc.Codes
		for i, code := range codes {
			arena[i*k+j] = dict[code]
		}
	}
	for i := range rows {
		rows[i] = arena[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// colCache holds the per-table columnar caches. It is shared between tables
// that share row storage (WithSchema views) and guarded by a mutex so that
// concurrent readers — for example parallel Mondrian workers — can build and
// reuse columns safely.
type colCache struct {
	mu     sync.Mutex
	floats map[int]*FloatColumn
	codes  map[int]*CodedColumn
	// fp is the cached row-content fingerprint (see fingerprint.go); empty
	// means "not computed". It shares the columnar caches' invalidation: any
	// mutation that could change cell bytes clears it.
	fp string
}

func newColCache() *colCache { return &colCache{} }

// invalidateAll drops every cached column (row set changed).
func (c *colCache) invalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.floats = nil
	c.codes = nil
	c.fp = ""
	c.mu.Unlock()
}

// invalidateCol drops the cached views of a single column (cell mutated).
func (c *colCache) invalidateCol(col int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	delete(c.floats, col)
	delete(c.codes, col)
	c.fp = ""
	c.mu.Unlock()
}

// colcache returns the table's cache, allocating it race-free for tables
// constructed without a constructor (for example by struct literals inside
// the package).
func (t *Table) colcache() *colCache {
	t.cacheOnce.Do(func() {
		if t.cache == nil {
			t.cache = newColCache()
		}
	})
	return t.cache
}

// FloatColumn returns the parse-once numeric view of column col, building and
// caching it on first access. The returned column is a read-only snapshot;
// callers must not modify it.
func (t *Table) FloatColumn(col int) (*FloatColumn, error) {
	if col < 0 || col >= t.schema.Len() {
		return nil, fmt.Errorf("dataset: column index %d out of range", col)
	}
	c := t.colcache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc, ok := c.floats[col]; ok {
		return fc, nil
	}
	var fc *FloatColumn
	if cc, ok := c.codes[col]; ok {
		// A coded view already exists (for example built during CSV ingest):
		// parse each distinct dictionary value once and fan the results out
		// over the code sequence instead of re-parsing every cell.
		fc = floatColumnFromCodes(cc)
	} else {
		rows := t.data()
		fc = &FloatColumn{
			Values: make([]float64, len(rows)),
			Valid:  make([]bool, len(rows)),
			Min:    math.Inf(1),
			Max:    math.Inf(-1),
		}
		for i, r := range rows {
			f, err := strconv.ParseFloat(strings.TrimSpace(r[col]), 64)
			if err != nil {
				continue
			}
			fc.Values[i] = f
			fc.Valid[i] = true
			fc.ValidCount++
			if f < fc.Min {
				fc.Min = f
			}
			if f > fc.Max {
				fc.Max = f
			}
		}
	}
	if c.floats == nil {
		c.floats = make(map[int]*FloatColumn)
	}
	c.floats[col] = fc
	return fc, nil
}

// FloatColumnByName is FloatColumn keyed by attribute name.
func (t *Table) FloatColumnByName(name string) (*FloatColumn, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return t.FloatColumn(col)
}

// CodedColumn returns the dictionary-encoded view of column col, building and
// caching it on first access. Codes are assigned in first-appearance order,
// so the encoding is deterministic for a given table content. The returned
// column is a read-only snapshot; callers must not modify it.
func (t *Table) CodedColumn(col int) (*CodedColumn, error) {
	if col < 0 || col >= t.schema.Len() {
		return nil, fmt.Errorf("dataset: column index %d out of range", col)
	}
	c := t.colcache()
	c.mu.Lock()
	defer c.mu.Unlock()
	return t.codedLocked(c, col), nil
}

// codedLocked returns the cached coded view of column col, interning it from
// the rows on first use. The caller holds c.mu and has checked col.
func (t *Table) codedLocked(c *colCache, col int) *CodedColumn {
	if cc, ok := c.codes[col]; ok {
		return cc
	}
	rows := t.data()
	cc := &CodedColumn{
		Codes: make([]uint32, len(rows)),
		index: make(map[string]uint32),
	}
	for i, r := range rows {
		v := r[col]
		code, ok := cc.index[v]
		if !ok {
			code = uint32(len(cc.Dict))
			cc.Dict = append(cc.Dict, v)
			cc.index[v] = code
		}
		cc.Codes[i] = code
	}
	cc.buildRanks()
	cc.checked.Store(true)
	if c.codes == nil {
		c.codes = make(map[int]*CodedColumn)
	}
	c.codes[col] = cc
	return cc
}

// buildRanks computes the byte-lexicographic rank of every code and whether
// the dictionary is free of control bytes (see the field docs).
func (c *CodedColumn) buildRanks() {
	order := make([]uint32, len(c.Dict))
	for i := range order {
		order[i] = uint32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.Dict[order[i]] < c.Dict[order[j]] })
	c.ranks = make([]uint32, len(c.Dict))
	for pos, code := range order {
		c.ranks[code] = uint32(pos)
	}
	c.clean = SignatureSafe(c.Dict)
}

// hasControlByte reports whether v contains a byte below 0x20.
func hasControlByte(v string) bool {
	for i := 0; i < len(v); i++ {
		if v[i] < 0x20 {
			return true
		}
	}
	return false
}

// floatColumnFromCodes builds the parse-once numeric view of a column from
// its dictionary encoding: each distinct value is parsed once and the result
// fanned out over the code sequence, matching exactly what the row-scanning
// builder would produce.
func floatColumnFromCodes(cc *CodedColumn) *FloatColumn {
	parsed := make([]float64, len(cc.Dict))
	valid := make([]bool, len(cc.Dict))
	for code, v := range cc.Dict {
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			continue
		}
		parsed[code] = f
		valid[code] = true
	}
	fc := &FloatColumn{
		Values: make([]float64, len(cc.Codes)),
		Valid:  make([]bool, len(cc.Codes)),
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for i, code := range cc.Codes {
		if !valid[code] {
			continue
		}
		f := parsed[code]
		fc.Values[i] = f
		fc.Valid[i] = true
		fc.ValidCount++
		if f < fc.Min {
			fc.Min = f
		}
		if f > fc.Max {
			fc.Max = f
		}
	}
	return fc
}

// CodedColumnByName is CodedColumn keyed by attribute name.
func (t *Table) CodedColumnByName(name string) (*CodedColumn, error) {
	col, err := t.schema.Index(name)
	if err != nil {
		return nil, err
	}
	return t.CodedColumn(col)
}
