package dataset

import (
	"math"
	"sync"
)

// This file holds the class-count kernel: the one loop that counts the rows
// of every equivalence class when only the class sizes matter (lattice
// searches asking "how many rows sit in classes smaller than k?", and the
// discernibility and average-class-size metrics). It builds no classes, no
// signatures and no member-row lists: each row gets a mixed-radix key over
// its per-column ids, and the keys are counted.

// ClassKey is one grouping column of the class-count kernel. The id of row r
// in the column is Remap[Codes[r]], or Codes[r] when Remap is nil; ids lie in
// [0, Card). A Remap merges dictionary codes, which is how a lattice search
// counts a generalized column without building it (see generalize.Levels).
type ClassKey struct {
	Codes []uint32
	Remap []uint32
	Card  int
}

// DenseCountFactor sets the kernel's counting structure: classes are counted
// in a dense array indexed by key when the cardinality product is at most
// DenseCountFactor times the row count, and in a hash map otherwise. The
// dense array then costs at most a few words per row and is scanned once.
const DenseCountFactor = 4

// countScratch is the reusable per-call state of CountClasses.
type countScratch struct {
	keys  []uint64
	dense []int32
	hash  map[uint64]int32
}

var countPool = sync.Pool{New: func() any { return new(countScratch) }}

// CountClasses groups n rows by their id tuple over keys (every column holds
// n rows) and calls visit once per non-empty class with its size. Classes are
// visited in no particular order. It reports false, visiting nothing, when
// the cardinality product overflows 64 bits; callers then group some other
// way. With no key columns, all rows form one class.
func CountClasses(n int, keys []ClassKey, visit func(size int)) bool {
	if n == 0 {
		return true
	}
	prod := uint64(1)
	for _, c := range keys {
		card := uint64(c.Card)
		if card == 0 || prod > math.MaxUint64/card {
			return false
		}
		prod *= card
	}
	s := countPool.Get().(*countScratch)
	defer countPool.Put(s)
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
	}
	row := s.keys[:n]
	clear(row)
	// Column at a time: key = ((id0·card1 + id1)·card2 + id2)·…
	for _, c := range keys {
		card := uint64(c.Card)
		codes := c.Codes[:n]
		if c.Remap == nil {
			for r, code := range codes {
				row[r] = row[r]*card + uint64(code)
			}
		} else {
			remap := c.Remap
			for r, code := range codes {
				row[r] = row[r]*card + uint64(remap[code])
			}
		}
	}
	if prod <= DenseCountFactor*uint64(n) {
		if uint64(cap(s.dense)) < prod {
			s.dense = make([]int32, prod)
		}
		counts := s.dense[:prod]
		clear(counts)
		for _, key := range row {
			counts[key]++
		}
		for _, size := range counts {
			if size > 0 {
				visit(int(size))
			}
		}
		return true
	}
	if s.hash == nil {
		s.hash = make(map[uint64]int32, n)
	}
	counts := s.hash
	clear(counts)
	for _, key := range row {
		counts[key]++
	}
	for _, size := range counts {
		visit(int(size))
	}
	return true
}

// RowsBelow returns the number of rows in classes smaller than k, counted by
// CountClasses; ok is false when the cardinality product overflows.
func RowsBelow(n int, keys []ClassKey, k int) (rows int, ok bool) {
	ok = CountClasses(n, keys, func(size int) {
		if size < k {
			rows += size
		}
	})
	return rows, ok
}

// SignatureSafe reports whether no value of dict contains a control byte
// (below 0x20). Only then do distinct value tuples keep distinct GroupBy
// signatures, so that counting exact tuples agrees with GroupBy.
func SignatureSafe(dict []string) bool {
	for _, v := range dict {
		if hasControlByte(v) {
			return false
		}
	}
	return true
}

// EachClassSize calls visit once per equivalence class over the named
// columns with the class's size, in no particular order: the class sizes
// GroupBy would return, without building the classes. It counts with
// CountClasses over the coded columns, and takes GroupBy itself only where
// GroupBy groups by something other than exact value tuples (a value holds a
// control byte, so joined signatures can merge) or the cardinality product
// overflows 64 bits.
func (t *Table) EachClassSize(visit func(size int), columns ...string) error {
	keys := make([]ClassKey, len(columns))
	safe := true
	for i, c := range columns {
		cc, err := t.CodedColumnByName(c)
		if err != nil {
			return err
		}
		safe = safe && cc.clean
		keys[i] = ClassKey{Codes: cc.Codes, Card: cc.Cardinality()}
	}
	if safe && CountClasses(t.Len(), keys, visit) {
		return nil
	}
	classes, err := t.GroupBy(columns...)
	if err != nil {
		return err
	}
	for _, c := range classes {
		visit(c.Size())
	}
	return nil
}
