package dataset

import (
	"math"
	"slices"
	"testing"
)

// groupBySizes returns GroupBy's class sizes, sorted.
func groupBySizes(t *testing.T, tbl *Table, cols ...string) []int {
	t.Helper()
	classes, err := tbl.GroupBy(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return ClassSizes(classes)
}

// eachSizes returns EachClassSize's class sizes, sorted.
func eachSizes(t *testing.T, tbl *Table, cols ...string) []int {
	t.Helper()
	var sizes []int
	if err := tbl.EachClassSize(func(size int) { sizes = append(sizes, size) }, cols...); err != nil {
		t.Fatal(err)
	}
	slices.Sort(sizes)
	return sizes
}

// TestEachClassSizeMatchesGroupBy compares the kernel's class sizes with
// GroupBy's over every column subset of the kernel fixture, and checks that
// the subsets take the dense branch (small cardinality products) and the
// hash branch (large ones) each at least once.
func TestEachClassSizeMatchesGroupBy(t *testing.T) {
	names := fpSchema().Names()
	var dense, hashed int
	for _, n := range []int{0, 1, 37, 500} {
		tbl := kernelTable(t, n, 7)
		for mask := 0; mask < 1<<len(names); mask++ {
			var cols []string
			prod := 1
			for j, name := range names {
				if mask&(1<<j) != 0 {
					cols = append(cols, name)
					cc, err := tbl.CodedColumn(j)
					if err != nil {
						t.Fatal(err)
					}
					prod *= cc.Cardinality()
				}
			}
			if n > 0 && prod <= DenseCountFactor*n {
				dense++
			} else if n > 0 {
				hashed++
			}
			got, want := eachSizes(t, tbl, cols...), groupBySizes(t, tbl, cols...)
			if !slices.Equal(got, want) {
				t.Errorf("n=%d cols=%v: sizes %v, GroupBy %v", n, cols, got, want)
			}
		}
	}
	if dense == 0 || hashed == 0 {
		t.Fatalf("branches covered: dense %d, hash %d; want both", dense, hashed)
	}
}

// TestCountClassesRemap checks that a remap merges codes: counting column
// codes through a remap equals counting the remapped values directly.
func TestCountClassesRemap(t *testing.T) {
	codes := []uint32{0, 1, 2, 3, 0, 1, 2, 3, 3}
	other := []uint32{0, 0, 1, 1, 0, 0, 1, 1, 1}
	keys := []ClassKey{
		{Codes: codes, Remap: []uint32{0, 0, 1, 1}, Card: 2},
		{Codes: other, Card: 2},
	}
	var sizes []int
	if !CountClasses(len(codes), keys, func(size int) { sizes = append(sizes, size) }) {
		t.Fatal("CountClasses reported overflow")
	}
	slices.Sort(sizes)
	// Remapped tuples: (0,0)×4, (1,1)×5.
	if want := []int{4, 5}; !slices.Equal(sizes, want) {
		t.Fatalf("sizes %v, want %v", sizes, want)
	}
	if rows, ok := RowsBelow(len(codes), keys, 5); !ok || rows != 4 {
		t.Fatalf("RowsBelow(k=5) = %d, %v; want 4, true", rows, ok)
	}
	// No key columns: every row in one class.
	if rows, ok := RowsBelow(len(codes), nil, 10); !ok || rows != len(codes) {
		t.Fatalf("RowsBelow with no columns = %d, %v; want %d, true", rows, ok, len(codes))
	}
}

// TestCountClassesOverflow: a cardinality product past 64 bits is refused,
// and EachClassSize then falls back to GroupBy's answer.
func TestCountClassesOverflow(t *testing.T) {
	codes := []uint32{0}
	keys := []ClassKey{{Codes: codes, Card: math.MaxUint32}, {Codes: codes, Card: math.MaxUint32}, {Codes: codes, Card: 2}}
	if CountClasses(1, keys, func(int) { t.Fatal("visited a class after overflow") }) {
		t.Fatal("CountClasses accepted an overflowing product")
	}
}

// TestEachClassSizeControlByte: values holding the 0x1f signature separator
// make GroupBy merge distinct tuples whose joined signatures coincide;
// EachClassSize must take GroupBy's path and report the merged class.
func TestEachClassSizeControlByte(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "a", Kind: QuasiIdentifier},
		Attribute{Name: "b", Kind: QuasiIdentifier},
	)
	tbl, err := FromRows(schema, []Row{
		{"x\x1fy", "z"},
		{"x", "y\x1fz"},
		{"x", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, want := eachSizes(t, tbl, "a", "b"), groupBySizes(t, tbl, "a", "b")
	if !slices.Equal(got, want) {
		t.Fatalf("sizes %v, GroupBy %v", got, want)
	}
	if !slices.Equal(want, []int{1, 2}) {
		t.Fatalf("fixture no longer merges signatures: GroupBy sizes %v", want)
	}
}
