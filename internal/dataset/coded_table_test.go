package dataset

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// columnBacked rebuilds tbl as a column-backed table: each column's codes
// and dictionary go through NewCodedColumn, the exported construction path.
func columnBacked(t *testing.T, tbl *Table) *Table {
	t.Helper()
	cols := make([]*CodedColumn, tbl.Schema().Len())
	for j := range cols {
		cc, err := tbl.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = NewCodedColumn(append([]uint32(nil), cc.Codes...), append([]string(nil), cc.Dict...))
	}
	out, err := FromCodedColumns(tbl.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestColumnBackedFingerprintMatchesRows: a column-backed table folds its
// fingerprint from codes, without building rows, and reproduces the
// row-backed value — including the committed golden constants — for every
// scan-worker setting.
func TestColumnBackedFingerprintMatchesRows(t *testing.T) {
	forceSmallChunks(t)
	golden, err := FromRows(fpSchema(), fpRows())
	if err != nil {
		t.Fatal(err)
	}
	if got := columnBacked(t, golden).Fingerprint(); got != "545356f800130287b4fb89ed8b2eb980" {
		t.Errorf("column-backed golden fingerprint = %s", got)
	}
	if got := columnBacked(t, NewTable(fpSchema())).Fingerprint(); got != "df2bcf43b1a7ef7b645b67027bdd0638" {
		t.Errorf("column-backed empty fingerprint = %s", got)
	}
	for _, n := range []int{1, 65, 1000} {
		rowTbl, err := FromRows(fpSchema(), kernelRows(n, uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			rowTbl.SetScanWorkers(workers)
			colTbl := columnBacked(t, rowTbl)
			colTbl.SetScanWorkers(workers)
			if got, want := colTbl.Fingerprint(), rowTbl.Fingerprint(); got != want {
				t.Errorf("n=%d workers=%d: column-backed fingerprint %s, row-backed %s", n, workers, got, want)
			}
			if colTbl.rows != nil {
				t.Fatalf("n=%d: Fingerprint materialized rows", n)
			}
		}
	}
}

// TestColumnBackedReadersMatchRows: SensitiveDistribution, Domain and
// Frequencies read codes on a column-backed table, never rows, and agree
// with the row-backed table.
func TestColumnBackedReadersMatchRows(t *testing.T) {
	rowTbl, err := FromRows(fpSchema(), kernelRows(300, 7))
	if err != nil {
		t.Fatal(err)
	}
	colTbl := columnBacked(t, rowTbl)
	classes, err := rowTbl.GroupBy("age", "zip")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range classes {
		got, err := colTbl.SensitiveDistribution(c, "diagnosis")
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		for _, r := range c.Rows {
			want[rowTbl.rows[r][2]]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("class %q: distribution %v, want %v", c.Signature, got, want)
		}
	}
	for _, name := range fpSchema().Names() {
		gd, err := colTbl.Domain(name)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := rowTbl.Domain(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gd, wd) {
			t.Errorf("%s: domain %v, want %v", name, gd, wd)
		}
		gf, err := colTbl.Frequencies(name)
		if err != nil {
			t.Fatal(err)
		}
		wf, err := rowTbl.Frequencies(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gf, wf) {
			t.Errorf("%s: frequencies %v, want %v", name, gf, wf)
		}
	}
	if colTbl.rows != nil {
		t.Fatal("column readers materialized rows")
	}
	if _, err := colTbl.SensitiveDistribution(EquivalenceClass{Rows: []int{300}}, "diagnosis"); !errors.Is(err, ErrRowIndex) {
		t.Errorf("out-of-range class row: %v, want ErrRowIndex", err)
	}
	if !reflect.DeepEqual(colTbl.Rows(), rowTbl.Rows()) {
		t.Error("materialized rows differ")
	}
}

// TestColumnBackedMutationPromotes: writing to a column-backed table
// materializes private rows; the result matches the same write on the
// row-backed table, and the shared columns are left as they were.
func TestColumnBackedMutationPromotes(t *testing.T) {
	rowTbl, err := FromRows(fpSchema(), kernelRows(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	colTbl := columnBacked(t, rowTbl)
	before, _ := colTbl.CodedColumn(1)
	for _, tbl := range []*Table{rowTbl, colTbl} {
		if err := tbl.SetValue(4, 1, "999"); err != nil {
			t.Fatal(err)
		}
	}
	if colTbl.Fingerprint() != rowTbl.Fingerprint() {
		t.Error("fingerprints differ after the same write")
	}
	if before.Dict[before.Codes[4]] == "999" {
		t.Error("write reached the shared coded column")
	}
	if !reflect.DeepEqual(colTbl.Rows(), rowTbl.Rows()) {
		t.Error("rows differ after the same write")
	}
}

// TestFromCodedColumnsValidates covers the constructor's refusals.
func TestFromCodedColumnsValidates(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "a", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "b", Kind: Sensitive, Type: Categorical},
	)
	ok := func() *CodedColumn { return NewCodedColumn([]uint32{0, 1, 0}, []string{"x", "y"}) }
	cases := []struct {
		name string
		cols []*CodedColumn
		want error
	}{
		{"arity", []*CodedColumn{ok()}, ErrRowArity},
		{"nil column", []*CodedColumn{ok(), nil}, ErrCodedColumn},
		{"row count", []*CodedColumn{ok(), NewCodedColumn([]uint32{0}, []string{"x"})}, ErrCodedColumn},
		{"code range", []*CodedColumn{ok(), NewCodedColumn([]uint32{0, 2, 1}, []string{"x", "y"})}, ErrCodedColumn},
		{"order", []*CodedColumn{ok(), NewCodedColumn([]uint32{1, 0, 0}, []string{"x", "y"})}, ErrCodedColumn},
		{"unused value", []*CodedColumn{ok(), NewCodedColumn([]uint32{0, 0, 0}, []string{"x", "y"})}, ErrCodedColumn},
	}
	for _, c := range cases {
		if _, err := FromCodedColumns(s, c.cols); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	tbl, err := FromCodedColumns(s, []*CodedColumn{ok(), ok()})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
	if v, _ := tbl.Value(1, 1); v != "y" {
		t.Fatalf("Value(1,1) = %q, want y", v)
	}
}

// assertSameContent checks that a column-backed table and a row-backed one
// agree on fingerprint, dictionaries and snapshot bytes without the
// column-backed table building rows, then on rows.
func assertSameContent(t *testing.T, got, want *Table) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprints differ")
	}
	for j := 0; j < want.Schema().Len(); j++ {
		g, _ := got.CodedColumn(j)
		w, _ := want.CodedColumn(j)
		if !slices.Equal(g.Dict, w.Dict) || !slices.Equal(g.Codes, w.Codes) || !slices.Equal(g.ranks, w.ranks) {
			t.Fatalf("column %d: dict %v, want %v", j, g.Dict, w.Dict)
		}
	}
	var gs, ws bytes.Buffer
	if err := got.WriteSnapshot(&gs); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteSnapshot(&ws); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
		t.Fatal("snapshot bytes differ")
	}
	if got.rows != nil {
		t.Fatal("column-backed table built rows")
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatal("rows differ")
	}
}

// TestColumnBackedSelectMatchesRows: Select and Project on a column-backed
// table stay column-backed and equal the row-backed results.
func TestColumnBackedSelectMatchesRows(t *testing.T) {
	rowTbl, err := FromRows(fpSchema(), kernelRows(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, rowTbl.Len())
	reverse := make([]int, rowTbl.Len())
	for i := range all {
		all[i] = i
		reverse[i] = len(all) - 1 - i
	}
	for name, idx := range map[string][]int{
		"all":     all,
		"reverse": reverse,
		"subset":  {7, 3, 3, 90, 0, 119, 45},
		"empty":   {},
	} {
		t.Run("select/"+name, func(t *testing.T) {
			want, err := rowTbl.Select(idx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := columnBacked(t, rowTbl).Select(idx)
			if err != nil {
				t.Fatal(err)
			}
			assertSameContent(t, got, want)
		})
	}
	if _, err := columnBacked(t, rowTbl).Select([]int{0, 120}); !errors.Is(err, ErrRowIndex) {
		t.Errorf("out-of-range select: %v, want ErrRowIndex", err)
	}
	want, err := rowTbl.Project("diagnosis", "age")
	if err != nil {
		t.Fatal(err)
	}
	got, err := columnBacked(t, rowTbl).Project("diagnosis", "age")
	if err != nil {
		t.Fatal(err)
	}
	assertSameContent(t, got, want)
}

// TestConcatMatchesAppendTable grows a table by repeated Concat and checks
// each generation against Clone + AppendTable of the same rows: new values
// that sort before, between and after the existing ones, values already
// present, a control byte (which turns off rank-ordered grouping), an empty
// chunk, and both storage forms of the starting table.
func TestConcatMatchesAppendTable(t *testing.T) {
	chunks := [][]Row{
		kernelRows(200, 1),
		{{"34", "101", "flu"}, {"17", "099", "aardvark"}, {"99", "200", "zoster"}},
		{},
		kernelRows(50, 2),
		{{"50", "1\x01", "flu"}, {"51", "150", "mid"}},
	}
	for _, form := range []string{"rows", "columns"} {
		base, err := FromRows(fpSchema(), chunks[0])
		if err != nil {
			t.Fatal(err)
		}
		got := base
		if form == "columns" {
			got = columnBacked(t, base)
		}
		want := base.Clone()
		for i, chunk := range chunks[1:] {
			add, err := FromRows(fpSchema(), chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = got.Concat(add); err != nil {
				t.Fatal(err)
			}
			if err := want.AppendTable(add); err != nil {
				t.Fatal(err)
			}
			t.Run(form+"/"+string(rune('a'+i)), func(t *testing.T) {
				assertSameContent(t, got, want)
				for j := range fpSchema().Names() {
					g, _ := got.CodedColumn(j)
					w, _ := want.CodedColumn(j)
					if g.clean != w.clean {
						t.Fatalf("column %d: clean %v, want %v", j, g.clean, w.clean)
					}
				}
			})
		}
	}
	other := MustSchema(Attribute{Name: "x", Kind: QuasiIdentifier, Type: Categorical})
	if _, err := columnBacked(t, NewTable(fpSchema())).Concat(NewTable(other)); !errors.Is(err, ErrSchemaMismatch) {
		t.Errorf("concat across schemas: %v, want ErrSchemaMismatch", err)
	}
}
