package dataset

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// projSchema has an identifier, a near-unique QI that CSV ingest leaves
// uncoded (see internSampleRows), a numeric QI and two low-cardinality
// columns.
func projSchema() *Schema {
	return MustSchema(
		Attribute{Name: "id", Kind: Identifier, Type: Categorical},
		Attribute{Name: "street", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "age", Kind: QuasiIdentifier, Type: Numeric},
		Attribute{Name: "zip", Kind: QuasiIdentifier, Type: Categorical},
		Attribute{Name: "diagnosis", Kind: Sensitive, Type: Categorical},
	)
}

// projRows returns n rows over projSchema: id and street are unique per row,
// the other columns repeat.
func projRows(n int) []Row {
	rows := make([]Row, n)
	for i, r := range kernelRows(n, 11) {
		rows[i] = Row{fmt.Sprintf("p%05d", i), fmt.Sprintf("%d elm st", 7919*i%100003), r[0], r[1], r[2]}
	}
	return rows
}

// projInputs returns the three storage forms Project accepts, all holding
// projRows(n): a FromRows table with an empty cache, a ReadCSV table whose
// street column ingest left uncoded, and a column-backed table.
func projInputs(t *testing.T, n int) map[string]*Table {
	t.Helper()
	rows := projRows(n)
	fromRows, err := FromRows(projSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString(strings.Join(projSchema().Names(), ",") + "\n")
	for _, r := range rows {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	read, err := ReadCSV(projSchema(), strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	street := projSchema().MustIndex("street")
	read.cache.mu.Lock()
	_, coded := read.cache.codes[street]
	read.cache.mu.Unlock()
	if coded || n <= internSampleRows {
		t.Fatalf("ingest coded the near-unique street column of %d rows", n)
	}
	seed, err := FromRows(projSchema(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Table{"rows": fromRows, "csv": read, "columns": columnBacked(t, seed)}
}

// rowCopyProjection is the reference projection: the kept cells of every
// row, copied into a new row-backed table.
func rowCopyProjection(t *testing.T, tbl *Table, names ...string) *Table {
	t.Helper()
	schema, err := tbl.Schema().Project(names...)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for _, r := range tbl.Rows() {
		nr := make(Row, len(names))
		for j, n := range names {
			nr[j] = r[tbl.Schema().MustIndex(n)]
		}
		rows = append(rows, nr)
	}
	out, err := FromRows(schema, rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProjectMatchesRowCopy: for every storage form of the parent, the
// column-backed projection holds what a row copy of the kept cells holds:
// rows, fingerprint, dictionaries, codes, ranks, snapshot bytes and float
// views, without building rows of its own.
func TestProjectMatchesRowCopy(t *testing.T) {
	for name, tbl := range projInputs(t, 2*internSampleRows+7) {
		t.Run(name, func(t *testing.T) {
			for _, keep := range [][]string{
				{"street", "age", "zip", "diagnosis"},
				{"diagnosis", "age"},
				{"zip"},
			} {
				got, err := tbl.Project(keep...)
				if err != nil {
					t.Fatal(err)
				}
				if got.src == nil {
					t.Fatalf("Project(%v) is row-backed", keep)
				}
				want := rowCopyProjection(t, tbl, keep...)
				for j := range keep {
					g, err := got.FloatColumn(j)
					if err != nil {
						t.Fatal(err)
					}
					w, err := want.FloatColumn(j)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(g, w) {
						t.Errorf("Project(%v) column %d: float view differs", keep, j)
					}
				}
				assertSameContent(t, got, want)
			}
			dropped, err := tbl.DropIdentifiers()
			if err != nil {
				t.Fatal(err)
			}
			assertSameContent(t, dropped, rowCopyProjection(t, tbl, "street", "age", "zip", "diagnosis"))
		})
	}
}

// TestDropIdentifiersSharesColumns: DropIdentifiers hands out the parent's
// own coded columns and cached float views, so repeated projections of one
// stored table copy nothing and code each column once.
func TestDropIdentifiersSharesColumns(t *testing.T) {
	for name, tbl := range projInputs(t, 2*internSampleRows+7) {
		t.Run(name, func(t *testing.T) {
			age := tbl.Schema().MustIndex("age")
			parentAge, err := tbl.FloatColumn(age)
			if err != nil {
				t.Fatal(err)
			}
			first, err := tbl.DropIdentifiers()
			if err != nil {
				t.Fatal(err)
			}
			second, err := tbl.DropIdentifiers()
			if err != nil {
				t.Fatal(err)
			}
			for j, n := range first.Schema().Names() {
				parent, err := tbl.CodedColumnByName(n)
				if err != nil {
					t.Fatal(err)
				}
				for _, proj := range []*Table{first, second} {
					if cc, _ := proj.CodedColumn(j); cc != parent {
						t.Errorf("column %q: projection holds a copy of the parent's coded column", n)
					}
				}
			}
			if fc, _ := first.FloatColumnByName("age"); fc != parentAge {
				t.Error("projection rebuilt the parent's cached float view")
			}
		})
	}
}

// colContent is a copy of one coded column's content.
type colContent struct {
	dict  []string
	codes []uint32
}

// columnsOf copies the content of every coded column of tbl.
func columnsOf(t *testing.T, tbl *Table) []colContent {
	t.Helper()
	out := make([]colContent, tbl.Schema().Len())
	for j := range out {
		cc, err := tbl.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		out[j] = colContent{slices.Clone(cc.Dict), slices.Clone(cc.Codes)}
	}
	return out
}

// TestProjectIsolation: after Project, a mutation of either table leaves
// the other's rows and coded columns, and the columns they share, as they
// were.
func TestProjectIsolation(t *testing.T) {
	const n = 2*internSampleRows + 7
	keep := []string{"zip", "diagnosis"}
	for _, form := range []string{"rows", "csv", "columns"} {
		t.Run(form+"/parent-set", func(t *testing.T) {
			parent := projInputs(t, n)[form]
			proj, err := parent.Project(keep...)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, wantCols := proj.Rows(), columnsOf(t, proj)
			if err := parent.SetValue(0, parent.Schema().MustIndex("zip"), "999"); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(proj.Rows(), wantRows) || !reflect.DeepEqual(columnsOf(t, proj), wantCols) {
				t.Error("parent SetValue changed the projection")
			}
			if cc, _ := parent.CodedColumnByName("zip"); cc.Dict[0] != "999" {
				t.Errorf("parent zip dictionary after SetValue = %v", cc.Dict)
			}
		})
		t.Run(form+"/parent-append", func(t *testing.T) {
			parent := projInputs(t, n)[form]
			proj, err := parent.Project(keep...)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, wantCols := proj.Rows(), columnsOf(t, proj)
			if err := parent.AppendTable(projInputs(t, n)[form]); err != nil {
				t.Fatal(err)
			}
			if proj.Len() != n || !reflect.DeepEqual(proj.Rows(), wantRows) || !reflect.DeepEqual(columnsOf(t, proj), wantCols) {
				t.Error("parent AppendTable changed the projection")
			}
			if parent.Len() != 2*n {
				t.Errorf("parent has %d rows after AppendTable, want %d", parent.Len(), 2*n)
			}
		})
		t.Run(form+"/projection-set", func(t *testing.T) {
			parent := projInputs(t, n)[form]
			proj, err := parent.Project(keep...)
			if err != nil {
				t.Fatal(err)
			}
			wantRows, wantCols := parent.Rows(), columnsOf(t, parent)
			shared, _ := proj.CodedColumn(0)
			if err := proj.SetValue(0, 0, "999"); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parent.Rows(), wantRows) || !reflect.DeepEqual(columnsOf(t, parent), wantCols) {
				t.Error("projection SetValue changed the parent")
			}
			if cc, _ := parent.CodedColumnByName("zip"); cc != shared {
				t.Error("projection SetValue dropped the parent's coded column")
			}
			if v := cellAt(t, proj, 0, 0); v != "999" {
				t.Errorf("projection zip = %q after SetValue", v)
			}
		})
	}
}

// TestDropIdentifiersConcurrent: concurrent requests projecting one stored
// table while others read its columns all share one coded column per
// attribute (run under -race).
func TestDropIdentifiersConcurrent(t *testing.T) {
	tbl := projInputs(t, 2*internSampleRows+7)["csv"]
	const workers = 4
	projs := make([]*Table, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			readParent := func() {
				for j := tbl.Schema().Len() - 1; j >= 0; j-- {
					if _, err := tbl.CodedColumn(j); err != nil {
						t.Error(err)
					}
				}
			}
			if w%2 == 1 {
				readParent()
			}
			proj, err := tbl.DropIdentifiers()
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := proj.FloatColumn(1); err != nil {
				t.Error(err)
			}
			projs[w] = proj
			if w%2 == 0 {
				readParent()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for j, n := range projs[0].Schema().Names() {
		want, _ := tbl.CodedColumnByName(n)
		for w, proj := range projs {
			if cc, _ := proj.CodedColumn(j); cc != want {
				t.Errorf("worker %d column %q: not the parent's coded column", w, n)
			}
		}
	}
}
