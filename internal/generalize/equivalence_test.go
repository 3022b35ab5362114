package generalize_test

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/synth"
)

// fixture is one synthetic table with the quasi-identifiers the equivalence
// tests recode.
type fixture struct {
	name string
	tbl  *dataset.Table
	hs   *hierarchy.Set
	qi   []string
}

func fixtures(t *testing.T) []fixture {
	t.Helper()
	return []fixture{
		{"census", synth.Census(400, 3), synth.CensusHierarchies(), []string{"age", "education", "marital-status", "sex"}},
		{"hospital", synth.Hospital(400, 5), synth.HospitalHierarchies(), synth.HospitalQuasiIdentifiers()},
	}
}

// inputs returns the fixture table in both storage forms: row-backed as
// generated, and column-backed over the same coded columns.
func inputs(t *testing.T, tbl *dataset.Table) map[string]*dataset.Table {
	t.Helper()
	cols := make([]*dataset.CodedColumn, tbl.Schema().Len())
	for j := range cols {
		cc, err := tbl.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		cols[j] = cc
	}
	coded, err := dataset.FromCodedColumns(tbl.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dataset.Table{"rows": tbl, "columns": coded}
}

// assertSameTable checks that got and want are indistinguishable to every
// reader the equivalence contract names. Row-free views are compared before
// Rows, so a column-backed got is checked before its rows exist.
func assertSameTable(t *testing.T, got, want *dataset.Table, qi []string) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fingerprint %s, want %s", got.Fingerprint(), want.Fingerprint())
	}
	for j := 0; j < want.Schema().Len(); j++ {
		g, err := got.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.CodedColumn(j)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(g.Dict, w.Dict) || !slices.Equal(g.Codes, w.Codes) {
			t.Fatalf("column %d: dict %v, want %v (first-appearance order)", j, g.Dict, w.Dict)
		}
	}
	gc, err := got.GroupBy(qi...)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := want.GroupBy(qi...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Fatalf("GroupBy differs: %d classes, want %d", len(gc), len(wc))
	}
	var gs, ws bytes.Buffer
	if err := got.WriteSnapshot(&gs); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteSnapshot(&ws); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gs.Bytes(), ws.Bytes()) {
		t.Fatalf("snapshot bytes differ (%d vs %d bytes)", gs.Len(), ws.Len())
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatal("rows differ")
	}
}

// TestFullDomainMatchesReference recodes both fixtures, in both storage
// forms, to every node of their quasi-identifier lattice and compares each
// result with the row-rewriting reference.
func TestFullDomainMatchesReference(t *testing.T) {
	for _, fx := range fixtures(t) {
		maxLevels, err := fx.hs.MaxLevels(fx.qi)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice.New(fx.qi, maxLevels)
		if err != nil {
			t.Fatal(err)
		}
		for form, in := range inputs(t, fx.tbl) {
			for _, node := range lat.AllNodes() {
				got, err := generalize.FullDomain(in, fx.qi, fx.hs, node)
				if err != nil {
					t.Fatalf("%s/%s node %v: %v", fx.name, form, node, err)
				}
				want, err := refFullDomain(fx.tbl, fx.qi, fx.hs, node)
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fx.name+"/"+form+"/"+node.Key(), func(t *testing.T) {
					assertSameTable(t, got, want, fx.qi)
					// The release path: suppress the rows of classes under
					// k=5, as the lattice searches do.
					classes, err := want.GroupBy(fx.qi...)
					if err != nil {
						t.Fatal(err)
					}
					var drop []int
					for _, c := range classes {
						if c.Size() < 5 {
							drop = append(drop, c.Rows...)
						}
					}
					gotRel, err := generalize.SuppressRows(got, drop)
					if err != nil {
						t.Fatal(err)
					}
					wantRel, err := generalize.SuppressRows(want, drop)
					if err != nil {
						t.Fatal(err)
					}
					assertSameTable(t, gotRel, wantRel, fx.qi)
				})
			}
		}
	}
}

// TestFullDomainErrorMatchesReference plants ungeneralizable values and
// checks that the error names the same row and attribute, with the same
// text, as the row-order reference scan.
func TestFullDomainErrorMatchesReference(t *testing.T) {
	tbl := synth.Census(300, 9)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "education", "marital-status"}
	edu := tbl.Schema().MustIndex("education")
	marital := tbl.Schema().MustIndex("marital-status")
	// The later row carries the earlier-coded bad value: the error must
	// name row 40, the first bad row, whichever value is interned first.
	for _, set := range []struct {
		row, col int
		v        string
	}{{150, edu, "bogus-a"}, {40, edu, "bogus-b"}, {260, edu, "bogus-a"}, {10, marital, "bogus-m"}} {
		if err := tbl.SetValue(set.row, set.col, set.v); err != nil {
			t.Fatal(err)
		}
	}
	for form, in := range inputs(t, tbl) {
		for _, node := range []lattice.Node{{0, 1, 0}, {1, 2, 1}, {0, 0, 1}, {2, 0, 2}} {
			_, err := generalize.FullDomain(in, qi, hs, node)
			_, want := refFullDomain(tbl, qi, hs, node)
			if want == nil || err == nil || err.Error() != want.Error() {
				t.Errorf("%s node %v: error %v, want %v", form, node, err, want)
			}
		}
	}
}

// TestRecodeGroupsMatchesReference recodes both fixtures, in both storage
// forms, over Mondrian's group set — once complete, once with every fourth
// group left out so some rows keep their original values — and compares
// tables and summaries with the row-rewriting reference.
func TestRecodeGroupsMatchesReference(t *testing.T) {
	for _, fx := range fixtures(t) {
		res, err := mondrian.Anonymize(fx.tbl, mondrian.Config{K: 5, QuasiIdentifiers: fx.qi, Hierarchies: fx.hs})
		if err != nil {
			t.Fatal(err)
		}
		var partial [][]int
		for i, g := range res.Groups {
			if i%4 != 3 {
				partial = append(partial, g)
			}
		}
		for form, in := range inputs(t, fx.tbl) {
			for name, groups := range map[string][][]int{"all": res.Groups, "partial": partial} {
				t.Run(fx.name+"/"+form+"/"+name, func(t *testing.T) {
					got, gotSum, err := generalize.RecodeGroups(in, fx.qi, fx.hs, groups)
					if err != nil {
						t.Fatal(err)
					}
					want, wantSum, err := refRecodeGroups(fx.tbl, fx.qi, fx.hs, groups)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotSum, wantSum) {
						t.Fatal("summaries differ")
					}
					assertSameTable(t, got, want, fx.qi)
				})
			}
		}
	}
}

// TestRecodeGroupsErrorsMatchReference checks the group validation errors
// against the reference, in its order: empty group, out-of-range row,
// overlapping groups.
func TestRecodeGroupsErrorsMatchReference(t *testing.T) {
	tbl := synth.Hospital(50, 2)
	hs := synth.HospitalHierarchies()
	qi := synth.HospitalQuasiIdentifiers()
	for _, groups := range [][][]int{
		{{0, 1}, {}},
		{{0, 1}, {2, 50}},
		{{0, -1}},
		{{0, 1, 2}, {3, 2}},
		{{4, 5}, {5, 99}},
	} {
		_, _, err := generalize.RecodeGroups(tbl, qi, hs, groups)
		_, _, want := refRecodeGroups(tbl, qi, hs, groups)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("groups %v: error %v, want %v", groups, err, want)
		}
	}
}
