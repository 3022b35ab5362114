package generalize_test

import (
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/generalize"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/lattice"
	"github.com/ppdp/ppdp/internal/synth"
)

// tableRowsBelow is the reference answer Levels.RowsBelow must give: recode
// with FullDomain, group with GroupBy and count the rows of classes under k.
// It returns FullDomain's error.
func tableRowsBelow(t *testing.T, tbl *dataset.Table, qi []string, hs *hierarchy.Set, node lattice.Node, k int) (int, error) {
	t.Helper()
	recoded, err := generalize.FullDomain(tbl, qi, hs, node)
	if err != nil {
		return 0, err
	}
	classes, err := recoded.GroupBy(qi...)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, c := range classes {
		if c.Size() < k {
			rows += c.Size()
		}
	}
	return rows, nil
}

// assertRowsBelow checks Levels.RowsBelow against tableRowsBelow on node:
// the same count, or the same error text.
func assertRowsBelow(t *testing.T, levels *generalize.Levels, tbl *dataset.Table, qi []string, hs *hierarchy.Set, node lattice.Node, k int) {
	t.Helper()
	got, err := levels.RowsBelow(node, k)
	want, wantErr := tableRowsBelow(t, tbl, qi, hs, node, k)
	switch {
	case (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()):
		t.Errorf("node %v k=%d: error %v, table path %v", node, k, err, wantErr)
	case got != want:
		t.Errorf("node %v k=%d: %d rows below k, table path %d", node, k, got, want)
	}
}

// allNodes returns every node of the lattice over qi.
func allNodes(t *testing.T, qi []string, hs *hierarchy.Set) []lattice.Node {
	t.Helper()
	maxLevels, err := hs.MaxLevels(qi)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lattice.New(qi, maxLevels)
	if err != nil {
		t.Fatal(err)
	}
	return lat.AllNodes()
}

// TestLevelsMatchTablePath counts every node of the census 5-QI and the
// hospital lattices, on row-backed and column-backed input, for k in
// {1, 2, 5, 10}, and compares each count with FullDomain + GroupBy. The
// nodes cover both counting branches of the kernel: dense (cardinality
// product within DenseCountFactor rows) and hash.
func TestLevelsMatchTablePath(t *testing.T) {
	fixtures := []fixture{
		{"census", synth.Census(300, 4), synth.CensusHierarchies(), []string{"age", "sex", "education", "marital-status", "race"}},
		{"hospital", synth.Hospital(300, 6), synth.HospitalHierarchies(), synth.HospitalQuasiIdentifiers()},
	}
	var dense, hashed int
	for _, fx := range fixtures {
		nodes := allNodes(t, fx.qi, fx.hs)
		for form, in := range inputs(t, fx.tbl) {
			t.Run(fx.name+"/"+form, func(t *testing.T) {
				levels, err := generalize.NewLevels(in, fx.qi, fx.hs)
				if err != nil {
					t.Fatal(err)
				}
				for _, node := range nodes {
					prod := 1
					for i, g := range node {
						prod *= levels.Cardinality(i, g)
					}
					if prod <= dataset.DenseCountFactor*in.Len() {
						dense++
					} else {
						hashed++
					}
					for _, k := range []int{1, 2, 5, 10} {
						assertRowsBelow(t, levels, in, fx.qi, fx.hs, node, k)
					}
				}
			})
		}
	}
	if dense == 0 || hashed == 0 {
		t.Fatalf("branches covered: dense %d, hash %d; want both", dense, hashed)
	}
}

// TestLevelsCardinality: the per-level cardinality is the size of the
// recoded column's domain, which Datafly's attribute pick reads.
func TestLevelsCardinality(t *testing.T) {
	tbl, hs := synth.Hospital(200, 3), synth.HospitalHierarchies()
	qi := synth.HospitalQuasiIdentifiers()
	levels, err := generalize.NewLevels(tbl, qi, hs)
	if err != nil {
		t.Fatal(err)
	}
	maxLevels, err := hs.MaxLevels(qi)
	if err != nil {
		t.Fatal(err)
	}
	for i, attr := range qi {
		for g := 0; g <= maxLevels[i]; g++ {
			node := make(lattice.Node, len(qi))
			node[i] = g
			recoded, err := generalize.FullDomain(tbl, qi, hs, node)
			if err != nil {
				t.Fatal(err)
			}
			dom, err := recoded.Domain(attr)
			if err != nil {
				t.Fatal(err)
			}
			if got := levels.Cardinality(i, g); got != len(dom) {
				t.Errorf("%s level %d: cardinality %d, domain %d", attr, g, got, len(dom))
			}
		}
	}
}

// TestLevelsControlByteTakesTablePath: generalized values holding the 0x1f
// signature separator make GroupBy merge distinct tuples whose joined
// signatures coincide. Levels must answer as that path does, on every node.
func TestLevelsControlByteTakesTablePath(t *testing.T) {
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "a", Kind: dataset.QuasiIdentifier},
		dataset.Attribute{Name: "b", Kind: dataset.QuasiIdentifier},
	)
	// At level 1, ("x\x1fy", "z") and ("x", "y\x1fz") both join to
	// "x\x1fy\x1fz".
	tbl, err := dataset.FromRows(schema, []dataset.Row{{"p", "m"}, {"q", "n"}, {"q", "m"}})
	if err != nil {
		t.Fatal(err)
	}
	hs := hierarchy.MustSet(
		hierarchy.MustCategory("a", map[string][]string{"p": {"x\x1fy", "*"}, "q": {"x", "*"}}),
		hierarchy.MustCategory("b", map[string][]string{"m": {"z", "*"}, "n": {"y\x1fz", "*"}}),
	)
	qi := []string{"a", "b"}
	levels, err := generalize.NewLevels(tbl, qi, hs)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range allNodes(t, qi, hs) {
		for _, k := range []int{2, 3} {
			assertRowsBelow(t, levels, tbl, qi, hs, node, k)
		}
	}
	// The merge is real: exact tuples would leave all three rows in
	// singleton classes.
	if got, _ := levels.RowsBelow(lattice.Node{1, 1}, 2); got != 1 {
		t.Fatalf("node {1,1} k=2: %d rows below k, want 1 (two rows merged by signature)", got)
	}
}

// TestLevelsErrorMatchesFullDomain plants ungeneralizable values: a node
// that uses a failing level reports FullDomain's error, with the same row,
// attribute and text.
func TestLevelsErrorMatchesFullDomain(t *testing.T) {
	tbl := synth.Census(300, 9)
	hs := synth.CensusHierarchies()
	qi := []string{"age", "education", "marital-status"}
	edu := tbl.Schema().MustIndex("education")
	marital := tbl.Schema().MustIndex("marital-status")
	for _, set := range []struct {
		row, col int
		v        string
	}{{150, edu, "bogus-a"}, {40, edu, "bogus-b"}, {260, edu, "bogus-a"}, {10, marital, "bogus-m"}} {
		if err := tbl.SetValue(set.row, set.col, set.v); err != nil {
			t.Fatal(err)
		}
	}
	for form, in := range inputs(t, tbl) {
		levels, err := generalize.NewLevels(in, qi, hs)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range []lattice.Node{{0, 1, 0}, {1, 2, 1}, {0, 0, 1}, {2, 0, 2}} {
			if _, err := levels.RowsBelow(node, 5); err == nil {
				t.Errorf("%s node %v: no error for an ungeneralizable value", form, node)
			}
			assertRowsBelow(t, levels, in, qi, hs, node, 5)
		}
		if _, err := levels.RowsBelow(lattice.Node{1, 1}, 5); err == nil {
			t.Errorf("%s: node of the wrong arity accepted", form)
		}
	}
}

// TestLevelsRepeatedAttribute: an attribute listed twice is generalized
// twice by FullDomain (the second level applies to the first's output), so
// Levels answers every node through that path.
func TestLevelsRepeatedAttribute(t *testing.T) {
	tbl, hs := synth.Census(300, 5), synth.CensusHierarchies()
	qi := []string{"age", "sex", "age"}
	levels, err := generalize.NewLevels(tbl, qi, hs)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range allNodes(t, qi, hs) {
		assertRowsBelow(t, levels, tbl, qi, hs, node, 5)
	}
}
