package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/ppdp/ppdp/internal/algorithms/mondrian"
	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/hierarchy"
	"github.com/ppdp/ppdp/internal/synth"
)

func smallRelease(t *testing.T) (*dataset.Table, *dataset.Table) {
	t.Helper()
	schema := dataset.MustSchema(
		dataset.Attribute{Name: "age", Kind: dataset.QuasiIdentifier, Type: dataset.Numeric},
		dataset.Attribute{Name: "sex", Kind: dataset.QuasiIdentifier, Type: dataset.Categorical},
		dataset.Attribute{Name: "diag", Kind: dataset.Sensitive, Type: dataset.Categorical},
	)
	orig, err := dataset.FromRows(schema, []dataset.Row{
		{"20", "male", "flu"},
		{"25", "male", "flu"},
		{"30", "female", "hiv"},
		{"35", "female", "cancer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	released, err := dataset.FromRows(schema, []dataset.Row{
		{"[20-30)", "male", "flu"},
		{"[20-30)", "male", "flu"},
		{"[30-40)", "female", "hiv"},
		{"[30-40)", "female", "cancer"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return orig, released
}

func TestDiscernibility(t *testing.T) {
	_, released := smallRelease(t)
	dm, err := Discernibility(released, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two classes of size 2: 4 + 4 = 8.
	if dm != 8 {
		t.Errorf("DM = %v, want 8", dm)
	}
	// With one suppressed record (original size 5) the penalty adds 5.
	dm, err = Discernibility(released, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dm != 13 {
		t.Errorf("DM with suppression = %v, want 13", dm)
	}
	plain := dataset.MustSchema(dataset.Attribute{Name: "x", Kind: dataset.Insensitive})
	pt, _ := dataset.FromRows(plain, []dataset.Row{{"1"}})
	if _, err := Discernibility(pt, 1); !errors.Is(err, ErrNoQuasiIdentifiers) {
		t.Errorf("no QI error = %v", err)
	}
}

func TestNormalizedAverageClassSize(t *testing.T) {
	_, released := smallRelease(t)
	cavg, err := NormalizedAverageClassSize(released, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 rows / 2 classes / k=2 = 1.
	if cavg != 1 {
		t.Errorf("C_avg = %v, want 1", cavg)
	}
	if _, err := NormalizedAverageClassSize(released, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestGeneralizationPrecision(t *testing.T) {
	p, err := GeneralizationPrecision([]int{1, 2}, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Errorf("precision = %v, want 0.5", p)
	}
	p, err = GeneralizationPrecision([]int{0, 0}, []int{2, 4})
	if err != nil || p != 1 {
		t.Errorf("no generalization precision = %v, %v", p, err)
	}
	if _, err := GeneralizationPrecision([]int{1}, []int{1, 2}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := GeneralizationPrecision([]int{5}, []int{2}); err == nil {
		t.Error("out of range level accepted")
	}
	// Attributes with zero max level are skipped, not divided by zero.
	if _, err := GeneralizationPrecision([]int{0, 1}, []int{0, 2}); err != nil {
		t.Errorf("zero max level: %v", err)
	}
}

func TestNCP(t *testing.T) {
	orig, released := smallRelease(t)
	hs := hierarchy.MustSet(
		hierarchy.MustInterval("age", 0, 99, []float64{10}),
		hierarchy.MustCategory("sex", map[string][]string{"male": {"*"}, "female": {"*"}}),
	)
	ncp, err := NCP(orig, released, hs)
	if err != nil {
		t.Fatal(err)
	}
	// Age cells: width 10 over domain 15 => 10/15 each. Sex cells exact => 0.
	want := (10.0 / 15.0) / 2.0
	if math.Abs(ncp-want) > 1e-9 {
		t.Errorf("NCP = %v, want %v", ncp, want)
	}
	// The original table has zero NCP.
	zero, err := NCP(orig, orig, hs)
	if err != nil || zero != 0 {
		t.Errorf("NCP(original) = %v, %v", zero, err)
	}
	// A fully suppressed release has NCP 1.
	full := released.Clone()
	for r := 0; r < full.Len(); r++ {
		_ = full.SetValue(r, 0, dataset.SuppressedValue)
		_ = full.SetValue(r, 1, dataset.SuppressedValue)
	}
	one, err := NCP(orig, full, hs)
	if err != nil || one != 1 {
		t.Errorf("NCP(suppressed) = %v, %v", one, err)
	}
}

func TestNCPOrdersAlgorithms(t *testing.T) {
	// Mondrian at k=5 must lose less information than Mondrian at k=50.
	tbl := synth.Hospital(1200, 1)
	hs := synth.HospitalHierarchies()
	res5, err := mondrian.Anonymize(tbl, mondrian.Config{K: 5, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	res50, err := mondrian.Anonymize(tbl, mondrian.Config{K: 50, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	n5, err := NCP(tbl, res5.Table, hs)
	if err != nil {
		t.Fatal(err)
	}
	n50, err := NCP(tbl, res50.Table, hs)
	if err != nil {
		t.Fatal(err)
	}
	if n5 >= n50 {
		t.Errorf("NCP(k=5) = %v not below NCP(k=50) = %v", n5, n50)
	}
}

func TestAttributeDivergence(t *testing.T) {
	orig, released := smallRelease(t)
	// Identical sensitive columns: divergence near zero.
	d, err := AttributeDivergence(orig, released, "diag")
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("divergence of identical columns = %v", d)
	}
	// Distorted column: divergence strictly positive.
	distorted := released.Clone()
	for r := 0; r < distorted.Len(); r++ {
		_ = distorted.SetValue(r, 2, "flu")
	}
	d2, err := AttributeDivergence(orig, distorted, "diag")
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d {
		t.Errorf("distorted divergence %v not above identical %v", d2, d)
	}
	if _, err := AttributeDivergence(orig, released, "missing"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestExactAndEstimateCount(t *testing.T) {
	orig, released := smallRelease(t)
	q := CountQuery{Conditions: []Condition{
		{Attribute: "age", IsRange: true, Lo: 20, Hi: 30},
		{Attribute: "sex", Equals: "male"},
	}}
	truth, err := ExactCount(orig, q)
	if err != nil {
		t.Fatal(err)
	}
	if truth != 2 {
		t.Errorf("ExactCount = %d, want 2", truth)
	}
	hs := hierarchy.MustSet(
		hierarchy.MustInterval("age", 0, 99, []float64{10}),
		hierarchy.MustCategory("sex", map[string][]string{"male": {"*"}, "female": {"*"}}),
	)
	est, err := EstimateCount(released, q, hs)
	if err != nil {
		t.Fatal(err)
	}
	// Both male records lie fully inside [20,30): estimate 2.
	if math.Abs(est-2) > 1e-9 {
		t.Errorf("EstimateCount = %v, want 2", est)
	}
	// Partial overlap: [25,35) covers half of [20-30) and half of [30-40).
	q2 := CountQuery{Conditions: []Condition{{Attribute: "age", IsRange: true, Lo: 25, Hi: 35}}}
	est2, err := EstimateCount(released, q2, hs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est2-2) > 1e-9 {
		t.Errorf("partial overlap estimate = %v, want 2", est2)
	}
	if _, err := ExactCount(orig, CountQuery{Conditions: []Condition{{Attribute: "missing", Equals: "x"}}}); err == nil {
		t.Error("unknown attribute accepted by ExactCount")
	}
	if _, err := EstimateCount(released, CountQuery{Conditions: []Condition{{Attribute: "missing", Equals: "x"}}}, hs); err == nil {
		t.Error("unknown attribute accepted by EstimateCount")
	}
}

func TestMatchProbabilityCategorical(t *testing.T) {
	edu := hierarchy.MustCategory("edu", map[string][]string{
		"bachelors": {"higher", "*"},
		"masters":   {"higher", "*"},
		"hs-grad":   {"secondary", "*"},
	})
	// Released value "higher" covers 2 leaves; query for bachelors gets 1/2.
	p := matchProbability("higher", Condition{Attribute: "edu", Equals: "bachelors"}, edu)
	if math.Abs(p-0.5) > 1e-12 {
		t.Errorf("matchProbability = %v, want 0.5", p)
	}
	if p := matchProbability("secondary", Condition{Attribute: "edu", Equals: "bachelors"}, edu); p != 0 {
		t.Errorf("non-covering generalization probability = %v", p)
	}
	if p := matchProbability("*", Condition{Attribute: "edu", Equals: "bachelors"}, edu); math.Abs(p-1.0/3.0) > 1e-12 {
		t.Errorf("suppressed probability = %v, want 1/3", p)
	}
	if p := matchProbability("{a,b}", Condition{Attribute: "edu", Equals: "a"}, nil); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("set probability = %v, want 0.5", p)
	}
	if p := matchProbability("bachelors", Condition{Attribute: "edu", Equals: "bachelors"}, edu); p != 1 {
		t.Errorf("exact probability = %v", p)
	}
}

func TestRelativeErrorAndSummarize(t *testing.T) {
	if got := RelativeError(12, 10, 1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RelativeError = %v", got)
	}
	if got := RelativeError(5, 0, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RelativeError with sanity bound = %v", got)
	}
	if got := RelativeError(0, 0, 0); got != 0 {
		t.Errorf("degenerate RelativeError = %v", got)
	}
	s := Summarize([]float64{0.1, 0.5, 0.3})
	if math.Abs(s.Mean-0.3) > 1e-12 || s.Median != 0.3 || s.Max != 0.5 {
		t.Errorf("Summarize = %+v", s)
	}
	if s := Summarize(nil); s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
}

func TestGenerateAndEvaluateWorkload(t *testing.T) {
	tbl := synth.Hospital(1500, 2)
	hs := synth.HospitalHierarchies()
	w, err := GenerateWorkload(tbl, WorkloadConfig{
		Queries:   30,
		Sensitive: "diagnosis",
		Rng:       rand.New(rand.NewSource(3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 30 {
		t.Fatalf("workload size = %d", len(w.Queries))
	}
	for _, q := range w.Queries {
		if len(q.Conditions) < 2 {
			t.Errorf("query with too few predicates: %v", q)
		}
		if q.String() == "" {
			t.Error("empty query rendering")
		}
	}
	// The original table answers its own workload exactly.
	errsOrig, err := EvaluateWorkload(tbl, tbl, w, hs)
	if err != nil {
		t.Fatal(err)
	}
	if Summarize(errsOrig).Max > 1e-9 {
		t.Errorf("original-vs-original workload error = %v", Summarize(errsOrig))
	}
	// A k=25 generalized release answers with positive but bounded error.
	res, err := mondrian.Anonymize(tbl, mondrian.Config{K: 25, Hierarchies: hs})
	if err != nil {
		t.Fatal(err)
	}
	errsAnon, err := EvaluateWorkload(tbl, res.Table, w, hs)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(errsAnon)
	if s.Mean <= 0 {
		t.Error("anonymized release should not answer the workload exactly")
	}
	if s.Mean > 5 {
		t.Errorf("anonymized workload error unexpectedly large: %+v", s)
	}

	if _, err := GenerateWorkload(tbl, WorkloadConfig{Queries: 0}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := GenerateWorkload(tbl, WorkloadConfig{Queries: 5, Attributes: []string{"missing"}}); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := GenerateWorkload(tbl, WorkloadConfig{Queries: 5, Sensitive: "missing"}); err == nil {
		t.Error("unknown sensitive accepted")
	}
}

// TestDiscernibilityMatchesGroupBy compares Discernibility and
// NormalizedAverageClassSize with a reference built on GroupBy's classes,
// summed in GroupBy's class order, over Mondrian releases of the census and
// hospital fixtures and over the raw tables (whose class-count products take
// the kernel's hash branch), each with and without a suppression penalty.
func TestDiscernibilityMatchesGroupBy(t *testing.T) {
	var tables []*dataset.Table
	for _, tbl := range []*dataset.Table{synth.Census(1500, 2), synth.Hospital(900, 4)} {
		res, err := mondrian.Anonymize(tbl, mondrian.Config{K: 7})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl, res.Table)
	}
	for i, tbl := range tables {
		classes, err := tbl.GroupByQuasiIdentifier()
		if err != nil {
			t.Fatal(err)
		}
		for _, originalSize := range []int{tbl.Len(), tbl.Len() + 13} {
			want := 0.0
			for _, c := range classes {
				want += float64(c.Size()) * float64(c.Size())
			}
			if s := originalSize - tbl.Len(); s > 0 {
				want += float64(s) * float64(originalSize)
			}
			got, err := Discernibility(tbl, originalSize)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("table %d, original size %d: DM %v, GroupBy reference %v", i, originalSize, got, want)
			}
		}
		got, err := NormalizedAverageClassSize(tbl, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(tbl.Len()) / float64(len(classes)) / 3; got != want {
			t.Errorf("table %d: C_avg %v, GroupBy reference %v", i, got, want)
		}
	}
}
