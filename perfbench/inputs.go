package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/policy"
	"github.com/ppdp/ppdp/internal/synth"
)

// input is one generated dataset: the table as generated (identifiers
// included) and the CSV bytes uploaded to the service.
type input struct {
	name   string
	family *synth.Family
	table  *dataset.Table
	csv    []byte
}

// mixItem is one anonymize request of the seeded request mix.
type mixItem struct {
	label     string
	dataset   string
	algorithm string
	policy    *policy.Policy
	qi        []string
	// k and l are the privacy levels every response is checked against.
	k, l int
}

// latticeQI is the 5-attribute quasi-identifier the full-domain lattice
// searches (topdown, datafly, samarati) run on, the set their package
// benchmarks use. On the full 9-attribute census quasi-identifier samarati
// at 5k rows runs past the service's 60 s default deadline and is answered
// 504, so the mix restricts the lattice searches to these five.
var latticeQI = []string{"age", "sex", "education", "marital-status", "race"}

// inputs is everything a run generates from its seed. The service sees only
// these generated inputs: CSV uploads and request bodies.
type inputs struct {
	seed     int64
	datasets []*input
	mix      []mixItem
	rng      *rand.Rand
}

func newInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	census, _ := synth.FamilyByName("census") // both families are always registered
	hospital, _ := synth.FamilyByName("hospital")
	in := &inputs{seed: seed, rng: rng}
	for _, d := range []struct {
		name   string
		family *synth.Family
		rows   int
	}{
		{"census-5k", census, 5000},
		{"hospital-5k", hospital, 5000},
		{"census-2k", census, 2000},
	} {
		t := d.family.Generate(d.rows, rng.Int63())
		in.datasets = append(in.datasets, &input{name: d.name, family: d.family, table: t, csv: csvOf(t)})
	}
	in.mix = []mixItem{
		{label: "census-5k mondrian k=5", dataset: "census-5k", algorithm: "mondrian", policy: kPolicy(5, 0), k: 5},
		{label: "census-5k mondrian k=25", dataset: "census-5k", algorithm: "mondrian", policy: kPolicy(25, 0), k: 25},
		{label: "census-5k topdown k=10", dataset: "census-5k", algorithm: "topdown", policy: kPolicy(10, 0), qi: latticeQI, k: 10},
		{label: "census-5k datafly k=10", dataset: "census-5k", algorithm: "datafly", policy: kPolicy(10, 0.02), qi: latticeQI, k: 10},
		{label: "hospital-5k mondrian k=10", dataset: "hospital-5k", algorithm: "mondrian", policy: kPolicy(10, 0), k: 10},
		{label: "hospital-5k datafly k=10", dataset: "hospital-5k", algorithm: "datafly", policy: kPolicy(10, 0.02), k: 10},
		{label: "hospital-5k anatomy l=3", dataset: "hospital-5k", algorithm: "anatomy",
			policy: &policy.Policy{Version: policy.Version, Criteria: []policy.Criterion{{Type: policy.DistinctLDiversity, L: 3}}}, l: 3},
		// No suppression budget for samarati: with the 2% budget the height
		// it finds flips between 6 and 7 from seed to seed, and its work
		// (half of this mix's CPU) by 20% with it; without one it finds
		// height 8 on every seed tried.
		{label: "census-2k samarati k=10", dataset: "census-2k", algorithm: "samarati", policy: kPolicy(10, 0), qi: latticeQI, k: 10},
	}
	return in
}

// kPolicy is a k-anonymity policy with an optional suppression budget (the
// 0.02 the flat parameters default to for datafly and samarati).
func kPolicy(k int, suppression float64) *policy.Policy {
	p := &policy.Policy{Version: policy.Version, Criteria: []policy.Criterion{{Type: policy.KAnonymity, K: k}}}
	if suppression > 0 {
		p.Suppression = &policy.Suppression{MaxFraction: suppression}
	}
	return p
}

func (in *inputs) dataset(name string) *input {
	for _, d := range in.datasets {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: unknown dataset " + name)
}

// anonymizeBody is the POST /v1/anonymize body of a mix item.
func (m mixItem) anonymizeBody(noCache, store bool) []byte {
	body, err := json.Marshal(map[string]any{
		"dataset":           m.dataset,
		"algorithm":         m.algorithm,
		"policy":            m.policy,
		"quasi_identifiers": m.qi,
		"no_cache":          noCache,
		"store":             store,
	})
	if err != nil {
		panic(err) // the request types always encode
	}
	return body
}

// csvOf renders a table as the CSV a client uploads.
func csvOf(t *dataset.Table) []byte {
	var buf bytes.Buffer
	if err := t.WriteCSV(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// newIndividuals generates chunks CSV chunks of size census records each, of
// people not in the base table. Each chunk is generated on its own, so the
// generator never holds more than one chunk's table. Their direct
// identifiers are unique across the run.
func (in *inputs) newIndividuals(chunks, size int) [][]byte {
	census, _ := synth.FamilyByName("census") // always registered
	out := make([][]byte, chunks)
	for c := range out {
		t := census.Generate(size, in.rng.Int63())
		part := dataset.NewTable(t.Schema())
		for i, row := range t.Rows() {
			row = append(dataset.Row(nil), row...)
			row[0] = fmt.Sprintf("new-%d-%06d", in.seed, c*size+i)
			if err := part.Append(row); err != nil {
				panic(err) // same schema, same arity
			}
		}
		out[c] = csvOf(part)
	}
	return out
}
