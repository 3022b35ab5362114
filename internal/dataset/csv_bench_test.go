// CSV ingest benchmarks live in an external test package so they can reuse
// the synthetic census family (internal/synth imports internal/dataset).
package dataset_test

import (
	"bytes"
	"testing"

	"github.com/ppdp/ppdp/internal/dataset"
	"github.com/ppdp/ppdp/internal/synth"
)

// BenchmarkReadCSV measures schema-directed ingest of the 5k census fixture:
// the streaming columnar path interns cell values, builds the coded and
// float columns and the content fingerprint in the same pass.
func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := synth.Census(5000, 1).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	schema := synth.CensusSchema()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadCSV(schema, bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCSVInferred measures the header-inferred variant on the same
// fixture.
func BenchmarkReadCSVInferred(b *testing.B) {
	var buf bytes.Buffer
	if err := synth.Census(5000, 1).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReadCSVInferred(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDropIdentifiers measures the run input every anonymization
// request starts from: the identifier-free projection of a stored 5k census
// table read from CSV. The first projection codes the kept columns on the
// stored table; every later one shares them.
func BenchmarkDropIdentifiers(b *testing.B) {
	var buf bytes.Buffer
	if err := synth.Census(5000, 1).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	tbl, err := dataset.ReadCSV(synth.CensusSchema(), &buf)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.DropIdentifiers(); err != nil {
			b.Fatal(err)
		}
	}
}
