package dataset

import (
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"github.com/ppdp/ppdp/internal/parallel"
)

// This file implements the table content fingerprint: a cheap, deterministic
// hash over a table's schema and cell values that changes whenever the data
// changes. It is the dataset half of the cross-request result-cache key (see
// internal/resultcache): two tables with the same fingerprint hold the same
// released bytes, so a memoized release computed from one is valid for the
// other. The row-content part is cached in the shared colCache and is
// invalidated exactly where the columnar caches are — Append/AppendTable drop
// it with invalidateAll, SetValue with invalidateCol — so a mutated table can
// never keep a stale fingerprint. CSV ingest computes the hash while
// streaming rows in (see csv.go), making the fingerprint free for the upload
// path that feeds the result cache.
//
// The hash is two 64-bit accumulators folded over per-cell FNV-1a hashes:
// each cell's bytes (plus a terminator, so boundaries stay unambiguous) are
// reduced to one 64-bit value, and the cell stream is then mixed into the
// accumulator pair with position-sensitive multiply-xor steps. Reducing cells
// first is what makes ingest-time hashing cheap: the dictionary-encoding loop
// hashes each distinct value once and folds a ready 64-bit word per cell,
// instead of re-hashing repeated cell bytes for every row.

// FNV-1a 64-bit parameters (hash/fnv's, inlined so the per-cell loop has no
// interface-call or buffer-copy overhead).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Second-accumulator constants: an independent offset (the splitmix64/golden
// ratio increment) and a distinct odd multiplier, so the pair does not
// collapse to one 64-bit state under the shared fold input.
const (
	fpOffsetB uint64 = 0x9e3779b97f4a7c15
	fpPrimeB  uint64 = 0x00000100000001b3 ^ 0xff51afd7ed558ccb
)

// cell and row terminators for fingerprint hashing. The cell terminator is
// hashed after every cell's bytes, so adjacent-cell content cannot collide
// with shifted boundaries; the row terminator is a fold sentinel
// distinguishing {"a","b"},{"c"} from {"a"},{"b","c"}.
const (
	fpCellSep        = 0x1f
	fpRowSep  uint64 = 0x1e
)

// hashCell reduces one cell to a 64-bit FNV-1a hash of its bytes followed by
// the cell terminator.
func hashCell(v string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= fnvPrime64
	}
	h ^= fpCellSep
	h *= fnvPrime64
	return h
}

// contentHasher folds a stream of per-cell hashes into a 128-bit accumulator
// pair. The multiply after every xor makes the fold position-sensitive:
// swapping two cells changes the result.
type contentHasher struct {
	a, b uint64
}

func newContentHasher() contentHasher {
	return contentHasher{a: fnvOffset64, b: fpOffsetB}
}

// fold mixes one pre-hashed cell into the accumulators.
func (c *contentHasher) fold(cellHash uint64) {
	c.a = (c.a ^ cellHash) * fnvPrime64
	c.b = (c.b ^ cellHash) * fpPrimeB
}

// cell hashes one cell value and folds it.
func (c *contentHasher) cell(v string) {
	c.fold(hashCell(v))
}

// endRow folds the row terminator.
func (c *contentHasher) endRow() {
	c.fold(fpRowSep)
}

// sum returns the accumulated hash in lowercase hex.
func (c *contentHasher) sum() string {
	var out [16]byte
	binary.BigEndian.PutUint64(out[:8], c.a)
	binary.BigEndian.PutUint64(out[8:], c.b)
	return hex.EncodeToString(out[:])
}

// rowsFingerprint hashes a row set from scratch. It is the rebuild path for
// tables whose fingerprint was invalidated by mutation (ingest computes the
// same hash incrementally while reading, via the dictionary memo).
func rowsFingerprint(rows []Row) string {
	ch := newContentHasher()
	for _, r := range rows {
		for _, v := range r {
			ch.cell(v)
		}
		ch.endRow()
	}
	return ch.sum()
}

// Parallel-rebuild tuning. Variables so equivalence tests can force the
// chunked path onto small fixtures.
var (
	// fpWindowRows bounds the word buffer: rows are hashed window-at-a-time
	// so the scratch stays cache-sized instead of O(rows).
	fpWindowRows = 4096
	// fpHashMinRows is the smallest per-worker chunk of the cell-hashing
	// pass; tables under twice this size take the plain sequential rebuild.
	fpHashMinRows = 512
)

// rowsFingerprintParallel rebuilds the row-content hash with the per-cell
// byte hashing — the dominant cost, roughly an order of magnitude more work
// per word than the fold — spread across workers, while the position-
// sensitive accumulator fold stays strictly sequential and in row order, so
// the result is bit-identical to rowsFingerprint for every worker count.
//
// The fold cannot itself be chunked: committed fingerprints (result-cache
// keys, content-addressed tables/<fp>.tbl filenames) pin the existing
// multiply-xor recurrence, and multiplication mod 2^64 does not distribute
// over xor, so per-chunk accumulators cannot be recombined with multiplier
// powers the way a true polynomial (multiply-add) hash would allow. Hashing
// cell bytes into a windowed word buffer in parallel and streaming the
// buffer through one hasher keeps the committed values while parallelizing
// the expensive part.
func rowsFingerprintParallel(rows []Row, workers int) string {
	n := len(rows)
	if n == 0 {
		return rowsFingerprint(rows)
	}
	k := len(rows[0])
	for _, r := range rows {
		if len(r) != k { // constructors enforce arity; stay safe if it ever breaks
			return rowsFingerprint(rows)
		}
	}
	stride := k + 1 // per-row cell hashes plus the row terminator
	window := fpWindowRows
	if window > n {
		window = n
	}
	words := make([]uint64, window*stride)
	ch := newContentHasher()
	for base := 0; base < n; base += window {
		m := n - base
		if m > window {
			m = window
		}
		parallel.Chunks(m, workers, fpHashMinRows, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				o := i * stride
				for j, v := range rows[base+i] {
					words[o+j] = hashCell(v)
				}
				words[o+k] = fpRowSep
			}
		})
		for _, w := range words[:m*stride] {
			ch.fold(w)
		}
	}
	return ch.sum()
}

// Fingerprint returns a deterministic content hash of the table: its schema
// (attribute names, kinds and types, in order) combined with every cell
// value. Tables with equal schemas and equal cell contents have equal
// fingerprints; any mutation — appending rows or overwriting a cell — yields
// a different one. The row-content hash is cached alongside the columnar
// caches and shares their invalidation, so repeated calls on an unchanged
// table are O(schema); the schema part is mixed in per call because
// WithSchema views share row storage (and therefore the cache) while
// differing in schema.
func (t *Table) Fingerprint() string {
	c := t.colcache()
	c.mu.Lock()
	if c.fp == "" {
		if src := t.src; src != nil {
			// Column-backed: hash each dictionary value once and fold from
			// the codes instead of materializing rows.
			c.fp = codedRowsFingerprint(src.n, src.cols)
		} else if rows := t.data(); t.scanParallelism() > 1 && len(rows) >= 2*fpHashMinRows {
			c.fp = rowsFingerprintParallel(rows, t.scanParallelism())
		} else {
			c.fp = rowsFingerprint(rows)
		}
	}
	rowsFP := c.fp
	c.mu.Unlock()

	ch := newContentHasher()
	for _, a := range t.schema.attrs {
		ch.cell(a.Name)
		ch.cell(strconv.Itoa(int(a.Kind)))
		ch.cell(strconv.Itoa(int(a.Type)))
		ch.endRow()
	}
	ch.cell(strconv.Itoa(t.Len()))
	ch.cell(rowsFP)
	return ch.sum()
}
