package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"runtime"

	"github.com/ppdp/ppdp/internal/parallel"
)

// This file implements the on-disk columnar snapshot format: a binary,
// mmap-friendly serialization of the typed column views (CodedColumn /
// FloatColumn) that lets a table be reopened in O(page-fault) instead of
// O(re-parse) and scanned without copying cell bytes onto the heap.
//
// Layout (all integers little-endian):
//
//	magic  [8]byte  "PPDPCOL1"
//	hlen   uint32   length of the JSON header
//	hcrc   uint32   CRC-32 (IEEE) of the JSON header bytes
//	header hlen bytes of JSON (snapHeader): schema, row count, the table
//	       fingerprint, and the offset/length/CRC of every column segment
//	       (segment offsets are relative to the page-aligned data start,
//	       so the header never depends on its own encoded length)
//	...    zero padding to the next page boundary
//	data   one segment per column, each starting page-aligned
//
// A column segment packs, 8-byte aligned back to back:
//
//	dictIdx  (dictLen+1) × uint32   value boundaries into the dict blob
//	ranks    dictLen × uint32       byte-lexicographic rank per code
//	codes    rows × uint32          one dictionary code per row
//	[floats  rows × float64]        parsed values (numeric attributes only)
//	[valid   rows × byte]           0/1 parse-validity (numeric only)
//	dict     blob of concatenated value bytes
//
// Every segment carries a CRC-32 in the header, and the header embeds the
// table's content fingerprint; OpenSnapshot verifies both, so a torn or
// corrupted snapshot is refused instead of served. Loaded columns alias the
// mapping (see cast.go): codes, ranks and float arrays are reinterpreted in
// place, and dictionary strings point into the mapped blob, so a cold table
// shares pages with the OS cache instead of the Go heap until first write
// (see Table.promote).

// snapshotMagic identifies a columnar snapshot file.
var snapshotMagic = [8]byte{'P', 'P', 'D', 'P', 'C', 'O', 'L', '1'}

// snapshotPage is the alignment of the data region and of every column
// segment. It matches the common OS page size; larger pages (e.g. 16K on
// Apple Silicon) keep the mmap base page-aligned anyway, and 8-byte section
// alignment is all the typed views require.
const snapshotPage = 4096

// ErrSnapshotCorrupt is returned by OpenSnapshot when a snapshot fails
// structural validation, a segment CRC, or the content-fingerprint check.
var ErrSnapshotCorrupt = errors.New("dataset: snapshot corrupt")

// snapHeader is the JSON header of a snapshot file.
type snapHeader struct {
	Version     int        `json:"version"`
	Rows        int        `json:"rows"`
	Fingerprint string     `json:"fingerprint"`
	RowsFP      string     `json:"rows_fp"`
	Attrs       []snapAttr `json:"attrs"`
	Cols        []snapCol  `json:"cols"`
}

type snapAttr struct {
	Name string `json:"name"`
	Kind int    `json:"kind"`
	Type int    `json:"type"`
}

// snapCol locates one column segment. Offsets named off* are relative to the
// segment start; SegOff is relative to the page-aligned data start.
type snapCol struct {
	SegOff    int64      `json:"seg_off"`
	SegLen    int64      `json:"seg_len"`
	CRC       uint32     `json:"crc"`
	DictLen   int        `json:"dict_len"`
	DictBytes int64      `json:"dict_bytes"`
	Clean     bool       `json:"clean"`
	OffRanks  int64      `json:"off_ranks"`
	OffCodes  int64      `json:"off_codes"`
	OffDict   int64      `json:"off_dict"`
	Float     *snapFloat `json:"float,omitempty"`
}

type snapFloat struct {
	Off        int64   `json:"off"`
	OffValid   int64   `json:"off_valid"`
	ValidCount int     `json:"valid_count"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

func alignPage(n int64) int64 { return (n + snapshotPage - 1) &^ (snapshotPage - 1) }

// snapColumns builds the typed views the snapshot serializes: the coded view
// of every column, plus the parse-once float view for numeric attributes.
func (t *Table) snapColumns() ([]*CodedColumn, []*FloatColumn, error) {
	k := t.schema.Len()
	codes := make([]*CodedColumn, k)
	floats := make([]*FloatColumn, k)
	for i := 0; i < k; i++ {
		cc, err := t.CodedColumn(i)
		if err != nil {
			return nil, nil, err
		}
		codes[i] = cc
		if t.schema.Attribute(i).Type == Numeric {
			fc, err := t.FloatColumn(i)
			if err != nil {
				return nil, nil, err
			}
			floats[i] = fc
		}
	}
	return codes, floats, nil
}

// layoutCol computes one column's segment layout and returns the segment
// length. Subsections are 8-byte aligned; the variable-length dict blob sits
// last.
func layoutCol(rows int, cc *CodedColumn, fc *FloatColumn, col *snapCol) int64 {
	d := int64(len(cc.Dict))
	var dictBytes int64
	for _, v := range cc.Dict {
		dictBytes += int64(len(v))
	}
	cur := (d + 1) * 4 // dictIdx at offset 0
	cur = align8(cur)
	col.OffRanks = cur
	cur += d * 4
	cur = align8(cur)
	col.OffCodes = cur
	cur += int64(rows) * 4
	if fc != nil {
		cur = align8(cur)
		col.Float = &snapFloat{Off: cur, ValidCount: fc.ValidCount}
		if fc.ValidCount > 0 {
			// The no-valid-cells sentinels are ±Inf, which JSON cannot carry;
			// they are implied by ValidCount == 0 and restored at load.
			col.Float.Min, col.Float.Max = fc.Min, fc.Max
		}
		cur += int64(rows) * 8
		col.Float.OffValid = cur
		cur += int64(rows)
	}
	cur = align8(cur)
	col.OffDict = cur
	cur += dictBytes
	col.DictLen = int(d)
	col.DictBytes = dictBytes
	col.Clean = cc.clean
	return cur
}

// segmentWriter writes one column segment, tracking offset and CRC so the
// encoder can run the same code in the layout/CRC pass (w == io.Discard) and
// the output pass.
type segmentWriter struct {
	w   io.Writer
	off int64
	crc uint32
	err error
}

func (s *segmentWriter) write(b []byte) {
	if s.err != nil {
		return
	}
	s.crc = crc32.Update(s.crc, crc32.IEEETable, b)
	n, err := s.w.Write(b)
	s.off += int64(n)
	s.err = err
}

var zeroPad [snapshotPage]byte

// pad writes zero bytes until off reaches target (target >= off).
func (s *segmentWriter) pad(target int64) {
	for s.err == nil && s.off < target {
		n := target - s.off
		if n > int64(len(zeroPad)) {
			n = int64(len(zeroPad))
		}
		s.write(zeroPad[:n])
	}
}

// writeSegment serializes one column segment per the layout in col.
func writeSegment(w io.Writer, rows int, cc *CodedColumn, fc *FloatColumn, col *snapCol) (uint32, error) {
	s := &segmentWriter{w: w}
	// dictIdx: cumulative value boundaries.
	idx := make([]uint32, len(cc.Dict)+1)
	var cum uint32
	for i, v := range cc.Dict {
		idx[i] = cum
		cum += uint32(len(v))
	}
	idx[len(cc.Dict)] = cum
	s.write(u32Bytes(idx))
	s.pad(col.OffRanks)
	s.write(u32Bytes(cc.ranks))
	s.pad(col.OffCodes)
	s.write(u32Bytes(cc.Codes))
	if fc != nil {
		s.pad(col.Float.Off)
		s.write(f64Bytes(fc.Values))
		s.write(boolBytes(fc.Valid))
	}
	s.pad(col.OffDict)
	for _, v := range cc.Dict {
		s.write([]byte(v))
	}
	return s.crc, s.err
}

// WriteSnapshot serializes the table in the binary columnar snapshot format.
// The stream embeds the table's Fingerprint, so OpenSnapshot (and any caller
// holding an expected fingerprint) can verify the loaded content.
func (t *Table) WriteSnapshot(w io.Writer) error {
	codes, floats, err := t.snapColumns()
	if err != nil {
		return err
	}
	// Fingerprint() caches the row-content hash; snapshots persist both so a
	// load can seed the cache without touching row storage.
	full := t.Fingerprint()
	c := t.colcache()
	c.mu.Lock()
	rowsFP := c.fp
	c.mu.Unlock()

	h := snapHeader{Version: 1, Rows: t.Len(), Fingerprint: full, RowsFP: rowsFP}
	for _, a := range t.schema.Attributes() {
		h.Attrs = append(h.Attrs, snapAttr{Name: a.Name, Kind: int(a.Kind), Type: int(a.Type)})
	}
	h.Cols = make([]snapCol, len(codes))

	// Pass 1: layout + CRC (the header precedes the segments it describes, so
	// segment checksums are computed before anything is written). The layout
	// walk is a cheap cursor pass; the CRC encode — the expensive part — runs
	// one worker per column when the table has a scan-worker bound, which
	// cannot change the bytes: each column's checksum depends only on its own
	// already-fixed layout.
	var cur int64
	for i, cc := range codes {
		cur = alignPage(cur)
		h.Cols[i].SegOff = cur
		h.Cols[i].SegLen = layoutCol(h.Rows, cc, floats[i], &h.Cols[i])
		cur = h.Cols[i].SegOff + h.Cols[i].SegLen
	}
	crcs, err := parallel.Map(len(codes), t.scanParallelism(), func(i int) (uint32, error) {
		return writeSegment(io.Discard, h.Rows, codes[i], floats[i], &h.Cols[i])
	})
	if err != nil {
		return err
	}
	for i, crc := range crcs {
		h.Cols[i].CRC = crc
	}

	hdr, err := json.Marshal(h)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	out := &segmentWriter{w: bw}
	var fixed [16]byte
	copy(fixed[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(fixed[8:12], uint32(len(hdr)))
	binary.LittleEndian.PutUint32(fixed[12:16], crc32.ChecksumIEEE(hdr))
	out.write(fixed[:])
	out.write(hdr)
	dataStart := alignPage(out.off)
	out.pad(dataStart)

	// Pass 2: the segments themselves.
	for i, cc := range codes {
		out.pad(dataStart + h.Cols[i].SegOff)
		crc, err := writeSegment(bw, h.Rows, cc, floats[i], &h.Cols[i])
		if err != nil {
			return err
		}
		out.off += h.Cols[i].SegLen
		if crc != h.Cols[i].CRC {
			return fmt.Errorf("dataset: snapshot encode pass mismatch on column %d", i)
		}
	}
	if out.err != nil {
		return out.err
	}
	return bw.Flush()
}

// MappedTable is a table loaded from a columnar snapshot. The table's column
// views and dictionary strings alias the underlying mapping: they stay valid
// until Close, and Close must not be called while the table (or any table
// derived from it without a deep copy) is still in use. Mutating the table
// promotes it to heap row storage first (see Table.promote), but promoted
// cells still share dictionary bytes with the mapping, so the lifetime rule
// stands. Long-running services keep mappings open for the process lifetime;
// the OS reclaims cold pages under memory pressure either way.
type MappedTable struct {
	tbl    *Table
	unmap  func() error
	size   int64
	closed bool
	// path and the header fingerprints are kept for VerifyContent.
	path        string
	rowsFP      string
	fingerprint string
}

// Table returns the loaded table.
func (m *MappedTable) Table() *Table { return m.tbl }

// Size returns the snapshot file size in bytes.
func (m *MappedTable) Size() int64 { return m.size }

// VerifyContent recomputes the row-content fingerprint from the decoded
// columns (hashing each distinct dictionary value once) and the full table
// fingerprint, and compares both against the header. OpenSnapshot already
// proves the bytes on disk are the bytes that were written (header and
// per-segment CRCs); this pass additionally proves the decoder reproduces
// the exact cell values the writer hashed, guarding against codec bugs and
// hand-forged headers. It scans every cell, so it is for integrity audits
// and tests, not the boot path.
func (m *MappedTable) VerifyContent() error {
	cols := make([]*CodedColumn, m.tbl.schema.Len())
	for i := range cols {
		cc, err := m.tbl.CodedColumn(i)
		if err != nil {
			return err
		}
		cols[i] = cc
	}
	if got := codedRowsFingerprint(m.tbl.Len(), cols); got != m.rowsFP {
		return corrupt("%s: row-content fingerprint mismatch (got %s, want %s)", m.path, got, m.rowsFP)
	}
	if got := m.tbl.Fingerprint(); got != m.fingerprint {
		return corrupt("%s: table fingerprint mismatch (got %s, want %s)", m.path, got, m.fingerprint)
	}
	return nil
}

// Close unmaps the snapshot. The loaded table must no longer be used.
func (m *MappedTable) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	return m.unmap()
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
}

// OpenSnapshot maps the snapshot at path and reconstructs its table with
// zero-copy column views. Structural bounds, the header CRC and every
// segment CRC are verified before the table is returned — a snapshot that
// fails any check yields ErrSnapshotCorrupt instead of a table, so corrupted
// data can never be served. The embedded content fingerprint is trusted from
// the CRC-protected header rather than recomputed cell by cell, keeping open
// cost at "hash the file once", which is what makes boot-time recovery of
// many tables instant; VerifyContent runs the full recompute on demand.
func OpenSnapshot(path string) (*MappedTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < 16 {
		return nil, corrupt("%s: file too small (%d bytes)", path, size)
	}
	data, unmap, err := mmapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("dataset: map snapshot %s: %w", path, err)
	}
	mt, err := snapshotFromMapping(path, data, runtime.GOMAXPROCS(0))
	if err != nil {
		_ = unmap()
		return nil, err
	}
	mt.unmap = unmap
	mt.size = size
	return mt, nil
}

// snapshotFromMapping validates and decodes a mapped snapshot. Column
// segments decode (CRC + bounds checks + dictionary views) on up to workers
// goroutines — columns are independent, and parallel.Map reports the
// lowest-indexed failing column, so corrupt snapshots yield the same error
// the sequential walk did.
func snapshotFromMapping(path string, data []byte, workers int) (*MappedTable, error) {
	if string(data[:8]) != string(snapshotMagic[:]) {
		return nil, corrupt("%s: bad magic", path)
	}
	hlen := int64(binary.LittleEndian.Uint32(data[8:12]))
	hcrc := binary.LittleEndian.Uint32(data[12:16])
	if 16+hlen > int64(len(data)) {
		return nil, corrupt("%s: header length %d exceeds file", path, hlen)
	}
	hdr := data[16 : 16+hlen]
	if crc32.ChecksumIEEE(hdr) != hcrc {
		return nil, corrupt("%s: header checksum mismatch", path)
	}
	var h snapHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		return nil, corrupt("%s: header: %v", path, err)
	}
	if h.Version != 1 {
		return nil, corrupt("%s: unsupported snapshot version %d", path, h.Version)
	}
	if h.Rows < 0 || len(h.Attrs) == 0 || len(h.Cols) != len(h.Attrs) {
		return nil, corrupt("%s: inconsistent header (%d rows, %d attrs, %d cols)",
			path, h.Rows, len(h.Attrs), len(h.Cols))
	}
	attrs := make([]Attribute, len(h.Attrs))
	for i, a := range h.Attrs {
		attrs[i] = Attribute{Name: a.Name, Kind: Kind(a.Kind), Type: Type(a.Type)}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, corrupt("%s: schema: %v", path, err)
	}

	dataStart := alignPage(16 + hlen)
	type seg struct {
		cc *CodedColumn
		fc *FloatColumn
	}
	segs, err := parallel.Map(len(h.Cols), workers, func(i int) (seg, error) {
		cc, fc, err := decodeSegment(path, data, dataStart, h.Rows, &h.Cols[i])
		return seg{cc: cc, fc: fc}, err
	})
	if err != nil {
		return nil, err
	}
	cols := make([]*CodedColumn, len(h.Cols))
	floats := make(map[int]*FloatColumn)
	for i, s := range segs {
		cols[i] = s.cc
		if s.fc != nil {
			floats[i] = s.fc
		}
	}

	t, err := FromCodedColumns(schema, cols)
	if err != nil {
		return nil, corrupt("%s: %v", path, err)
	}
	if len(floats) > 0 {
		t.cache.floats = make(map[int]*FloatColumn, len(floats))
		for i, fc := range floats {
			t.cache.floats[i] = fc
		}
	}
	t.cache.fp = h.RowsFP
	// Cheap cross-check of the header's two fingerprints (the cached rows
	// hash makes Fingerprint a schema-hash fold, not a row scan). The full
	// cell-by-cell recompute is VerifyContent's job.
	if got := t.Fingerprint(); got != h.Fingerprint {
		return nil, corrupt("%s: table fingerprint mismatch (got %s, want %s)", path, got, h.Fingerprint)
	}
	return &MappedTable{tbl: t, path: path, rowsFP: h.RowsFP, fingerprint: h.Fingerprint}, nil
}

// slice bounds-checks one subsection of a segment and returns it.
func slice(path string, data []byte, start, length int64, what string) ([]byte, error) {
	if start < 0 || length < 0 || start+length > int64(len(data)) {
		return nil, corrupt("%s: %s [%d,+%d) out of bounds (file %d bytes)",
			path, what, start, length, len(data))
	}
	return data[start : start+length], nil
}

// decodeSegment verifies one column segment's CRC and builds its zero-copy
// views.
func decodeSegment(path string, data []byte, dataStart int64, rows int, col *snapCol) (*CodedColumn, *FloatColumn, error) {
	segStart := dataStart + col.SegOff
	seg, err := slice(path, data, segStart, col.SegLen, "column segment")
	if err != nil {
		return nil, nil, err
	}
	if crc32.ChecksumIEEE(seg) != col.CRC {
		return nil, nil, corrupt("%s: column segment at %d: checksum mismatch", path, segStart)
	}
	d := int64(col.DictLen)
	idxB, err := slice(path, seg, 0, (d+1)*4, "dict index")
	if err != nil {
		return nil, nil, err
	}
	ranksB, err := slice(path, seg, col.OffRanks, d*4, "ranks")
	if err != nil {
		return nil, nil, err
	}
	codesB, err := slice(path, seg, col.OffCodes, int64(rows)*4, "codes")
	if err != nil {
		return nil, nil, err
	}
	dictB, err := slice(path, seg, col.OffDict, col.DictBytes, "dict blob")
	if err != nil {
		return nil, nil, err
	}
	idx := u32View(idxB)
	dict := make([]string, col.DictLen)
	for i := range dict {
		lo, hi := int64(idx[i]), int64(idx[i+1])
		if lo > hi || hi > col.DictBytes {
			return nil, nil, corrupt("%s: dict entry %d bounds [%d,%d) invalid", path, i, lo, hi)
		}
		dict[i] = viewString(dictB[lo:hi])
	}
	cc := &CodedColumn{
		Codes: u32View(codesB),
		Dict:  dict,
		ranks: u32View(ranksB),
		clean: col.Clean,
		// index stays nil: Code() builds it lazily on first use, so opening a
		// snapshot never pays O(dict) map construction per column.
	}
	// The encoding check FromCodedColumns requires runs here, one column
	// per worker, and marks the column so the constructor skips it.
	if err := cc.checkFirstAppearance(); err != nil {
		return nil, nil, corrupt("%s: column segment at %d: %v", path, segStart, err)
	}
	cc.checked.Store(true)
	var fc *FloatColumn
	if col.Float != nil {
		valB, err := slice(path, seg, col.Float.Off, int64(rows)*8, "float values")
		if err != nil {
			return nil, nil, err
		}
		validB, err := slice(path, seg, col.Float.OffValid, int64(rows), "float validity")
		if err != nil {
			return nil, nil, err
		}
		fc = &FloatColumn{
			Values:     f64View(valB),
			Valid:      boolView(validB),
			ValidCount: col.Float.ValidCount,
			Min:        col.Float.Min,
			Max:        col.Float.Max,
		}
		if fc.ValidCount == 0 {
			fc.Min, fc.Max = math.Inf(1), math.Inf(-1)
		}
	}
	return cc, fc, nil
}

// codedRowsFingerprint recomputes the row-content fingerprint from coded
// columns, hashing each distinct dictionary value once and folding the
// per-cell words in row order — the exact stream rowsFingerprint produces
// from row storage.
func codedRowsFingerprint(rows int, cols []*CodedColumn) string {
	memo := make([][]uint64, len(cols))
	for j, cc := range cols {
		m := make([]uint64, len(cc.Dict))
		for code, v := range cc.Dict {
			m[code] = hashCell(v)
		}
		memo[j] = m
	}
	ch := newContentHasher()
	for i := 0; i < rows; i++ {
		for j, cc := range cols {
			ch.fold(memo[j][cc.Codes[i]])
		}
		ch.endRow()
	}
	return ch.sum()
}
