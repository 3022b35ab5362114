package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"
)

// WriteCSV writes the table to w as RFC 4180 CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.schema.Names()); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for i, r := range t.data() {
		if err := cw.Write(r); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to the named file, creating or truncating it.
func (t *Table) WriteCSVFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dataset: close %s: %w", path, cerr)
		}
	}()
	return t.WriteCSV(f)
}

// ReadCSV reads a table from r. The first record must be a header naming
// columns in schema order; the header is validated against the schema.
func ReadCSV(schema *Schema, r io.Reader) (*Table, error) {
	size := sizeHint(r)
	sc := newRecordScanner(r, schema.Len())
	header, err := sc.Read()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	names := schema.Names()
	for i, h := range header {
		if h != names[i] {
			return nil, fmt.Errorf("dataset: header column %d is %q, want %q", i, h, names[i])
		}
	}
	return readRows(sc, schema, size)
}

// sizeHint reports the total bytes r will yield when it exposes them (for
// example bytes.Reader, bytes.Buffer and strings.Reader), or 0 when the size
// is unknown (network bodies). readRows uses it to pre-size the row and code
// storage after sampling the average record length.
func sizeHint(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	return 0
}

// ReadCSVFile reads a table from the named CSV file.
func ReadCSVFile(schema *Schema, path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	return ReadCSV(schema, f)
}

// ReadCSVInferred reads a table from r without a pre-declared schema: the
// header names become categorical, insensitive attributes. Callers normally
// re-type the result with Schema.WithKinds and Table.WithSchema afterwards.
func ReadCSVInferred(r io.Reader) (*Table, error) {
	size := sizeHint(r)
	sc := newRecordScanner(r, 0)
	header, err := sc.Read()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	attrs := make([]Attribute, len(header))
	for i, h := range header {
		attrs[i] = Attribute{Name: h, Kind: Insensitive, Type: Categorical}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, err
	}
	return readRows(sc, schema, size)
}

// recordScanner splits CSV records with a plain byte scan as long as the
// input stays quote-free — the overwhelmingly common case for machine-written
// data — and hands the remaining stream to encoding/csv the moment a quote
// byte appears, so quoted fields (embedded separators, escaped quotes,
// multi-line cells) keep full RFC 4180 semantics. The fast path allocates one
// backing string per record and reuses the field slice, exactly like
// encoding/csv with ReuseRecord: returned fields are substrings of a fresh
// per-record string and safe to retain.
type recordScanner struct {
	br     *bufio.Reader
	fields []string
	// want is the expected field count; 0 means "set from the first record".
	want int
	// off counts bytes consumed by the fast path; inputOffset adds the
	// fallback reader's own offset once one exists.
	off     int64
	line    int64
	scratch []byte
	// cr is non-nil once a quote forced the switch to encoding/csv; the
	// scanner never switches back.
	cr *csv.Reader
}

func newRecordScanner(r io.Reader, want int) *recordScanner {
	return &recordScanner{br: bufio.NewReaderSize(r, 64<<10), want: want}
}

// inputOffset returns the number of input bytes consumed so far.
func (s *recordScanner) inputOffset() int64 {
	if s.cr != nil {
		return s.off + s.cr.InputOffset()
	}
	return s.off
}

// readLine returns the next raw line including its terminator, accumulating
// through scratch when the line outgrows the buffer. A final unterminated
// line is returned as-is; io.EOF only when no bytes remain.
func (s *recordScanner) readLine() ([]byte, error) {
	raw, err := s.br.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(raw) > 0) {
		return raw, nil
	}
	if err == bufio.ErrBufferFull {
		s.scratch = append(s.scratch[:0], raw...)
		for err == bufio.ErrBufferFull {
			raw, err = s.br.ReadSlice('\n')
			s.scratch = append(s.scratch, raw...)
		}
		if err == nil || (err == io.EOF && len(s.scratch) > 0) {
			return s.scratch, nil
		}
	}
	return nil, err
}

// Read returns the fields of the next record. The returned slice is reused by
// the next call; the field strings are not.
func (s *recordScanner) Read() ([]string, error) {
	if s.cr != nil {
		return s.cr.Read()
	}
	for {
		raw, err := s.readLine()
		if err != nil {
			return nil, err
		}
		s.off += int64(len(raw))
		s.line++
		rec := raw
		if n := len(rec); n > 0 && rec[n-1] == '\n' {
			rec = rec[:n-1]
		}
		if n := len(rec); n > 0 && rec[n-1] == '\r' {
			rec = rec[:n-1]
		}
		if len(rec) == 0 {
			continue // encoding/csv skips blank lines too
		}
		if bytes.IndexByte(rec, '"') >= 0 {
			// Quoted data: replay this line (with its terminator) ahead of
			// the untouched remainder through encoding/csv, permanently.
			s.off -= int64(len(raw))
			replay := append([]byte(nil), raw...)
			s.cr = csv.NewReader(io.MultiReader(bytes.NewReader(replay), s.br))
			s.cr.FieldsPerRecord = s.want
			s.cr.ReuseRecord = true
			return s.cr.Read()
		}
		str := string(rec)
		fields := s.fields[:0]
		for {
			i := strings.IndexByte(str, ',')
			if i < 0 {
				fields = append(fields, str)
				break
			}
			fields = append(fields, str[:i])
			str = str[i+1:]
		}
		s.fields = fields
		if s.want == 0 {
			s.want = len(fields)
		} else if len(fields) != s.want {
			return nil, &csv.ParseError{StartLine: int(s.line), Line: int(s.line), Err: csv.ErrFieldCount}
		}
		return fields, nil
	}
}

// arenaBlockCells bounds the string-header arena blocks rows are packed into:
// blocks grow geometrically from a few rows up to this many row slots, so
// small files stay small and large files amortize to one allocation per
// thousands of rows.
const arenaBlockCells = 64 * 1024

// Adaptive interning bounds: once a column has been sampled for
// internSampleRows rows, interning stops for it if more than half its cells
// were distinct — dictionary-encoding a near-unique column (record ids,
// names, continuous measurements) costs map inserts, clones and a
// rank sort for a view nothing will group by. The rule only looks at the
// column's own prefix, so the decision is deterministic for a given content.
const internSampleRows = 256

// readRows streams every remaining record of sc into a new table over
// schema. It is the single ingest loop behind ReadCSV and ReadCSVInferred
// and replaces the old per-row Append path with a columnar fast path:
//
//   - records are split by the quote-free byte scanner above (encoding/csv
//     takes over on the first quote), rows are packed into shared arena
//     blocks instead of one slice allocation per row, and the record slice
//     is reused;
//   - every cell of a groupable (low-cardinality) column is interned through
//     a per-column dictionary, so repeated values share one string
//     allocation across the whole column, and the dictionaries become the
//     table's CodedColumn caches (numeric attributes later derive their
//     parse-once FloatColumn from the dictionary, each distinct value parsed
//     exactly once); near-unique columns opt out after a sampled prefix and
//     keep the csv reader's per-record field strings as-is;
//   - the content fingerprint is folded in the same pass — each distinct
//     value is byte-hashed once when it enters the dictionary, and every
//     repeat folds the memoized 64-bit word;
//   - when the reader exposes its size (buffers, files read into memory),
//     the row and code storage is pre-sized from the average record length
//     of the first rows, eliminating append-doubling churn —
//
// so the coded views and the result-cache key are ready the moment the
// table exists, with no invalidate/rebuild churn and nothing hashed twice.
func readRows(sc *recordScanner, schema *Schema, size int64) (*Table, error) {
	k := schema.Len()
	sc.want = k

	cols := make([]*CodedColumn, k)
	dictHash := make([][]uint64, k)
	for i := range cols {
		cols[i] = &CodedColumn{index: make(map[string]uint32)}
	}
	hasher := newContentHasher()
	var rows []Row
	var arena []string
	blockCells := 64 * k
	startOff := sc.inputOffset()
	for {
		rec, err := sc.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read row: %w", err)
		}
		if len(arena) < k {
			arena = make([]string, blockCells)
			if blockCells < arenaBlockCells {
				blockCells *= 2
			}
		}
		row := Row(arena[:k:k])
		arena = arena[k:]
		for i, v := range rec {
			cc := cols[i]
			if cc == nil {
				// Interning disabled for this column: both scanner paths
				// allocate a fresh backing string per record (only the field
				// slice is reused), so retaining v is safe.
				row[i] = v
				hasher.fold(hashCell(v))
				continue
			}
			code, ok := cc.index[v]
			if !ok {
				if len(cc.Codes) >= internSampleRows && 2*len(cc.Dict) > len(cc.Codes) {
					cols[i] = nil
					row[i] = v
					hasher.fold(hashCell(v))
					continue
				}
				code = uint32(len(cc.Dict))
				cc.Dict = append(cc.Dict, strings.Clone(v))
				cc.index[cc.Dict[code]] = code
				dictHash[i] = append(dictHash[i], hashCell(cc.Dict[code]))
			}
			row[i] = cc.Dict[code]
			cc.Codes = append(cc.Codes, code)
			hasher.fold(dictHash[i][code])
		}
		hasher.endRow()
		rows = append(rows, row)
		if len(rows) == internSampleRows && size > 0 {
			// Pre-size the remaining storage from the sampled record length.
			consumed := sc.inputOffset() - startOff
			est := len(rows) + int(int64(len(rows))*(size-startOff-consumed)/consumed)
			est += est / 8 // slack for shorter records ahead
			if est > cap(rows) {
				grown := make([]Row, len(rows), est)
				copy(grown, rows)
				rows = grown
				need := (est - len(rows)) * k
				if len(arena) < need {
					arena = make([]string, need)
				}
				for _, cc := range cols {
					if cc == nil || cap(cc.Codes) >= est {
						continue
					}
					codes := make([]uint32, len(cc.Codes), est)
					copy(codes, cc.Codes)
					cc.Codes = codes
				}
			}
		}
	}

	t := NewTable(schema)
	t.rows = rows
	c := t.cache
	c.codes = make(map[int]*CodedColumn, k)
	for i, cc := range cols {
		if cc == nil {
			continue
		}
		cc.buildRanks()
		cc.checked.Store(true)
		c.codes[i] = cc
	}
	c.fp = hasher.sum()
	return t, nil
}
