// Package dataset provides the in-memory tabular data model used throughout
// the PPDP library: schemas, typed attributes, tables,
// equivalence-class partitioning, projections, sampling and CSV interchange.
//
// # Model
//
// The model follows the conventions of the privacy-preserving data publishing
// literature. Every attribute carries a Kind that describes its disclosure
// role (identifier, quasi-identifier, sensitive, insensitive) and a Type that
// describes how its values are interpreted (categorical or numeric). Values
// are stored as strings; numeric attributes are parsed on demand, which keeps
// the table representation uniform across original, generalized and perturbed
// releases (a generalized numeric value such as "[20-29]" is no longer a
// number).
//
// # Columnar views
//
// A table is row-backed (string rows are the source of truth: FromRows, CSV
// ingest, mutated tables) or column-backed (one immutable CodedColumn per
// attribute is the source of truth: FromCodedColumns, snapshots, recodings,
// every Project and DropIdentifiers result), and a column-backed table
// builds rows only when a caller asks for them. A projection shares its
// parent's coded columns: projecting a row-backed table codes each kept
// column once on the parent, and every later projection reuses it.
// Either way, hot paths never re-parse or re-join row strings:
// Table.FloatColumn returns a parse-once numeric view (values, validity,
// extrema) and Table.CodedColumn a dictionary-encoded view (dense uint32
// codes in first-appearance order, with lexicographic ranks).
// Table.GroupBy builds equivalence classes from mixed-radix coded keys — one
// uint64 per row — and falls back to the historical string path only when a
// dictionary contains control bytes or the key space overflows; both paths
// produce byte-identical output.
//
// # Mutation and concurrency
//
// Columnar views are cached per table and invalidated on mutation (SetValue
// invalidates one column, Append and AppendTable invalidate all) and rebuilt
// lazily. Returned views are immutable snapshots: a mutation never changes a
// column a caller already holds, or one a projection shares. The cache is
// mutex-guarded, so concurrent readers — parallel Mondrian workers,
// concurrent HTTP requests against one stored dataset — can build and share
// columns safely. Tables produced by WithSchema share row storage and
// therefore share the cache.
package dataset
