package sqldb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"github.com/reliable-cda/cda/internal/storage"
)

// RowRef identifies one base-table row: the provenance atom.
type RowRef struct {
	Table string
	Row   int
}

// Stats reports executor effort for the efficiency experiments.
type Stats struct {
	RowsScanned int
	// RowsJoined counts row pairs examined by join operators (for a
	// hash join, only the candidate matches).
	RowsJoined int
	RowsOutput int
	// HashJoins counts joins executed with the build+probe strategy.
	HashJoins int
	// PushedPredicates counts WHERE conjuncts applied at scan time.
	PushedPredicates int
}

// Result is an executed query result. Prov[i] holds the why-provenance
// of Rows[i]: the base rows whose values contributed to it.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
	Prov    [][]RowRef
	Stmt    *SelectStmt
	Stats   Stats
}

// Fingerprint returns an order-insensitive multiset digest of the
// result, used by the NL2SQL verifier to compare candidate queries: the
// SHA-256 of its rows' SHA-256 digests in sorted order. A row is
// digested as its values' kind:value texts, each after its length, so
// no byte a TEXT value holds can make two different rows read alike.
func (r *Result) Fingerprint() string {
	digests := make([][sha256.Size]byte, len(r.Rows))
	var row, key []byte
	for i, vals := range r.Rows {
		row = row[:0]
		for _, v := range vals {
			key = appendValueKey(key[:0], v)
			row = append(binary.AppendUvarint(row, uint64(len(key))), key...)
		}
		digests[i] = sha256.Sum256(row)
	}
	slices.SortFunc(digests, func(a, b [sha256.Size]byte) int { return bytes.Compare(a[:], b[:]) })
	all := make([]byte, 0, len(digests)*sha256.Size)
	for i := range digests {
		all = append(all, digests[i][:]...)
	}
	sum := sha256.Sum256(all)
	return hex.EncodeToString(sum[:])
}

// relation is the executor's intermediate representation: a bag of
// rows over (alias, column) pairs, each row carrying provenance.
type relation struct {
	aliases []string // per column
	names   []string // per column
	rows    [][]storage.Value
	prov    [][]RowRef
}

func (rel *relation) resolve(ref *ColumnRef) (int, error) {
	return resolveColumn(rel.aliases, rel.names, ref)
}

// columnResolver abstracts column lookup over a relation schema; both
// the row engine's relation and the columnar vrel implement it, so the
// planner (pushdown, equi-join detection) serves both executors.
type columnResolver interface {
	resolve(ref *ColumnRef) (int, error)
}

// resolveColumn finds the unique column matching ref
// (case-insensitive, optionally alias-qualified).
func resolveColumn(aliases, names []string, ref *ColumnRef) (int, error) {
	found := -1
	for i := range names {
		if !strings.EqualFold(names[i], ref.Column) {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(aliases[i], ref.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sql: ambiguous column %q", ref.Render())
		}
		found = i
	}
	if found < 0 {
		return 0, fmt.Errorf("sql: unknown column %q", ref.Render())
	}
	return found, nil
}

// FaultHook is the chaos-injection seam (see internal/faults): when
// non-nil it is consulted at the top of every Execute and may return
// an injected transient error or add latency. Production deployments
// leave it nil.
type FaultHook interface {
	Inject(op string) error
}

// Engine executes parsed statements against a database.
type Engine struct {
	DB *storage.Database
	// Faults, when non-nil, injects deterministic chaos faults into
	// statement execution.
	Faults FaultHook
	// CaptureProvenance controls whether per-row provenance is
	// recorded. Disabling it is the E4 "provenance off" baseline.
	CaptureProvenance bool
	// DisableOptimizations turns off predicate pushdown and hash
	// joins, keeping the naive plan (correctness cross-checks and the
	// optimizer ablation bench).
	DisableOptimizations bool
}

// NewEngine creates an engine with provenance capture enabled.
func NewEngine(db *storage.Database) *Engine {
	return &Engine{DB: db, CaptureProvenance: true}
}

// Query parses and executes SQL text.
func (e *Engine) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Execute(stmt)
}

// Execute runs a parsed statement on the columnar engine.
func (e *Engine) Execute(stmt *SelectStmt) (*Result, error) {
	if e.Faults != nil {
		if err := e.Faults.Inject("sqldb.execute"); err != nil {
			return nil, err
		}
	}
	return e.executeVec(stmt)
}

// finishResult applies the post-projection stages shared by both
// engines (and the streaming snapshots): DISTINCT, OFFSET, LIMIT, and
// the final stats stamp.
func finishResult(stmt *SelectStmt, res *Result, stats *Stats) *Result {
	if stmt.Distinct {
		res = distinct(res)
	}
	if stmt.Offset > 0 {
		skip := stmt.Offset
		if skip > len(res.Rows) {
			skip = len(res.Rows)
		}
		res.Rows = res.Rows[skip:]
		if res.Prov != nil {
			res.Prov = res.Prov[skip:]
		}
	}
	if stmt.Limit >= 0 && len(res.Rows) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
		if res.Prov != nil {
			res.Prov = res.Prov[:stmt.Limit]
		}
	}
	stats.RowsOutput = len(res.Rows)
	res.Stats = *stats
	res.Stmt = stmt
	return res
}

// orderExprs resolves ORDER BY items, substituting references to
// select-item aliases with the aliased expression.
func (e *Engine) orderExprs(stmt *SelectStmt) []Expr {
	out := make([]Expr, len(stmt.OrderBy))
	for i, oi := range stmt.OrderBy {
		out[i] = substituteAliases(oi.Expr, stmt.Items)
	}
	return out
}

func substituteAliases(expr Expr, items []SelectItem) Expr {
	ref, ok := expr.(*ColumnRef)
	if !ok || ref.Table != "" {
		return expr
	}
	for _, it := range items {
		if it.Alias != "" && strings.EqualFold(it.Alias, ref.Column) {
			return it.Expr
		}
	}
	return expr
}

// compareKeySlices compares two ORDER BY key tuples under the given
// directions. Incomparable values fall back to string comparison so
// sorting is always total.
func compareKeySlices(a, b []storage.Value, order []OrderItem) int {
	for i := range a {
		c, err := a[i].Compare(b[i])
		if err != nil {
			c = strings.Compare(a[i].String(), b[i].String())
		}
		if c != 0 {
			if order[i].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

func distinct(res *Result) *Result {
	seen := make(map[string]int) // fingerprint -> output index
	out := &Result{Columns: res.Columns, Stmt: res.Stmt, Stats: res.Stats}
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.Kind.String() + ":" + v.String()
		}
		key := strings.Join(parts, "\x1f")
		if idx, dup := seen[key]; dup {
			// Merge provenance of duplicates: the output row is
			// witnessed by every duplicate's sources.
			if res.Prov != nil {
				out.Prov[idx] = mergeRefs(out.Prov[idx], res.Prov[i])
			}
			continue
		}
		seen[key] = len(out.Rows)
		out.Rows = append(out.Rows, row)
		if res.Prov != nil {
			out.Prov = append(out.Prov, res.Prov[i])
		}
	}
	return out
}

func mergeRefs(a, b []RowRef) []RowRef {
	seen := make(map[RowRef]struct{}, len(a)+len(b))
	out := make([]RowRef, 0, len(a)+len(b))
	for _, r := range a {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	for _, r := range b {
		if _, ok := seen[r]; !ok {
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}
