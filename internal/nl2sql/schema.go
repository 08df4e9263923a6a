package nl2sql

import (
	"sort"
	"strings"
	"sync"

	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
)

// Schema-derived translation artifacts — the identifier vocabulary,
// the sorted list the constrained decoder scans for nearest-identifier
// repair, the repair memos and the reranker's reference LM — are pure
// functions of the database schema and the text. A Translator builds
// them once, on its first question (Translator.artifacts), and keeps
// them for its life: a schema changed after that is not seen, so a
// caller that changes one builds a new Translator.

// schemaArtifacts holds everything derivable from one schema snapshot.
type schemaArtifacts struct {
	identSet map[string]struct{}
	// idents is the vocabulary sorted ascending; nearest-identifier
	// repair scans it in order so ties break to the lexicographically
	// smallest identifier.
	idents []string

	nearestMu sync.Mutex
	nearest   map[string]string // lowercase unknown token -> repair

	repairMu sync.Mutex
	repairs  map[string]repairedCandidate // corrupted SQL -> repair + validity

	rerankOnce sync.Once
	reranker   *Reranker
}

// repairedCandidate memoizes one constrained-repair outcome.
type repairedCandidate struct {
	sql    string
	parses bool
}

// repairMemoCap bounds the repair memo. The channel's corruption space
// is small in practice (most tokens survive), but an adversarial fault
// hook could spray unique strings; beyond the cap, repairs still
// compute — they just stop being remembered.
const repairMemoCap = 4096

// newSchemaArtifacts collects db's identifiers; the memos start empty
// and the reranker trains on first use.
func newSchemaArtifacts(db *storage.Database) *schemaArtifacts {
	set := make(map[string]struct{})
	for _, tbl := range db.Tables() {
		set[strings.ToLower(tbl.Name)] = struct{}{}
		for _, c := range tbl.Schema() {
			set[strings.ToLower(c.Name)] = struct{}{}
		}
	}
	idents := make([]string, 0, len(set))
	for k := range set {
		idents = append(idents, k)
	}
	sort.Strings(idents)
	return &schemaArtifacts{
		identSet: set,
		idents:   idents,
		nearest:  make(map[string]string),
		repairs:  make(map[string]repairedCandidate),
	}
}

// rerankerFor returns the reference-LM reranker, training it on first
// use. Training is deterministic (the corpus is rendered from the
// schema in registration order).
func (a *schemaArtifacts) rerankerFor(db *storage.Database) *Reranker {
	a.rerankOnce.Do(func() {
		a.reranker = NewReranker(db)
	})
	return a.reranker
}

// repairSQL relexes sql, keeps in-vocabulary identifiers, and maps
// every out-of-vocabulary identifier to its nearest schema term — the
// constrained-decoding surrogate, hoisted onto the artifacts so the
// vocabulary is resolved once per translator instead of per call.
func (a *schemaArtifacts) repairSQL(sql string) string {
	toks, err := sqldb.Lex(sql)
	if err != nil {
		return sql
	}
	var out []string
	for _, tk := range toks {
		switch tk.Type {
		case sqldb.TokEOF:
		case sqldb.TokString:
			out = append(out, "'"+strings.ReplaceAll(tk.Text, "'", "''")+"'")
		case sqldb.TokIdent:
			if _, ok := a.identSet[strings.ToLower(tk.Text)]; ok {
				out = append(out, tk.Text)
			} else {
				out = append(out, a.nearestIdentifier(tk.Text))
			}
		default:
			out = append(out, tk.Text)
		}
	}
	return strings.Join(out, " ")
}

// repairCandidate is repairSQL plus a parse-validity check, memoized
// by the corrupted input: both are pure functions of the schema and
// the text, and rejection sampling re-derives the same corrupted
// strings constantly once the channel's surviving-token mass
// concentrates on the ideal rendering.
func (a *schemaArtifacts) repairCandidate(cand string) (string, bool) {
	a.repairMu.Lock()
	if r, ok := a.repairs[cand]; ok {
		a.repairMu.Unlock()
		return r.sql, r.parses
	}
	a.repairMu.Unlock()
	repaired := a.repairSQL(cand)
	_, perr := sqldb.Parse(repaired)
	r := repairedCandidate{sql: repaired, parses: perr == nil}
	a.repairMu.Lock()
	if len(a.repairs) < repairMemoCap {
		a.repairs[cand] = r
	}
	a.repairMu.Unlock()
	return r.sql, r.parses
}

// nearestIdentifier repairs one out-of-vocabulary token, memoizing by
// lowercased token: with a non-empty vocabulary the result depends
// only on the lowercase form (the scan always replaces the initial
// candidate), so the memo cannot change any repair.
func (a *schemaArtifacts) nearestIdentifier(tok string) string {
	if len(a.idents) == 0 {
		return tok
	}
	tokL := strings.ToLower(tok)
	a.nearestMu.Lock()
	if got, ok := a.nearest[tokL]; ok {
		a.nearestMu.Unlock()
		return got
	}
	a.nearestMu.Unlock()
	best, bestD := tok, 1<<30
	for _, k := range a.idents {
		if d := levenshtein(tokL, k); d < bestD {
			best, bestD = k, d
		}
	}
	a.nearestMu.Lock()
	a.nearest[tokL] = best
	a.nearestMu.Unlock()
	return best
}
