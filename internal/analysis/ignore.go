package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is the comment marker that suppresses findings.
const ignoreDirective = "cdalint:ignore"

// ignoreSet maps filename → line → set of suppressed rule names. The
// wildcard rule "*" suppresses everything on that line.
type ignoreSet map[string]map[int]map[string]bool

// directive is one cdalint:ignore comment: the rules it names ("*" for
// all) and the lines it covers.
type directive struct {
	file        string
	first, last int
	rules       map[string]bool
}

// ignoresFor indexes a package's directives by covered line.
func ignoresFor(p *Package) ignoreSet {
	set := ignoreSet{}
	for _, d := range directivesFor(p) {
		byLine := set[d.file]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			set[d.file] = byLine
		}
		for line := d.first; line <= d.last; line++ {
			if byLine[line] == nil {
				byLine[line] = map[string]bool{}
			}
			for r := range d.rules {
				byLine[line][r] = true
			}
		}
	}
	return set
}

// directivesFor scans a package's comments for cdalint:ignore
// directives. A directive applies to its own line (end-of-line
// placement) and to the following line (preceding-comment
// placement).
func directivesFor(p *Package) []directive {
	var out []directive
	for _, f := range p.Files {
		ends := stmtEndsByLine(p.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(strings.TrimSpace(text), "/*")
				idx := strings.Index(text, ignoreDirective)
				if idx < 0 {
					continue
				}
				rest := text[idx+len(ignoreDirective):]
				// Cut trailing prose after the rule list: rules are the
				// first comma/space separated tokens that look like
				// rule names; a "--" or "—" starts a free-text reason.
				if cut := strings.Index(rest, "--"); cut >= 0 {
					rest = rest[:cut]
				}
				pos := p.Fset.Position(c.Pos())
				// The directive covers its own line (end-of-line
				// placement) and, when it heads a comment group, every
				// line through the one after the group (preceding-
				// comment placement with a wrapped reason). When the
				// covered line starts a statement that wraps across
				// several lines, coverage extends through the end of
				// that statement — a finding inside a wrapped call arg
				// is reported on the arg's line, not the statement's.
				last := p.Fset.Position(cg.End()).Line + 1
				for line := pos.Line; line <= last; line++ {
					if end, ok := ends[line]; ok && end > last {
						last = end
					}
				}
				out = append(out, directive{file: pos.Filename, first: pos.Line, last: last, rules: parseRuleList(rest)})
			}
		}
	}
	return out
}

// stmtEndsByLine maps the line a simple (non-block) statement starts
// on to the last line it spans. Block-bearing statements (if, for,
// switch, func) are deliberately excluded: a directive above an if
// statement must not silence the whole body. The same boundary
// applies to function literals inside otherwise-simple statements — a
// `go func() { … }()` or a deferred closure is a statement whose
// header happens to carry a block, and a directive on the spawning
// statement must not silence every finding in the literal's body: the
// span is capped at the literal's opening brace, so suppressions
// inside the body go on the offending lines themselves.
func stmtEndsByLine(fset *token.FileSet, f *ast.File) map[int]int {
	ends := map[int]int{}
	record := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		ast.Inspect(n, func(m ast.Node) bool {
			if fl, ok := m.(*ast.FuncLit); ok {
				if brace := fset.Position(fl.Body.Lbrace).Line; brace < end {
					end = brace
				}
				return false
			}
			return true
		})
		if end > ends[start] {
			ends[start] = end
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt,
			*ast.DeferStmt, *ast.GoStmt, *ast.SendStmt,
			*ast.DeclStmt, *ast.IncDecStmt, *ast.ValueSpec,
			*ast.Field:
			record(n)
		}
		return true
	})
	return ends
}

// parseRuleList extracts rule names from the directive tail; an
// empty tail means all rules ("*").
func parseRuleList(s string) map[string]bool {
	out := map[string]bool{}
	for _, tok := range strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	}) {
		if AnalyzerByName(tok) != nil || tok == "all" || tok == "*" {
			if tok == "all" {
				tok = "*"
			}
			out[tok] = true
		} else {
			// Unknown word: treat the directive as prose from here on.
			break
		}
	}
	if len(out) == 0 {
		out["*"] = true
	}
	return out
}

// suppressed reports whether the finding is covered by a directive.
func (s ignoreSet) suppressed(f Finding) bool {
	byLine, ok := s[f.Pos.Filename]
	if !ok {
		return false
	}
	rules, ok := byLine[f.Pos.Line]
	if !ok {
		return false
	}
	return rules["*"] || rules[f.Rule]
}
