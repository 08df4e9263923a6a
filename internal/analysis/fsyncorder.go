package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/reliable-cda/cda/internal/analysis/typestate"
)

// FsyncOrder checks the durable-write protocol as a typestate: a file
// opened from a path variable (the temp file of a write-temp → fsync
// → rename sequence) must reach Sync() after its last write before
// any os.Rename of that path executes. A rename reachable while the
// file still has unsynced writes can publish a name whose content is
// not yet on disk — exactly the crash window the journal and the
// publish protocol exist to close. The analysis is per path:
// writing marks the file dirty, Sync() cleans it, and a branch that
// skips the Sync (or a deleted Sync call) is flagged at the rename.
// Handing the file to another function is treated as a write, since
// the callee's writes are invisible here.
var FsyncOrder = &Analyzer{
	Name:     ruleFsyncOrder,
	Doc:      "an os.Rename reachable while the renamed file has unsynced writes (durable-write protocol violation)",
	Severity: SeverityError,
	Run:      runFsyncOrder,
}

// foDirty: the file has writes not yet covered by a Sync on this path.
const foDirty typestate.Facts = 1 << iota

// foKey is one tracked file-open site.
type foKey struct {
	obj  types.Object
	pos  token.Pos
	name string
}

func runFsyncOrder(p *Package) []Finding {
	var out []Finding
	for _, fb := range funcBodies(p) {
		out = append(out, fsyncOrderBody(p, fb)...)
	}
	return out
}

func fsyncOrderBody(p *Package, fb funcBody) []Finding {
	fileKeys := map[types.Object][]foKey{} // file object → open sites
	pathKeys := map[types.Object][]foKey{} // path variable → files opened from it
	var out []Finding
	reported := map[token.Pos]bool{}

	cfg := typestate.BuildTyped(p.Info, fb.body)
	typestate.Forward(cfg, typestate.Analysis{
		Transfer: func(n ast.Node, s typestate.State) {
			if as, ok := n.(*ast.AssignStmt); ok {
				if fileObj, pathObj, name, pos, ok := fsyncOpenCall(p, as); ok {
					k := foKey{obj: fileObj, pos: pos, name: name}
					s[k] = 0 // tracked, no unsynced writes yet
					fileKeys[fileObj] = append(fileKeys[fileObj], k)
					if pathObj != nil {
						pathKeys[pathObj] = append(pathKeys[pathObj], k)
					}
				}
			}
			typestate.InspectNoFuncLit(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				// os.Rename(path, dst): flag if any file opened from
				// path can still be dirty here.
				if calleeFullName(p, call) == "os.Rename" && len(call.Args) > 0 {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							for _, k := range pathKeys[obj] {
								if facts, live := s[k]; live && facts&foDirty != 0 && !reported[call.Pos()] {
									reported[call.Pos()] = true
									out = append(out, Finding{
										Rule: ruleFsyncOrder, Severity: SeverityError,
										Pos: p.Fset.Position(call.Pos()),
										Message: fmt.Sprintf("rename of %s is reachable while %s has unsynced writes; call %s.Sync() before renaming",
											id.Name, k.name, k.name),
									})
								}
							}
						}
					}
					return true
				}
				// Method calls on a tracked file: writes dirty it,
				// Sync cleans it, everything else is neutral.
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil && len(fileKeys[obj]) > 0 {
							switch {
							case sel.Sel.Name == "Sync":
								for _, k := range fileKeys[obj] {
									s.Map(k, func(f typestate.Facts) typestate.Facts { return f &^ foDirty })
								}
							case strings.HasPrefix(sel.Sel.Name, "Write") || sel.Sel.Name == "ReadFrom" || sel.Sel.Name == "Truncate":
								for _, k := range fileKeys[obj] {
									s.Map(k, func(f typestate.Facts) typestate.Facts { return f | foDirty })
								}
							}
							return true
						}
					}
				}
				// A tracked file passed to another call: unknown
				// writes happen there; treat as dirtying.
				for _, arg := range call.Args {
					if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
						if obj := p.Info.Uses[id]; obj != nil {
							for _, k := range fileKeys[obj] {
								s.Map(k, func(f typestate.Facts) typestate.Facts { return f | foDirty })
							}
						}
					}
				}
				return true
			})
		},
	})
	return out
}

// fsyncOpenCall matches `f, err := os.Create/OpenFile/Open(path, ...)`
// and returns the file object plus the path variable's object when
// the path argument is an identifier (needed to associate a later
// os.Rename of the same variable).
func fsyncOpenCall(p *Package, as *ast.AssignStmt) (fileObj, pathObj types.Object, name string, pos token.Pos, ok bool) {
	if len(as.Lhs) != 2 || len(as.Rhs) != 1 {
		return nil, nil, "", token.NoPos, false
	}
	call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !isCall {
		return nil, nil, "", token.NoPos, false
	}
	switch calleeFullName(p, call) {
	case "os.Create", "os.OpenFile", "os.Open":
	default:
		return nil, nil, "", token.NoPos, false
	}
	id, isIdent := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !isIdent || isBlank(id) {
		return nil, nil, "", token.NoPos, false
	}
	fileObj = p.Info.ObjectOf(id)
	if fileObj == nil {
		return nil, nil, "", token.NoPos, false
	}
	if len(call.Args) > 0 {
		if pid, isIdent := ast.Unparen(call.Args[0]).(*ast.Ident); isIdent {
			pathObj = p.Info.Uses[pid]
		}
	}
	return fileObj, pathObj, id.Name, call.Pos(), true
}
