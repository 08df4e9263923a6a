// Package typestate builds per-function control-flow graphs over
// go/ast and runs forward dataflow analyses over them. It is the
// substrate for the CFG-based cdalint rules (resource-leak,
// fsync-order, goroutine-leak): where the older rules
// pattern-match statements, typestate rules track an abstract state
// per value along every path a function can take.
//
// The graph is intentionally small:
//
//   - every statement lands in exactly one basic block, in source
//     order; expressions that steer control (if/for conditions,
//     switch tags, select comm clauses) are recorded as nodes of the
//     block that evaluates them;
//   - branch edges carry the condition expression and the truth value
//     the edge assumes, so analyses can refine state on err != nil
//     style checks;
//   - return statements edge to Exit; explicit panic(...) calls edge
//     to PanicExit; calls that never return (os.Exit, log.Fatal,
//     runtime.Goexit, testing fatals) terminate their block with no
//     successor;
//   - defer is NOT routed to the exits. A DeferStmt stays a plain
//     node where it executes, and analyses apply the deferred call's
//     effect at registration. For the idempotent exit effects the
//     rules track (Close, Done, close(ch)) this is equivalent
//     to running the defer on every exit path — and it is the only
//     treatment that handles conditionally registered defers
//     correctly;
//   - function literals are opaque: control never flows into a
//     FuncLit body, which gets its own CFG when a rule analyzes it.
//
// Build is pure syntax except for one seam: the Classify callback
// lets the caller resolve calls (with type information the builder
// does not have) to "panics" or "never returns".
package typestate

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CallKind classifies a call expression for control-flow purposes.
type CallKind int

const (
	// CallNormal returns to the caller.
	CallNormal CallKind = iota
	// CallPanic unwinds to the function's panic exit (builtin panic).
	CallPanic
	// CallNoReturn never returns and never unwinds (os.Exit,
	// log.Fatal, runtime.Goexit, testing fatals).
	CallNoReturn
)

// Edge is one control-flow successor. Cond is non-nil on edges that
// assume a branch outcome: the edge is taken exactly when Cond
// evaluates to Truth.
type Edge struct {
	To    *Block
	Cond  ast.Expr
	Truth bool
}

// Block is a basic block: nodes executed in order, then a transfer of
// control along one of Succs. A block with no successors either ends
// in a no-return call or is the graph's Exit/PanicExit.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []Edge
	// preds counts the edges that target the block; 0 on a non-entry
	// block means the block is unreachable.
	preds int
}

// CFG is one function body's control-flow graph.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single normal-termination block: every return and
	// the fall-off-the-end path edge into it. It holds no nodes.
	Exit *Block
	// PanicExit is the unwind block reached by explicit panic(...)
	// statements. It holds no nodes.
	PanicExit *Block
}

// frame is one enclosing breakable construct during construction.
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type builder struct {
	cfg      *CFG
	cur      *Block
	classify func(*ast.CallExpr) CallKind
	frames   []frame
	labels   map[string]*Block // goto targets, created on demand
	// pending is the label of a LabeledStmt whose statement is being
	// built next, so `break L` / `continue L` resolve to its frame.
	pending string
}

// BuildTyped is Build with the classifier every rule uses, resolved
// through the package's type information: the builtin panic unwinds,
// the conventional never-return functions terminate the block,
// everything else returns normally.
func BuildTyped(info *types.Info, body *ast.BlockStmt) *CFG {
	return Build(body, func(call *ast.CallExpr) CallKind {
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return CallNormal
		}
		switch obj := info.Uses[id].(type) {
		case *types.Builtin:
			if obj.Name() == "panic" {
				return CallPanic
			}
		case *types.Func:
			switch obj.FullName() {
			case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
				return CallNoReturn
			}
		}
		return CallNormal
	})
}

// Build constructs the CFG of one function body. classify may be nil,
// in which case every call is treated as returning normally (panic is
// still recognized syntactically only through classify, so passing
// nil disables panic-edge modeling).
func Build(body *ast.BlockStmt, classify func(*ast.CallExpr) CallKind) *CFG {
	b := &builder{
		cfg:      &CFG{},
		classify: classify,
		labels:   map[string]*Block{},
	}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cfg.PanicExit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit, nil, false)
	}
	return b.cfg
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block, cond ast.Expr, truth bool) {
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Truth: truth})
	to.preds++
}

// ensure returns the current block, starting a fresh unreachable one
// when the previous statement terminated control flow (the solver
// never visits blocks without predecessors, so dead code cannot
// contribute findings).
func (b *builder) ensure() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *builder) add(n ast.Node) {
	if n == nil {
		return
	}
	blk := b.ensure()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the construct being built.
func (b *builder) takeLabel() string {
	l := b.pending
	b.pending = ""
	return l
}

// findFrame resolves break/continue to its target frame.
func (b *builder) findFrame(label string, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if label != "" && f.label != label {
			continue
		}
		if needContinue && f.continueTo == nil {
			continue
		}
		return f
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.pending = ""
		b.stmtList(st.List)

	case *ast.LabeledStmt:
		// Seal the label's block so goto targets converge here.
		blk := b.labels[st.Label.Name]
		if blk == nil {
			blk = b.newBlock()
			b.labels[st.Label.Name] = blk
		}
		if b.cur != nil {
			b.edge(b.cur, blk, nil, false)
		}
		b.cur = blk
		b.pending = st.Label.Name
		b.stmt(st.Stmt)
		b.pending = ""

	case *ast.ReturnStmt:
		b.add(st)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.cur = nil

	case *ast.BranchStmt:
		b.ensure()
		switch st.Tok {
		case token.BREAK:
			label := ""
			if st.Label != nil {
				label = st.Label.Name
			}
			if f := b.findFrame(label, false); f != nil {
				b.edge(b.cur, f.breakTo, nil, false)
			}
		case token.CONTINUE:
			label := ""
			if st.Label != nil {
				label = st.Label.Name
			}
			if f := b.findFrame(label, true); f != nil {
				b.edge(b.cur, f.continueTo, nil, false)
			}
		case token.GOTO:
			blk := b.labels[st.Label.Name]
			if blk == nil {
				blk = b.newBlock()
				b.labels[st.Label.Name] = blk
			}
			b.edge(b.cur, blk, nil, false)
		case token.FALLTHROUGH:
			// Handled by the switch construction; reaching here means a
			// malformed tree — drop control.
		}
		b.cur = nil

	case *ast.ExprStmt:
		b.add(st)
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok && b.classify != nil {
			switch b.classify(call) {
			case CallPanic:
				b.edge(b.cur, b.cfg.PanicExit, nil, false)
				b.cur = nil
			case CallNoReturn:
				b.cur = nil
			}
		}

	case *ast.IfStmt:
		b.pending = ""
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Cond)
		head := b.cur
		after := b.newBlock()

		then := b.newBlock()
		b.edge(head, then, st.Cond, true)
		b.cur = then
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after, nil, false)
		}

		if st.Else != nil {
			els := b.newBlock()
			b.edge(head, els, st.Cond, false)
			b.cur = els
			b.stmt(st.Else)
			if b.cur != nil {
				b.edge(b.cur, after, nil, false)
			}
		} else {
			b.edge(head, after, st.Cond, false)
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.add(st.Init)
		}
		head := b.newBlock()
		b.edge(b.ensure(), head, nil, false)
		b.cur = head
		if st.Cond != nil {
			b.add(st.Cond)
		}
		head = b.cur // cond nodes stay in the head block

		after := b.newBlock()
		continueTo := head
		var post *Block
		if st.Post != nil {
			post = b.newBlock()
			continueTo = post
		}

		body := b.newBlock()
		b.edge(head, body, st.Cond, true)
		if st.Cond != nil {
			b.edge(head, after, st.Cond, false)
		}

		b.frames = append(b.frames, frame{label: label, breakTo: after, continueTo: continueTo})
		b.cur = body
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, continueTo, nil, false)
		}
		b.frames = b.frames[:len(b.frames)-1]

		if post != nil {
			b.cur = post
			b.add(st.Post)
			b.edge(b.cur, head, nil, false)
		}
		b.cur = after
		if st.Cond == nil && after.preds == 0 {
			// for {} with no break: everything after is unreachable.
			b.cur = nil
		}

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.ensure(), head, nil, false)
		b.cur = head
		b.add(st.X)

		after := b.newBlock()
		body := b.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)

		b.frames = append(b.frames, frame{label: label, breakTo: after, continueTo: head})
		b.cur = body
		b.stmtList(st.Body.List)
		if b.cur != nil {
			b.edge(b.cur, head, nil, false)
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.add(st.Init)
		}
		if st.Tag != nil {
			b.add(st.Tag)
		}
		b.switchClauses(label, st.Body.List, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if st.Init != nil {
			b.add(st.Init)
		}
		b.add(st.Assign)
		b.switchClauses(label, st.Body.List, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.ensure()
		after := b.newBlock()
		b.frames = append(b.frames, frame{label: label, breakTo: after})
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(head, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			if b.cur != nil {
				b.edge(b.cur, after, nil, false)
			}
		}
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after
		if after.preds == 0 {
			// select{} or all clauses terminate: nothing follows.
			b.cur = nil
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, DeferStmt, GoStmt, SendStmt,
		// IncDecStmt, ... — straight-line nodes.
		b.add(s)
	}
}

// switchClauses builds the case blocks of a (type) switch.
// allowFallthrough distinguishes expression switches.
func (b *builder) switchClauses(label string, clauses []ast.Stmt, allowFallthrough bool) {
	head := b.ensure()
	after := b.newBlock()

	// Pre-create the case blocks so fallthrough can edge forward.
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		blocks[i] = b.newBlock()
		if cc, ok := clause.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after, nil, false)
	}

	b.frames = append(b.frames, frame{label: label, breakTo: after})
	for i, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		blk := blocks[i]
		b.edge(head, blk, nil, false)
		b.cur = blk
		for _, e := range cc.List {
			b.add(e)
		}
		body := cc.Body
		fallsThrough := false
		if allowFallthrough && len(body) > 0 {
			if br, ok := body[len(body)-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				body = body[:len(body)-1]
				fallsThrough = true
			}
		}
		b.stmtList(body)
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1], nil, false)
			} else {
				b.edge(b.cur, after, nil, false)
			}
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// InspectNoFuncLit walks the AST below n without descending into
// function literals — the statement-level view transfer functions
// need, since a FuncLit body runs under its own CFG.
func InspectNoFuncLit(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if m == nil {
			return true
		}
		return visit(m)
	})
}
