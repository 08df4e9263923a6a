package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/workload"
)

// Operation kinds of the generated list.
const (
	opCreate = "create" // POST /sessions
	opAsk    = "ask"    // POST /sessions/{id}/ask
	opPage   = "page"   // GET /sessions/{id}?offset=&limit=
	opAsOf   = "asof"   // GET /sessions/{id}/asof/{turn}
)

// Turn classes the generator stamps on asks, so results can be cut by
// what the turn was meant to exercise.
const (
	classArc      = "arc"      // Figure-1 discover/describe/choose/analyze
	classQuery    = "query"    // self-contained, answer-cache eligible
	classHead     = "head"     // self-contained head of a follow-up chain (unique per list)
	classFollowUp = "followup" // elliptical, bypasses the answer cache
	classOOG      = "oog"      // out of grammar or ungroundable
	classConfirm  = "confirm"  // yes/no with nothing pending
)

// op is one generated operation. Session is an index into the run's
// own session table (the servers allocate the real ids); every op of
// one session is executed by client Session % clients, in list order.
type op struct {
	Kind     string `json:"kind"`
	Session  int    `json:"session"`
	Turn     int    `json:"turn,omitempty"` // ask index within the session (ask ops)
	Question string `json:"question,omitempty"`
	Class    string `json:"class,omitempty"`
	Offset   int    `json:"offset,omitempty"`
	Limit    int    `json:"limit,omitempty"`
	AsOf     int    `json:"asof,omitempty"` // committed turn count to read at
	Replica  bool   `json:"replica,omitempty"`
}

// tableShape is what the question templates know about one served
// table: which columns are worth aggregating, filtering and grouping,
// and the values a filter can take. Values are read from the table
// the servers will serve, so every generated filter matches rows.
type tableShape struct {
	name    string
	cols    []string
	targets []string
	filters []filterCol
	groups  []string
}

type filterCol struct {
	col    string
	values []string
}

// shapeOf binds a column-role declaration to a real table, failing
// when the served schema no longer has the columns the templates
// were written for.
func shapeOf(t *storage.Table, targets, filters, groups []string) (tableShape, error) {
	sh := tableShape{name: t.Name, cols: t.Schema().Names(), targets: targets, groups: groups}
	for _, lists := range [][]string{targets, filters, groups} {
		for _, c := range lists {
			if t.Schema().ColumnIndex(c) < 0 {
				return sh, fmt.Errorf("population: table %s has no column %q", t.Name, c)
			}
		}
	}
	for _, c := range filters {
		seen := map[string]bool{}
		fc := filterCol{col: c}
		for _, v := range t.Column(t.Schema().ColumnIndex(c)) {
			if s := v.String(); !seen[s] {
				seen[s] = true
				fc.values = append(fc.values, s)
			}
		}
		if len(fc.values) < 2 {
			return sh, fmt.Errorf("population: column %s.%s has %d distinct values, need 2", t.Name, c, len(fc.values))
		}
		sh.filters = append(sh.filters, fc)
	}
	return sh, nil
}

// swissShapes describes the two tables of the server's default
// domain (cdaserver without -csv serves workload.NewSwissDomain).
func swissShapes(seed int64) ([]tableShape, error) {
	d := workload.NewSwissDomain(seed)
	emp, err := d.DB.Get("employment")
	if err != nil {
		return nil, err
	}
	bar, err := d.DB.Get("barometer")
	if err != nil {
		return nil, err
	}
	e, err := shapeOf(emp, []string{"employees"},
		[]string{"year", "canton", "employment_type"}, []string{"canton", "employment_type", "year"})
	if err != nil {
		return nil, err
	}
	b, err := shapeOf(bar, []string{"value"}, []string{"month"}, nil)
	if err != nil {
		return nil, err
	}
	return []tableShape{e, b}, nil
}

// Scan-heavy tables: a fact table large enough that translation and
// execution dominate the turn, and a small dimension table.
const (
	ordersRows      = 60000
	ordersCustomers = 4000
)

var regionNames = []string{"north", "south", "east", "west", "central", "alpine", "lakeside", "border"}

// scanTables builds the orders/regions tables scan_heavy serves
// through -csv. Like the Swiss domain they are the same for every
// population seed: the seed varies the dialogues, not the database.
func scanTables(rows int) (orders, regions *storage.Table) {
	r := rand.New(rand.NewSource(serverSeed))
	orders = storage.NewTable("orders", storage.Schema{
		{Name: "order_id", Kind: storage.KindInt},
		{Name: "customer", Kind: storage.KindString},
		{Name: "region", Kind: storage.KindString},
		{Name: "quantity", Kind: storage.KindInt},
		{Name: "amount", Kind: storage.KindFloat},
	})
	customers := ordersCustomers
	if rows < 10*customers {
		customers = rows/10 + 2
	}
	for i := 0; i < rows; i++ {
		orders.MustAppendRow(
			storage.Int(int64(i+1)),
			storage.Str(fmt.Sprintf("c%04d", r.Intn(customers))),
			storage.Str(regionNames[r.Intn(len(regionNames))]),
			storage.Int(int64(1+r.Intn(12))),
			storage.Float(float64(100+r.Intn(99900))/100))
	}
	regions = storage.NewTable("regions", storage.Schema{
		{Name: "region", Kind: storage.KindString},
		{Name: "manager", Kind: storage.KindString},
		{Name: "target", Kind: storage.KindFloat},
	})
	for i, name := range regionNames {
		regions.MustAppendRow(storage.Str(name), storage.Str(fmt.Sprintf("manager%d", i%5)),
			storage.Float(float64(1000*(5+r.Intn(20)))))
	}
	return orders, regions
}

func scanShapes(orders, regions *storage.Table) ([]tableShape, error) {
	o, err := shapeOf(orders, []string{"amount", "quantity"},
		[]string{"customer", "region", "quantity"}, []string{"region", "quantity"})
	if err != nil {
		return nil, err
	}
	g, err := shapeOf(regions, []string{"target"}, []string{"region", "manager"}, []string{"manager"})
	if err != nil {
		return nil, err
	}
	return []tableShape{o, g}, nil
}

// question is one instantiated template. The fields beyond text are
// what a follow-up needs to patch it.
type question struct {
	text  string
	shape *tableShape
	isAgg bool // has an aggregate target, so "and the maximum" applies
	fcol  int  // index into shape.filters, -1 without a filter
}

var aggWords = []string{"average", "total", "maximum", "minimum"}

// selfContained instantiates every template of the NL2SQL grammar
// (count / aggregate / list, optional filter, optional group-by) over
// one table, in a fixed order.
func selfContained(sh *tableShape) []question {
	var out []question
	type where struct {
		clause string
		fcol   int
	}
	wheres := []where{{"", -1}}
	for fi, f := range sh.filters {
		for _, v := range f.values {
			wheres = append(wheres, where{" where " + f.col + " is " + v, fi})
		}
	}
	bys := []string{""}
	for _, g := range sh.groups {
		bys = append(bys, " by "+g)
	}
	for _, w := range wheres {
		for _, by := range bys {
			if w.fcol >= 0 && by == " by "+sh.filters[w.fcol].col {
				continue // grouping by the filtered column is a one-row answer
			}
			out = append(out, question{text: "how many " + sh.name + w.clause + by, shape: sh, fcol: w.fcol})
			for _, agg := range aggWords {
				for _, tg := range sh.targets {
					out = append(out, question{
						text:  "what is the " + agg + " " + tg + " in " + sh.name + w.clause + by,
						shape: sh, isAgg: true, fcol: w.fcol})
				}
			}
		}
		for i := 0; i+1 < len(sh.cols); i++ {
			out = append(out, question{
				text:  "list the " + sh.cols[i] + " and " + sh.cols[i+1] + " of " + sh.name + w.clause,
				shape: sh, fcol: w.fcol})
		}
	}
	return out
}

// Fixed utterances outside the templates.
var (
	arcDiscover = []string{
		"Give me an overview of the working force in Switzerland",
		"find data about the labour market",
		"which datasets cover employment",
	}
	arcDescribe = []string{
		"What is the Swiss workforce barometer?",
		"tell me about the barometer",
		"what is employment",
	}
	arcChoose = []string{
		"I am interested in the barometer",
		"let's use the barometer",
		"I am interested in the employment type distribution",
	}
	arcAnalyze = []string{
		"Can you please give me the seasonality insights, such as overall trend, etc.",
		"forecast the next months",
		"are there any anomalies?",
	}
	outOfGrammar = []string{
		"how many unicorns where color is pink",
		"thanks, that helps",
		"hmm, interesting",
		"what is the average mood in the office",
		"plot it as a pie chart",
	}
	confirms = []string{"yes", "no", "yes, go ahead"}
)

// mix is one workload's turn distribution.
type mix struct {
	turns     int     // asks per session
	arcShare  float64 // share of sessions opening with the Figure-1 arc
	chain     float64 // per slot: start a head + follow-up chain
	oog       float64 // per slot: out-of-grammar turn
	confirm   float64 // per slot: yes/no turn
	readShare float64 // page reads inserted per ask
	replica   bool    // page reads ask the router for the replica
	// zipfS > 1 draws self-contained questions Zipf-skewed over the
	// shuffled pool; 0 draws them uniformly (mostly distinct on a
	// large pool).
	zipfS float64
}

// generator carries the seeded state of one op-list build.
type generator struct {
	r     *rand.Rand
	m     mix
	pool  []question // shuffled; front part serves standalone draws
	heads []question // disjoint from the standalone part, used once each
	zipf  *rand.Zipf
	front int
	arc   []bool // by session index: opens with the Figure-1 arc
}

// newGenerator shuffles the template pool with the seed and splits it:
// chain heads come from the back and are never repeated, so a head is
// always an answer-cache miss and always records the frame its
// follow-ups patch — which keeps every turn's generated code
// independent of how the clients interleave.
//
// Which sessions open with the arc is a seeded choice of exactly
// arcShare of them, not a coin per session: arc answers are several
// times longer than query answers, and a binomial count of them was
// the largest part of the seed-to-seed spread of bytes per turn.
func newGenerator(seed int64, shapes []tableShape, m mix, sessions int) *generator {
	g := &generator{r: rand.New(rand.NewSource(seed)), m: m, arc: make([]bool, sessions)}
	if m.turns >= 4 {
		for _, si := range g.r.Perm(sessions)[:int(m.arcShare*float64(sessions)+0.5)] {
			g.arc[si] = true
		}
	}
	for i := range shapes {
		g.pool = append(g.pool, selfContained(&shapes[i])...)
	}
	g.r.Shuffle(len(g.pool), func(i, j int) { g.pool[i], g.pool[j] = g.pool[j], g.pool[i] })
	g.front = len(g.pool) * 6 / 10
	for _, q := range g.pool[g.front:] {
		if q.fcol >= 0 {
			g.heads = append(g.heads, q)
		}
	}
	if m.zipfS > 1 {
		g.zipf = rand.NewZipf(g.r, m.zipfS, 4, uint64(g.front-1))
	}
	return g
}

func (g *generator) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g *generator) standalone() string {
	if g.zipf != nil {
		return g.pool[g.zipf.Uint64()].text
	}
	return g.pool[g.r.Intn(g.front)].text
}

// followUp phrases an elliptical patch of q and returns the patched
// question state, so chains can continue.
func (g *generator) followUp(q question) (string, question) {
	sh := q.shape
	switch x := g.r.Intn(10); {
	case x < 2 && q.isAgg:
		return "and the " + g.pick(aggWords), q
	case x < 4 && len(sh.filters) > 1:
		fi := g.r.Intn(len(sh.filters))
		f := sh.filters[fi]
		q.fcol = fi
		return "and where " + f.col + " is " + g.pick(f.values), q
	default:
		v := g.pick(sh.filters[q.fcol].values)
		return g.pick([]string{"and in " + v + "?", "what about " + v, "how about " + v + "?", "and for " + v}), q
	}
}

// session generates one dialogue: create, then m.turns asks with page
// reads interleaved. Follow-ups only ever directly follow their head
// or another follow-up of the same chain.
func (g *generator) session(si int, withCreate bool) []op {
	var ops []op
	if withCreate {
		ops = append(ops, op{Kind: opCreate, Session: si})
	}
	asks := 0
	ask := func(text, class string) {
		ops = append(ops, op{Kind: opAsk, Session: si, Turn: asks, Question: text, Class: class})
		asks++
		if g.r.Float64() < g.m.readShare {
			ops = append(ops, op{Kind: opPage, Session: si, Offset: g.r.Intn(2 * asks), Limit: 10, Replica: g.m.replica})
		}
	}
	if g.arc[si] {
		ask(g.pick(arcDiscover), classArc)
		ask(g.pick(arcDescribe), classArc)
		ask(g.pick(arcChoose), classArc)
		ask(g.pick(arcAnalyze), classArc)
	}
	for asks < g.m.turns {
		x := g.r.Float64()
		switch {
		case x < g.m.chain && g.m.turns-asks >= 2 && len(g.heads) > 0:
			head := g.heads[len(g.heads)-1]
			g.heads = g.heads[:len(g.heads)-1]
			ask(head.text, classHead)
			for n := 1 + g.r.Intn(2); n > 0 && asks < g.m.turns; n-- {
				var text string
				text, head = g.followUp(head)
				ask(text, classFollowUp)
			}
		case x < g.m.chain+g.m.oog:
			ask(g.pick(outOfGrammar), classOOG)
		case x < g.m.chain+g.m.oog+g.m.confirm:
			ask(g.pick(confirms), classConfirm)
		default:
			ask(g.standalone(), classQuery)
		}
	}
	return ops
}

// dialogueOps is the op list of the dialogue workloads: sessions in
// index order, each a create followed by its turns.
func dialogueOps(seed int64, shapes []tableShape, m mix, sessions int) []op {
	g := newGenerator(seed, shapes, m, sessions)
	var ops []op
	for si := 0; si < sessions; si++ {
		ops = append(ops, g.session(si, true)...)
	}
	return ops
}

// historyOps returns history_reads' two lists: the pre-population
// (sessions × turns asks, part of set-up) and the measured list of n
// ops against those sessions — page reads at random offsets, as-of
// reads at random committed turns, and asks that keep the
// transcripts growing.
func historyOps(seed int64, shapes []tableShape, m mix, sessions, n int) (prepop, ops []op) {
	g := newGenerator(seed, shapes, m, sessions)
	asked := make([]int, sessions)
	for si := 0; si < sessions; si++ {
		prepop = append(prepop, g.session(si, true)...)
		asked[si] = m.turns
	}
	for i := 0; i < n; i++ {
		si := g.r.Intn(sessions)
		total := 2 * asked[si] // transcript turns: one user + one system per ask
		switch x := g.r.Float64(); {
		case x < 0.45:
			ops = append(ops, op{Kind: opPage, Session: si, Offset: g.r.Intn(total), Limit: 20})
		case x < 0.90:
			ops = append(ops, op{Kind: opAsOf, Session: si, AsOf: 2 * (1 + g.r.Intn(asked[si]))})
		default:
			ops = append(ops, op{Kind: opAsk, Session: si, Turn: asked[si], Question: g.standalone(), Class: classQuery})
			asked[si]++
		}
	}
	return prepop, ops
}

// opDigest is the SHA-256 of the op lists' canonical JSON: the same
// seed must give the same digest on every machine.
func opDigest(lists ...[]op) (string, error) {
	raw, err := json.Marshal(lists)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// countKind counts the ops of one kind.
func countKind(ops []op, kind string) int {
	n := 0
	for _, o := range ops {
		if o.Kind == kind {
			n++
		}
	}
	return n
}
