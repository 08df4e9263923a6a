package nl2sql

import (
	"strings"
	"testing"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/storage"
)

func fixtureDB() *storage.Database {
	db := storage.NewDatabase("hr")
	emp := storage.NewTable("employees", storage.Schema{
		{Name: "id", Kind: storage.KindInt},
		{Name: "name", Kind: storage.KindString},
		{Name: "department", Kind: storage.KindString},
		{Name: "salary", Kind: storage.KindFloat},
	})
	emp.MustAppendRow(storage.Int(1), storage.Str("Ada"), storage.Str("Engineering"), storage.Float(120))
	emp.MustAppendRow(storage.Int(2), storage.Str("Bob"), storage.Str("Engineering"), storage.Float(90))
	emp.MustAppendRow(storage.Int(3), storage.Str("Cleo"), storage.Str("Sales"), storage.Float(100))
	db.Put(emp)
	return db
}

func fixtureGrounder(db *storage.Database) *ground.Grounder {
	vocab := ground.NewVocabulary()
	vocab.AddSynonym("staff", "employees")
	vocab.AddSynonym("pay", "salary")
	return ground.NewGrounder(nil, db, vocab)
}

func cleanTranslator(db *storage.Database) *Translator {
	tr := NewTranslator(db, fixtureGrounder(db), 1)
	tr.Channel.HallucinationRate = 0 // noiseless for parsing tests
	return tr
}

func TestParseIntentCount(t *testing.T) {
	f, err := ParseIntent("How many employees?")
	if err != nil {
		t.Fatal(err)
	}
	if f.Agg != AggCount || f.TablePhr != "employees" || f.FilterCol != "" {
		t.Errorf("frame = %+v", f)
	}
}

func TestParseIntentCountWithFilter(t *testing.T) {
	f, err := ParseIntent("how many employees where department is Engineering")
	if err != nil {
		t.Fatal(err)
	}
	if f.FilterCol != "department" || f.FilterVal != "Engineering" {
		t.Errorf("frame = %+v", f)
	}
}

func TestParseIntentAgg(t *testing.T) {
	f, err := ParseIntent("What is the average salary in employees?")
	if err != nil {
		t.Fatal(err)
	}
	if f.Agg != AggAvg || f.TargetPhr != "salary" || f.TablePhr != "employees" {
		t.Errorf("frame = %+v", f)
	}
}

func TestParseIntentAggGroup(t *testing.T) {
	f, err := ParseIntent("what is the average salary in employees by department")
	if err != nil {
		t.Fatal(err)
	}
	if f.GroupPhr != "department" {
		t.Errorf("frame = %+v", f)
	}
}

func TestParseIntentList(t *testing.T) {
	f, err := ParseIntent("list the name and salary of employees where department is Sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ListColumns) != 2 || f.ListColumns[0] != "name" || f.ListColumns[1] != "salary" {
		t.Errorf("frame = %+v", f)
	}
	if f.FilterVal != "Sales" {
		t.Errorf("filter = %+v", f)
	}
}

func TestParseIntentUnsupported(t *testing.T) {
	if _, err := ParseIntent("please write me a poem"); err == nil {
		t.Error("unsupported question must error")
	}
}

func TestRenderLiteral(t *testing.T) {
	f := &Frame{Agg: AggAvg, TargetPhr: "salary", TablePhr: "employees", FilterCol: "department", FilterVal: "Engineering"}
	sql := f.Render(LiteralResolver{})
	want := "SELECT AVG(salary) FROM employees WHERE department = 'Engineering'"
	if sql != want {
		t.Errorf("sql = %q, want %q", sql, want)
	}
}

func TestRenderGroupBy(t *testing.T) {
	f := &Frame{Agg: AggCount, TablePhr: "employees", GroupPhr: "department"}
	sql := f.Render(LiteralResolver{})
	if sql != "SELECT department, COUNT(*) FROM employees GROUP BY department" {
		t.Errorf("sql = %q", sql)
	}
}

func TestRenderNumericFilterUnquoted(t *testing.T) {
	f := &Frame{Agg: AggCount, TablePhr: "t", FilterCol: "year", FilterVal: "2021"}
	sql := f.Render(LiteralResolver{})
	if !strings.Contains(sql, "year = 2021") || strings.Contains(sql, "'2021'") {
		t.Errorf("sql = %q", sql)
	}
}

func TestTranslateCleanPipeline(t *testing.T) {
	db := fixtureDB()
	tr := cleanTranslator(db)
	got, err := tr.Translate("what is the average salary in employees where department is Engineering")
	if err != nil {
		t.Fatal(err)
	}
	if got.Abstained {
		t.Fatalf("abstained: %+v", got)
	}
	if got.Result == nil || len(got.Result.Rows) != 1 {
		t.Fatalf("result = %+v", got.Result)
	}
	if v := got.Result.Rows[0][0]; v.F != 105 {
		t.Errorf("avg = %v", v)
	}
	if got.Confidence != 1 {
		t.Errorf("confidence = %v", got.Confidence)
	}
}

func TestTranslateSynonymNeedsGrounding(t *testing.T) {
	db := fixtureDB()
	// "staff" and "pay" are vocabulary synonyms, not schema names.
	q := "what is the average pay in staff"

	grounded := cleanTranslator(db)
	g, err := grounded.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if g.Abstained || g.Result == nil {
		t.Fatalf("grounded pipeline failed: %+v", g)
	}

	ungrounded := cleanTranslator(db)
	ungrounded.Options.UseGrounding = false
	ungrounded.Options.UseConstrained = false
	u, err := ungrounded.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Abstained && u.Result != nil {
		t.Errorf("ungrounded pipeline should fail on synonyms: %+v", u)
	}
}

func TestTranslateAbstainsWhenNothingExecutes(t *testing.T) {
	db := fixtureDB()
	tr := cleanTranslator(db)
	tr.Options.UseGrounding = false
	tr.Options.UseConstrained = false
	got, err := tr.Translate("what is the average pay in staff")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Abstained {
		t.Errorf("expected abstention, got %+v", got)
	}
}

func TestConstrainedRepairFixesHallucination(t *testing.T) {
	// Hand the repairer a corrupted query directly.
	fixed := newSchemaArtifacts(fixtureDB()).repairSQL("SELECT AVG ( salarry ) FROM employeez")
	if !strings.Contains(fixed, "salary") || !strings.Contains(fixed, "employees") {
		t.Errorf("repaired = %q", fixed)
	}
}

func TestNoisyChannelVerificationBeatsBaseline(t *testing.T) {
	db := fixtureDB()
	q := "how many employees where department is Engineering"
	run := func(opts Options) (ok, abstained int) {
		for seed := int64(0); seed < 40; seed++ {
			tr := NewTranslator(db, fixtureGrounder(db), seed)
			tr.Channel = nlmodel.Channel{HallucinationRate: 0.15, Fabrications: []string{"revenue", "customers", "xq7"}}
			tr.Options = opts
			got, err := tr.Translate(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Abstained {
				abstained++
				continue
			}
			if got.Result != nil && len(got.Result.Rows) == 1 &&
				got.Result.Rows[0][0].Kind == storage.KindInt && got.Result.Rows[0][0].I == 2 {
				ok++
			}
		}
		return ok, abstained
	}
	base := Options{Samples: 1, MaxRepairAttempts: 1}
	full := DefaultOptions()
	okBase, _ := run(base)
	okFull, _ := run(full)
	if okFull <= okBase {
		t.Errorf("full pipeline accuracy %d/40 <= baseline %d/40", okFull, okBase)
	}
}

func TestTranslateDeterministic(t *testing.T) {
	db := fixtureDB()
	q := "how many employees"
	tr1 := NewTranslator(db, fixtureGrounder(db), 7)
	tr2 := NewTranslator(db, fixtureGrounder(db), 7)
	a, err := tr1.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tr2.Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.SQL != b.SQL || a.Confidence != b.Confidence {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"salary", "salarry", 1},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGroundedResolver(t *testing.T) {
	db := fixtureDB()
	r := GroundedResolver{G: fixtureGrounder(db), DB: db}
	if got := r.Table("staff"); got != "employees" {
		t.Errorf("table = %q", got)
	}
	if got := r.Column("employees", "pay"); got != "salary" {
		t.Errorf("column = %q", got)
	}
	// Unknown phrases fall back to literal.
	if got := r.Table("warp cores"); got != "warp_cores" {
		t.Errorf("fallback table = %q", got)
	}
}

func TestTokenizeSQLRoundTrip(t *testing.T) {
	sql := "SELECT name FROM employees WHERE department = 'it''s'"
	toks := tokenizeSQL(sql)
	joined := strings.Join(toks, " ")
	if _, err := ParseIntent(""); err == nil {
		t.Error("empty intent must error")
	}
	if !strings.Contains(joined, "'it''s'") {
		t.Errorf("string literal lost: %q", joined)
	}
}
