// Command cdaquery answers a single question over CSV data through
// the verified NL2SQL pipeline and prints the result with its SQL,
// confidence, and per-row provenance.
//
// Usage:
//
//	cdaquery -csv table1.csv[,table2.csv...] "how many table1 where col is value"
//	cdaquery -sql -csv data.csv "SELECT COUNT(*) FROM data"
//
// Table names are the CSV base names without extension. With -sql the
// question is executed as SQL directly (no NL translation).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/timeseries"
)

func main() {
	csvs := flag.String("csv", "", "comma-separated CSV files to load as tables")
	rawSQL := flag.Bool("sql", false, "treat the question as SQL, skipping NL translation")
	analyze := flag.String("analyze", "", "run a time-series analysis instead of a query: table.column")
	seed := flag.Int64("seed", 1, "random seed")
	showProv := flag.Bool("prov", false, "print per-row provenance (base-table rows)")
	flag.Parse()

	if *csvs == "" || (flag.NArg() != 1 && *analyze == "") {
		fmt.Fprintln(os.Stderr, "usage: cdaquery -csv file.csv[,file2.csv] [-sql|-analyze table.column] [-prov] [\"question\"]")
		os.Exit(2)
	}
	db := storage.NewDatabase("cli")
	for _, path := range strings.Split(*csvs, ",") {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		t, err := storage.ReadCSV(name, f, nil)
		cerr := f.Close()
		if err != nil {
			fatal(err)
		}
		if cerr != nil {
			fatal(cerr)
		}
		db.Put(t)
	}

	if *analyze != "" {
		runAnalysis(db, *analyze)
		return
	}

	question := flag.Arg(0)
	var res *sqldb.Result
	if *rawSQL {
		var err error
		res, err = sqldb.NewEngine(db).Query(question)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sql: %s\n", question)
	} else {
		tr := nl2sql.NewTranslator(db, ground.NewGrounder(nil, db, nil), *seed)
		tr.Engine.CaptureProvenance = *showProv
		out, err := tr.Translate(question)
		if err != nil {
			fatal(err)
		}
		if out.Abstained {
			fmt.Println("abstained: no candidate query could be verified against the data")
			os.Exit(1)
		}
		fmt.Printf("sql: %s\nconfidence: %.0f%%\n", out.SQL, out.Confidence*100)
		res = out.Result
	}

	fmt.Println(strings.Join(res.Columns, " | "))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
		if *showProv && res.Prov != nil {
			refs := make([]string, len(res.Prov[i]))
			for j, r := range res.Prov[i] {
				refs[j] = fmt.Sprintf("%s[%d]", r.Table, r.Row)
			}
			fmt.Println("  from: " + strings.Join(refs, ", "))
		}
	}
}

// runAnalysis prints trend, seasonality, a 6-step forecast, and
// anomalies for one numeric column.
func runAnalysis(db *storage.Database, target string) {
	parts := strings.SplitN(target, ".", 2)
	if len(parts) != 2 {
		fatal(fmt.Errorf("-analyze expects table.column, got %q", target))
	}
	t, err := db.Get(parts[0])
	if err != nil {
		fatal(err)
	}
	vals, _, err := t.FloatColumn(parts[1])
	if err != nil {
		fatal(err)
	}
	if len(vals) == 0 {
		fatal(fmt.Errorf("column %s has no numeric values", target))
	}
	trend, err := timeseries.DetectTrend(vals)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trend: %s (slope %.4f, confidence %.0f%%)\n", trend.Direction, trend.Slope, trend.Confidence*100)
	maxPeriod := len(vals) / timeseries.MinPointsPerPeriod
	if maxPeriod > 24 {
		maxPeriod = 24
	}
	season := &timeseries.Seasonality{}
	if maxPeriod >= 2 {
		if s, err := timeseries.DetectSeasonality(vals, maxPeriod); err == nil {
			season = s
		}
	}
	if season.Period > 0 {
		fmt.Printf("seasonality: period %d (confidence %.0f%%)\n", season.Period, season.Confidence*100)
	} else {
		fmt.Println("seasonality: none detected")
	}
	if f, err := timeseries.ForecastSeries(vals, season.Period, 6, 0.9); err == nil {
		fmt.Printf("forecast (%s, 90%% intervals):\n", f.Method)
		for h := range f.Values {
			fmt.Printf("  t+%d: %.2f [%.2f, %.2f]\n", h+1, f.Values[h], f.Lower[h], f.Upper[h])
		}
	}
	if anomalies, err := timeseries.DetectAnomalies(vals, season.Period, 3); err == nil && len(anomalies) > 0 {
		fmt.Printf("anomalies (|z| >= 3):\n")
		for _, a := range anomalies {
			fmt.Printf("  index %d: %.2f (z = %+.1f)\n", a.Index, a.Value, a.Z)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdaquery:", err)
	os.Exit(1)
}
