// NL2SQL-verified: demonstrates the reliability ladder on a noisy
// simulated LLM. The same questions run through (a) the
// generation-only baseline and (b) the grounded + constrained +
// verified pipeline, showing how verification turns hallucinations
// into either correct answers or explicit abstentions.
//
//	go run ./examples/nl2sql-verified
package main

import (
	"fmt"
	"log"

	"github.com/reliable-cda/cda/internal/ground"
	"github.com/reliable-cda/cda/internal/nl2sql"
	"github.com/reliable-cda/cda/internal/nlmodel"
	"github.com/reliable-cda/cda/internal/sqldb"
	"github.com/reliable-cda/cda/internal/workload"
)

func main() {
	w := workload.GenNL2SQL(6, 0.6, 11)
	grounder := ground.NewGrounder(nil, w.DB, w.Vocab)
	gold := sqldb.NewEngine(w.DB)

	const noise = 0.15
	translator := func(opts nl2sql.Options) *nl2sql.Translator {
		tr := nl2sql.NewTranslator(w.DB, grounder, 0)
		tr.Channel = nlmodel.Channel{HallucinationRate: noise, Fabrications: w.Fabrications}
		tr.Options = opts
		return tr
	}
	base := translator(nl2sql.Options{Samples: 1, MaxRepairAttempts: 1})
	full := translator(nl2sql.DefaultOptions())

	for i, qa := range w.Pairs {
		fmt.Printf("Q%d: %s\n", i+1, qa.Question)
		goldRes, err := gold.Query(qa.GoldSQL)
		if err != nil {
			log.Fatal(err)
		}

		base.Seed = int64(i)
		b, err := base.Translate(qa.Question)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  baseline:  %s\n             -> %s\n", b.SQL, verdict(b, goldRes))

		full.Seed = int64(i)
		f, err := full.Translate(qa.Question)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  verified:  %s\n             -> %s (confidence %.0f%%)\n\n",
			f.SQL, verdict(f, goldRes), f.Confidence*100)
	}
}

func verdict(tr *nl2sql.Translation, gold *sqldb.Result) string {
	switch {
	case tr.Abstained:
		return "ABSTAINED (nothing verifiable)"
	case tr.Result == nil:
		return "FAILED to execute (reported anyway — this is the hallucination risk)"
	case tr.Result.Fingerprint() == gold.Fingerprint():
		return "correct"
	default:
		return "WRONG result"
	}
}
