// Command cdaserver serves the reliable CDA system over HTTP/JSON,
// loaded with the synthetic Swiss labour-market domain (or your own
// CSV tables via -csv).
//
// Usage:
//
//	cdaserver [-addr :8080] [-seed 1] [-noise 0.05] [-csv a.csv,b.csv]
//	          [-data-dir ./data] [-session-ttl 30m] [-shards 8]
//	          [-snapshot-every 256] [-max-inflight 64] [-rate 0] [-burst 0]
//	          [-node-name node] [-versioned]
//
// With -data-dir, sessions are durable: every committed turn is
// WAL-logged before the response is acknowledged, and a restarted
// server replays the directory to serve the same transcripts
// byte-for-byte. Without it, sessions live in memory only.
//
// With -versioned (requires -data-dir), the node additionally keeps a
// content-addressed version store under <data-dir>/vstore: the
// analytical database and every session transcript get immutable
// Merkle-tree versions, answers are stamped with the data root hash
// they were computed against, GET /sessions/{id}/asof/{turn} serves
// time-travel transcript reads, and replica catch-up below the
// compaction horizon ships only missing chunks. A turn still waits for
// one fsync, the WAL's: a session's version is written to the journal
// unflushed, the journal is flushed before a compaction truncates the
// WAL that could rebuild it, and a restart after a power cut commits
// again whatever versions the journal's tail lost. A version or
// compaction failure never fails a turn; it is logged, under a request
// reference, at the turn that ran into it.
//
// Example session:
//
//	curl -X POST localhost:8080/sessions                  # -> {"id":"s0001"}
//	curl -X POST localhost:8080/sessions/s0001/ask \
//	     -d '{"question":"how many employment where canton is Zurich"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/reliable-cda/cda/internal/admission"
	"github.com/reliable-cda/cda/internal/catalog"
	"github.com/reliable-cda/cda/internal/core"
	"github.com/reliable-cda/cda/internal/resilience"
	"github.com/reliable-cda/cda/internal/server"
	"github.com/reliable-cda/cda/internal/sessionstore"
	"github.com/reliable-cda/cda/internal/storage"
	"github.com/reliable-cda/cda/internal/vstore"
	"github.com/reliable-cda/cda/internal/workload"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "random seed")
	noise := flag.Float64("noise", 0.05, "simulated LLM hallucination rate")
	csvs := flag.String("csv", "", "comma-separated CSV files to serve instead of the Swiss demo domain")
	dataDir := flag.String("data-dir", "", "directory for durable session state (empty: in-memory sessions)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0: never)")
	shards := flag.Int("shards", 8, "session store shard count (rounded up to a power of two)")
	snapshotEvery := flag.Int("snapshot-every", 256, "compact each shard's WAL into a snapshot every N records")
	maxInflight := flag.Int("max-inflight", 64, "per-shard concurrent ask limit (negative: unlimited)")
	rate := flag.Float64("rate", 0, "per-shard admitted asks per second (0: unlimited)")
	burst := flag.Float64("burst", 0, "token-bucket burst size (0: max(rate,1))")
	nodeName := flag.String("node-name", "node", "node name reported by /healthz and stamped on stale replica reads")
	versioned := flag.Bool("versioned", false, "keep content-addressed versions of data and transcripts under <data-dir>/vstore (requires -data-dir)")
	flag.Parse()
	if *versioned && *dataDir == "" {
		log.Fatal("cdaserver: -versioned requires -data-dir")
	}

	var cfg core.Config
	var cat *catalog.Catalog
	now := 0
	if *csvs == "" {
		d := workload.NewSwissDomain(*seed)
		cfg = core.Config{DB: d.DB, Catalog: d.Catalog, KG: d.KG, Vocab: d.Vocab, Documents: d.Documents, Now: d.Now}
		cat = d.Catalog
		now = d.Now
	} else {
		db := storage.NewDatabase("served")
		cat = catalog.New()
		for _, path := range strings.Split(*csvs, ",") {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			t, err := storage.ReadCSV(name, f, nil)
			cerr := f.Close()
			if err != nil {
				log.Fatal(err)
			}
			if cerr != nil {
				log.Fatal(cerr)
			}
			db.Put(t)
			cat.Add(catalog.Dataset{ID: name, Name: name, Description: "loaded from " + path, Source: path, Table: t})
		}
		cfg = core.Config{DB: db, Catalog: cat}
	}
	cfg.Seed = *seed
	cfg.HallucinationRate = *noise

	clock := resilience.NewWallClock()
	storeCfg := sessionstore.Config{
		Shards:        *shards,
		SnapshotEvery: *snapshotEvery,
		TTL:           *sessionTTL,
		Clock:         clock,
	}
	var versions *vstore.Store
	if *versioned {
		vs, err := vstore.Open(vstore.Config{Dir: filepath.Join(*dataDir, "vstore")})
		if err != nil {
			log.Fatalf("cdaserver: open version store: %v", err)
		}
		versions = vs
		storeCfg.Versions = vs
		cfg.Versions = vs
	}
	var store *sessionstore.Store
	if *dataDir == "" {
		store = sessionstore.NewMemory(storeCfg)
	} else {
		storeCfg.Dir = *dataDir
		st, err := sessionstore.Open(storeCfg)
		if err != nil {
			log.Fatalf("cdaserver: open session store: %v", err)
		}
		store = st
		log.Printf("cdaserver: durable sessions in %s (%d shards, snapshot every %d, versioned=%t)",
			*dataDir, *shards, *snapshotEvery, *versioned)
	}
	adm := admission.New(admission.Config{
		Shards:      *shards,
		MaxInflight: *maxInflight,
		Rate:        *rate,
		Burst:       *burst,
		Clock:       clock,
	})

	sys := core.New(cfg)
	if versions != nil {
		// Version zero of the analytical data: every answer from here on
		// is stamped with the root hash it was computed against.
		c, err := sys.CommitData(0)
		if err != nil {
			log.Fatalf("cdaserver: commit initial data version: %v", err)
		}
		log.Printf("cdaserver: data root %s (%d chunks)", c.Hash, versions.NumChunks())
	}
	srv := server.NewWithOptions(sys, cat, now, server.Options{Store: store, Admission: adm, NodeName: *nodeName})
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Bounded I/O: a stalled client cannot pin a connection (and
		// its session lock) forever.
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Idle sweeper: evict sessions past the TTL so tombstones are
	// durable (a lazily evicted session would otherwise only tombstone
	// when next touched).
	sweepDone := make(chan struct{})
	var sweepStop func()
	if *sessionTTL > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		sweepStop = cancel
		tick := time.NewTicker(*sessionTTL / 4)
		go func() {
			defer close(sweepDone)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if n, err := store.SweepIdle(); err != nil {
						log.Printf("cdaserver: idle sweep: %v", err)
					} else if n > 0 {
						log.Printf("cdaserver: evicted %d idle sessions", n)
					}
				}
			}
		}()
	} else {
		close(sweepDone)
		sweepStop = func() {}
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("cdaserver listening on %s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		// Graceful drain: stop accepting, let in-flight asks finish,
		// and force-close whatever is still running at the deadline.
		log.Printf("cdaserver: %s received, draining connections", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("cdaserver: shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("cdaserver: serve: %v", err)
		}
		sweepStop()
		<-sweepDone
		// Close after the drain: every acknowledged turn is already in
		// the WAL; Close compacts shards and surfaces any deferred
		// compaction error.
		if err := store.Close(); err != nil {
			log.Printf("cdaserver: close session store: %v", err)
		}
		if versions != nil {
			if err := versions.Close(); err != nil {
				log.Printf("cdaserver: close version store: %v", err)
			}
		}
	}
}
