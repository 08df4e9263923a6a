#!/usr/bin/env bash
# check.sh — the extended verification gate for this repo.
#
# Runs, in order:
#   1. go vet        — stock Go correctness checks. Its copylocks pass
#                      is the only guard against copying a struct that
#                      holds a lock (cdalint's mutex-hygiene rule did
#                      the same job and is gone), which is why the
#                      push/PR job in .github/workflows/check.yml runs
#                      vet too
#   2. go build      — every package compiles
#   3. cdalint       — the repo's own reliability analyzers. The rule
#                      set is printed from the registry at run time
#                      (cdalint -list) so this script never drifts from
#                      the code; see README "Static analysis &
#                      reliability invariants" for what each enforces.
#                      The analysis itself — per-package rules, the
#                      interprocedural dataflow rules, the
#                      CFG/typestate rules, and the lockset race
#                      rules (racy-access, atomic-plain-mix,
#                      guard-escape) — runs under a 15-second
#                      budget (compile time excluded; the whole run,
#                      load and type-check included, takes about 3.5 s
#                      on a 2-vCPU box): if whole-module analysis ever
#                      exceeds it, the gate fails rather than silently
#                      slowing every CI run. After the rule list the
#                      step prints how many cdalint:ignore directives
#                      the module's own code carries, per rule, so a
#                      suppression that creeps in shows in the log
#                      (TestModuleIgnoresAreLoadBearing fails one that
#                      suppresses nothing).
#   4. go test -race — the whole module's test suite, once, under the
#                      race detector. That one run is every -race gate
#                      this script used to list separately: the
#                      filter scan's GOMAXPROCS-sweep determinism
#                      properties, the chaos fault sweeps and
#                      cancellation contracts,
#                      kill-and-recover and cluster kill/partition
#                      run-twice transcript diffs, and the session
#                      store, admission, framelog and versioned-store
#                      durability suites. The framelog + vstore +
#                      sessionstore part — journal readers racing GC's
#                      file swap, and the power-cut and dead-journal
#                      tests, which hold a shard's lock and the version
#                      store's together — also runs on every push and
#                      PR (check.yml build-test: go test -race
#                      ./internal/framelog ./internal/vstore
#                      ./internal/sessionstore, ~1 min), since tier-1
#                      has no -race. FuzzScan, FuzzJournalOpen
#                      (arbitrary journals: a refusal for an older
#                      format keeps every whole frame), FuzzDecodePayload
#                      (arbitrary journal payloads:
#                      never a panic, an accepted binary one is the
#                      one encoding the writer produces, a shipped one
#                      AddPackets' check accepts has address refs),
#                      FuzzDecodeLeaf, FuzzEncodeLeaf (typed spans
#                      built from the fuzz bytes — -0, subnormals and
#                      scaled decimals among them — must encode to no
#                      more than their plain form, decode bit for bit
#                      and re-encode to the same bytes),
#                      FuzzDecodeSessionTree (seeded
#                      from the chunks of sessionstore's format-v4 and
#                      tree-v4 fixtures, each chunk with refs also in
#                      the JSON older stores wrote, which is refused),
#                      FuzzDecodeRecord (seeded from every frame of the
#                      format-v4 and tree-v4 shard WALs),
#                      FuzzApplyBatch (ShipBatch JSON applied to a
#                      replica opened on format-v4, seeded from that
#                      fixture's frames and shard roots and the forged
#                      roots of TestForgedShipBatchIsAnError),
#                      FuzzVectorOps (Append/Set/Extend/Gather scripts
#                      over column vectors of every kind, checked
#                      against a []Value oracle) and FuzzReadCSV
#                      (arbitrary CSV text under an inferred or given
#                      schema, loaded by column workers in two-record
#                      batches and checked against the serial load's
#                      table or error text) and FuzzDecodeError
#                      (arbitrary error responses never decode to nil
#                      or a panic; the response writeError renders for
#                      each refusal kind decodes back to its status's
#                      kind and message) run their seed
#                      corpora here; the nightly full-check job in
#                      .github/workflows/check.yml also fuzzes the
#                      journal decoder, its payload decoder, the
#                      column-leaf decoder and encoder, the
#                      session-tree decoder, the WAL-record decoder,
#                      the replica's batch apply, the vector
#                      operations, the CSV load and the error decoder
#                      for 30 s each, in one step that loops over the
#                      (package, target) pairs (go test
#                      ./internal/vstore -run '^$' -fuzz='^FuzzJournalOpen$'
#                      -fuzztime=30s -fuzzminimizetime=2s; the same
#                      with FuzzDecodePayload, FuzzDecodeLeaf and
#                      FuzzEncodeLeaf, in ./internal/sessionstore with
#                      FuzzDecodeSessionTree, FuzzDecodeRecord and
#                      FuzzApplyBatch, in ./internal/storage with
#                      FuzzVectorOps and FuzzReadCSV, and in
#                      ./internal/server with FuzzDecodeError).
#   5. bench module  — go test -C bench ./...: bench/ is a module of
#                      its own that `./...` skips, and cdaload imports
#                      internal/storage, sessionstore and vstore, so a
#                      change to those must keep it compiling and its
#                      own tests green
#   6. bench smoke   — one iteration of every benchmark in the module,
#                      with -benchmem (the root E-benches, ablations,
#                      resilience and version-commit benches, among
#                      them BenchmarkCommitOrdersTable — the first
#                      commit of scan_heavy's 60 000 × 5 orders table
#                      to a dir-backed store, with the journal it
#                      leaves as pack-B/op;
#                      internal/storage's BenchmarkReadCSV and
#                      BenchmarkDistinctStrings over a generated
#                      60 000 × 5 orders table; internal/sqldb's
#                      row-vs-columnar table and
#                      BenchmarkParallelSQLFilterScan, run at -cpu 1,2
#                      because the filter scan takes its width from
#                      GOMAXPROCS; internal/analysis's whole-module
#                      cdalint runs), so a broken benchmark fixture
#                      fails the gate, not
#                      the next perf investigation, and the bytes and
#                      allocations per operation are in the log beside
#                      the times
#
# Any non-zero exit fails the gate. See README "Static analysis &
# reliability invariants" for what each cdalint rule enforces.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> cdalint ./... (15s analysis budget)"
CDALINT_BIN="$(mktemp -d)/cdalint"
trap 'rm -rf "$(dirname "$CDALINT_BIN")"' EXIT
go build -o "$CDALINT_BIN" ./cmd/cdalint
echo "    rules (from the registry):"
"$CDALINT_BIN" -list | sed 's/^/      /'
echo "    cdalint:ignore directives in module code (analyzers and tests aside), per rule:"
grep -rho --include='*.go' --exclude='*_test.go' --exclude-dir=analysis --exclude-dir=cdalint \
	'cdalint:ignore [a-z-]*' cmd internal examples ./*.go | sort | uniq -c | sed 's/^/  /'
timeout 15 "$CDALINT_BIN" ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -C bench ./... (the benchmark's own module)"
go test -C bench ./...

echo "==> benchmark smoke (1 iteration of each)"
go test -run='^$' -bench=. -benchtime=1x -benchmem . ./internal/storage ./internal/analysis
go test -run='^$' -bench=. -benchtime=1x -benchmem -cpu 1,2 ./internal/sqldb

echo "check.sh: all gates passed"
