#!/usr/bin/env bash
# check.sh — the extended verification gate for this repo.
#
# Runs, in order:
#   1. gofmt -l      — every tracked .go file is gofmt-formatted.
#                      testdata/ is left out: analyzer fixtures may be
#                      laid out on purpose (today only the
#                      droppederror fixture is unformatted), and any
#                      other file gofmt would change fails the gate.
#                      The push/PR job in .github/workflows/check.yml
#                      runs the same check
#   2. go vet        — stock Go correctness checks. Its copylocks pass
#                      is the only guard against copying a struct that
#                      holds a lock (cdalint's mutex-hygiene rule did
#                      the same job and is gone), which is why the
#                      push/PR job in .github/workflows/check.yml runs
#                      vet too
#   3. go build      — every package compiles
#   4. cdalint       — the repo's own reliability analyzers. The rule
#                      set is printed from the registry at run time
#                      (cdalint -list) so this script never drifts from
#                      the code; see README "Static analysis &
#                      reliability invariants" for what each enforces.
#                      The analysis itself — pattern rules and
#                      CFG/typestate rules, each run one package at a
#                      time — runs under a 15-second budget (compile time
#                      excluded; the whole run, load and type-check
#                      included, takes about 3.5 s on a 2-vCPU box):
#                      if whole-module analysis ever
#                      exceeds it, the gate fails rather than silently
#                      slowing every CI run. After the rule list the
#                      step prints how many cdalint:ignore directives
#                      the module's own code carries, per rule, so a
#                      suppression that creeps in shows in the log
#                      (TestModuleIgnoresAreLoadBearing fails one that
#                      suppresses nothing).
#   5. go test -race — the whole module's test suite, once, under the
#                      race detector. That one run is every -race gate
#                      this script used to list separately: the
#                      filter scan's GOMAXPROCS-sweep determinism
#                      properties, the chaos fault sweeps and
#                      cancellation contracts,
#                      kill-and-recover and cluster kill/partition
#                      run-twice transcript diffs, and the session
#                      store, admission, framelog and versioned-store
#                      durability suites. The framelog + vstore +
#                      sessionstore part — the power-cut and
#                      dead-journal tests, which hold a shard's lock
#                      and the version store's together — and the ship
#                      loop, catch-up loop and node routes that drive it
#                      (server, cluster, chaos, cmd/cdarouter) also run
#                      on every push and PR (check.yml build-test: go
#                      test -race ./internal/framelog ./internal/vstore
#                      ./internal/sessionstore ./internal/server
#                      ./internal/cluster ./internal/chaos
#                      ./cmd/cdarouter, ~1 min),
#                      since tier-1 has no -race. FuzzScan, FuzzJournalOpen
#                      (arbitrary journals, seeded from the fixture
#                      journals and retention-v7's set records: a
#                      refusal for an older format keeps every whole
#                      frame), FuzzDecodePayload
#                      (arbitrary journal payloads, seeded from the v7
#                      fixture journals — commit records in both tree
#                      forms among them — the v6 ones, which are still
#                      read, and the v5 ones' JSON payloads and
#                      retention-v7's set records, which are
#                      refused: never a panic, every accepted
#                      one decodes and encodes back to the same bytes,
#                      a shipped one AddPackets' check accepts has
#                      address refs),
#                      FuzzDecodeLeaf (arbitrary leaf data shipped as
#                      a peer's packet: AddPackets installs it exactly
#                      when parseLeaf accepts it), FuzzEncodeLeaf
#                      (typed spans built from the fuzz bytes — -0,
#                      subnormals and scaled decimals among them —
#                      must encode to no more than their plain form,
#                      to the same bytes again and after another row,
#                      to a leaf parseLeaf accepts, and to other bytes
#                      than the span with one value changed),
#                      FuzzDecodeSessionTree (seeded
#                      from the chunks of sessionstore's format-v7 and
#                      tree-v7 fixtures, whole and cut short, from
#                      the JSON chunks of v5's, and from turns chunks
#                      holding a system turn with an intent code or a
#                      user turn with code 0, all of which are refused),
#                      FuzzApplyBatch (ShipBatch JSON applied to a
#                      replica opened on format-v8, seeded from what
#                      primaries opened on format-v8 and format-v9
#                      ship, its shard roots, the forged roots of
#                      TestForgedShipBatchIsAnError, and the record
#                      frames format-v7's WALs hold and 4bc3512
#                      shipped, which are refused), FuzzOpenRebuild
#                      (arbitrary bytes as a data directory's journal:
#                      Open fails or opens, never panics, and a real
#                      journal cut at a frame boundary rebuilds the
#                      cursors of the records it holds),
#                      FuzzVectorOps (AppendRow/Gather/seal scripts
#                      over column vectors of every kind, checked
#                      against a []Value oracle), FuzzReadCSV
#                      (arbitrary CSV text under an inferred or given
#                      schema, loaded by column workers in two-record
#                      batches and checked against the serial load's
#                      table or error text), FuzzDecodeError
#                      (arbitrary error responses never decode to nil
#                      or a panic; the response writeError renders for
#                      each refusal kind decodes back to its status's
#                      kind and message) and FuzzEngineMatchesOracle
#                      (arbitrary SQL text over small tables: whatever
#                      parses gets the row oracle's answer or error
#                      text from the columnar engine) run their seed
#                      corpora here; the nightly full-check job in
#                      .github/workflows/check.yml also fuzzes the
#                      frame scanner, the journal decoder, its payload
#                      decoder, the column-leaf check and encoder,
#                      the session-tree decoder, the replica's batch
#                      apply, the rebuild from the
#                      journal, the vector
#                      operations, the CSV load, the error decoder and
#                      the SQL engine for 30 s each, in one step that
#                      loops over the (package, target) pairs (go test
#                      ./internal/framelog -run '^$' -fuzz='^FuzzScan$'
#                      -fuzztime=30s -fuzzminimizetime=2s; the same
#                      in ./internal/vstore with FuzzJournalOpen,
#                      FuzzDecodePayload, FuzzDecodeLeaf and
#                      FuzzEncodeLeaf, in ./internal/sessionstore with
#                      FuzzDecodeSessionTree, FuzzApplyBatch and
#                      FuzzOpenRebuild, in
#                      ./internal/storage with
#                      FuzzVectorOps and FuzzReadCSV, in
#                      ./internal/server with FuzzDecodeError, and in
#                      ./internal/sqldb with FuzzEngineMatchesOracle).
#   6. bench module  — go vet -C bench ./... and go test -C bench
#                      ./...: bench/ is a module of its own that
#                      `./...` skips, and cdaload imports
#                      internal/storage, sessionstore and vstore, so a
#                      change to those must keep it compiling and its
#                      own tests green. The full vet runs because the
#                      subset go test runs leaves out copylocks, the
#                      check step 2 relies on
#   7. bench smoke   — one iteration of every benchmark in the module,
#                      with -benchmem (the root E-benches, ablations,
#                      resilience benches and the two version-commit
#                      benches: BenchmarkCommitOrdersTable — the one
#                      data version a node commits, scan_heavy's
#                      60 000 × 5 orders table to a dir-backed store,
#                      with the journal it leaves as pack-B/op — and
#                      BenchmarkSessionVersionCommit;
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
#   8. line counts   — the non-test and test lines of the module's .go
#                      files, bench/ and testdata aside: the numbers
#                      ROADMAP's aim 2 quotes, so they come from here
#                      and not from a hand count
#
# Any non-zero exit fails the gate. See README "Static analysis &
# reliability invariants" for what each cdalint rule enforces.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> gofmt -l (tracked .go files, testdata aside)"
unformatted="$(git ls-files '*.go' | grep -v '/testdata/' | xargs gofmt -l)"
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above are not formatted"
	exit 1
fi

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

echo "==> go vet -C bench ./... and go test -C bench ./... (the benchmark's own module)"
go vet -C bench ./...
go test -C bench ./...

echo "==> benchmark smoke (1 iteration of each)"
go test -run='^$' -bench=. -benchtime=1x -benchmem . ./internal/storage ./internal/analysis
go test -run='^$' -bench=. -benchtime=1x -benchmem -cpu 1,2 ./internal/sqldb

echo "==> line counts (.go files outside bench/, testdata aside)"
golines() { find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*' "$@" -print0 | xargs -0 cat | wc -l; }
echo "    non-test lines: $(golines ! -name '*_test.go')"
echo "    test lines:     $(golines -name '*_test.go')"

echo "check.sh: all gates passed"
