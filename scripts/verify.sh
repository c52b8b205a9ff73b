#!/bin/sh
# verify.sh — the repo's one-command verification gate:
#   check formatting, build everything, vet everything, run all tests
#   under the race detector (the gen/service concurrency contracts are
#   race tests).
#
# Usage: ./scripts/verify.sh [extra go-test args]
# Run from anywhere; it cds to the module root.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./... $*"
go test -race "$@" ./...

# The Submit/Close shutdown race regressed silently once; keep it pinned
# with an extra repetition beyond the package run above.
echo "==> shutdown stress (Submit vs Close under -race)"
go test -race -run 'TestPoolSubmitCloseStress' -count=2 ./service

# Peer-down fallback builds its peer-owned bodies by construction; it once
# failed ~1 run in 60 when too few embedded templates hashed to the dead
# peer. Twenty repetitions pin the fix. The forwarded-cancellation test
# rides along: a forward carries no deadline of its own, so the owner must
# skip a queued job once the forwarder's context ends and its connection
# closes.
echo "==> peer-down fallback + forwarded cancellation (-race, 20 runs)"
go test -race -count=20 -run 'TestClusterPeerDownFallback|TestClusterForwardCancelSkipsQueuedJob' ./service

# The daemon's peer prober on driven time: the test calls probe rounds
# itself (three failing rounds open the peer's breaker, one healthy round
# closes it) under an hour-long ticker, so no sleep decides the verdict.
# Twenty repetitions on 1 and 2 CPUs hold it deterministic.
echo "==> peer probe rounds (-race, 1 and 2 CPUs, 20 runs)"
go test -race -cpu 1,2 -count=20 -run 'TestClusterProbeEjectsAndReadmits' ./service

# Concurrent misses over one body each make their own attempt, so several
# may compile the body's plan at once. Whatever the interleaving, each
# response keeps its own name and the body ends with one resident plan,
# counted once in plan_bytes. Twenty repetitions on 1 and 2 CPUs vary the
# interleaving.
echo "==> concurrent misses over one body (-race, 1 and 2 CPUs, 20 runs)"
go test -race -cpu 1,2 -count=20 -run 'TestConcurrentMissesOneBody' ./service

# Timed fuzz smoke: 10s of exploration per parser entry point, for the
# generator's word scanner against the regexps it replaces, for the
# wire's one-copy string decoder and its piecewise response encoder
# against encoding/json, for the type-check universe's body blanker
# against go/parser, and for the
# generator's one-parse printer against go/format, on top of the
# seed-corpus replay in the normal test run. Any crasher or mismatch
# fails the gate and lands in testdata/fuzz/ for triage.
echo "==> fuzz smoke (10s per target)"
go test -run NONE -fuzz 'FuzzParseRule' -fuzztime 10s ./crysl
go test -run NONE -fuzz 'FuzzParseTemplate' -fuzztime 10s ./gen
go test -run NONE -fuzz 'FuzzWordMatches' -fuzztime 10s ./gen
go test -run NONE -fuzz 'FuzzUnquote' -fuzztime 10s ./wire
go test -run NONE -fuzz 'FuzzEncodeGenerate' -fuzztime 10s ./wire
go test -run NONE -fuzz 'FuzzBlankBodies' -fuzztime 10s ./internal/srccheck
go test -run NONE -fuzz 'FuzzFormatFile' -fuzztime 10s ./internal/srccheck

# Decoded outputs must never alias a pooled body buffer: the aliasing
# test runs three more times under -race while eight goroutines churn the
# pool.
echo "==> decoded outputs outlive pooled buffers (-race, 3 runs)"
go test -race -count=3 -run 'TestDecodedOutputsOutliveBuffers' ./client

# The catalogue-hit layer row (SDK -> httptest daemon -> plan splice),
# the never-seen-body layer row (one Table 1 pipeline run per body), the
# misuse analyzer on the Figure 1 program and a generated use case, and a
# process's cold type-check universe (gca and its closure): one
# iteration each, so the benchmarks keep compiling and running. Their
# B/op and allocs/op come from longer runs, e.g. -benchtime 2000x
# -benchmem, -benchtime 400x, -benchtime 200x and -benchtime 10x.
echo "==> catalogue-hit + fresh-body + analysis + universe-warm benchmarks (1 iteration)"
go test -run '^$' -bench BenchmarkCatalogueHit -benchtime 1x ./service
go test -run '^$' -bench BenchmarkGenFresh -benchtime 1x .
go test -run '^$' -bench BenchmarkAnalysis -benchtime 1x .
go test -run '^$' -bench BenchmarkUniverseWarm -benchtime 1x ./internal/srccheck

# Superseded rule sets must be released across reloads of unchanged
# sources; three more runs under -race.
echo "==> superseded rule sets released on reload (-race, 3 runs)"
go test -race -count=3 -run 'TestReloadReleasesSupersededRuleSet' ./service

# Bounded resident heap: every file a generation, a verification, an
# analysis or a failing template parses leaves the shared token.FileSet
# again, so a daemon's FileSet stays the size of its type-check universe.
# Four goroutines churn one FileSet; repeat it under -race. The universe
# scans each package directory once, behind the per-directory latch that
# concurrent prefetch goroutines share: resolution must match go/build's,
# no directory may be scanned twice, and module-local packages and a
# Checker's user directories honour build constraints. Each dependency is
# pruned to its importable API inside the per-package latch, which the
# same goroutines share: a gca warm must build exactly its pinned package
# set, each of its files holding a line table of exactly its length.
# (TestUniverseAPIMatchesSourceImporter compares the pruned API with the
# stdlib source importer's from one goroutine, ~22 s per run under -race;
# the package run above runs it once, and repeating it adds no
# interleavings.) Files
# are parsed with function bodies and literal contents blanked: the
# blanker's table and unbalanced-input tests run here, every object the
# universe builds must sit at its unblanked position, and the boot warm
# must cover every package a template generation builds. Checks draw
# their types.Info from a pool that Recycle refills: a recycled Info must
# come back empty, and eight goroutines passing pooled Infos between them
# must each record exactly what a new Info records. Generation draws its
# splice and print buffers from pools too: 16 goroutines sharing one
# Generator and its verifying derivative over the 13 templates must each
# produce the bytes TestPipelineGolden pins, and GenerateInto running
# beside GenerateFile on one Generator must leave the latter's bytes
# alone. A daemon snapshot shares one Analyzer too: eight goroutines over
# the 13 outputs and the Figure 1 misuse must match a serial run.
# Same repetitions, same detector.
echo "==> FileSet returns to baseline + one scan per package dir + API pruning + body blanking + recycled type info + pooled generation buffers + shared Generator and Analyzer (-race, 3 runs)"
go test -race -count=3 -run 'TestFileSetReturnsToBaseline|TestConcurrentGeneration|TestGenerateIntoConcurrentWithGenerateFile' ./gen
go test -race -count=3 -run 'TestConcurrentAnalysis' ./analysis
go test -race -count=3 \
    -run 'TestChecksReleaseFiles|TestResolveMatchesGoBuild|TestOneScanPerPackageDir|TestModuleLocalBuildConstraints|TestUniverseClosure|TestUniverseLineTablesExact|TestCheckerBuildConstraints|TestBlankBodies|TestUniversePositionsMatchUnblanked|TestBootWarmCoversTemplates|TestRecycledInfoIsCleared|TestRecycleConcurrent' \
    ./internal/srccheck

# The benchmark harness (bench/, a module of its own, so the package run
# above does not reach it): its own tests, without the 4-workload smoke
# run that -short skips, offline.
echo "==> bench harness tests (-short)"
(cd bench && GOFLAGS=-buildvcs=false GOPROXY=off go test -short ./...)

# Multi-node outcomes, on both 1 and 2 CPUs under -race: a node killed
# and restarted under SDK load (TestClusterNodeKill, on probe rounds the
# test drives itself), and a healthy cluster whose every node answers
# byte-identically with one pipeline run per body, whether a request is
# sent to each node or round-robin (TestClusterSharedCacheByteIdentical,
# TestClusterOneRunPerBody).
# Single-node fault behaviour lives in unit tests of the package run
# above: the partition fallback and open-breaker rejection in
# TestClusterPeerDownFallback, the slow-peer probe floor in
# TestClusterProbeSlowPeerStaysAdmitted, and eject and re-admission in
# TestClusterProbeEjectsAndReadmits.
echo "==> cluster node kill + shared cache (-race, 1 and 2 CPUs)"
go test -race -cpu 1,2 -count=1 -run 'TestClusterNodeKill|TestClusterSharedCacheByteIdentical|TestClusterOneRunPerBody' ./service

# Cold-start gate: a second gen.New must cost under 10% of the process's
# first and share its type-check universe (FileSet and gca package). The
# test re-executes its binary so the first New really is the first.
echo "==> cold-start gate (-race, 3 runs)"
go test -race -count=3 -run TestSecondGeneratorReusesUniverse ./gen

echo "==> verify OK"
