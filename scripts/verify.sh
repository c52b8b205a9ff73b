#!/bin/sh
# verify.sh — the repo's one-command verification gate:
#   build everything, vet everything, run all tests under the race
#   detector (the gen/service concurrency contracts are race tests).
#
# Usage: ./scripts/verify.sh [extra go-test args]
# Run from anywhere; it cds to the module root.
set -eu

cd "$(dirname "$0")/.."

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

# Chaos suite: injected worker panics, reload failures, and latency storms
# must leave the daemon serving (500-then-recover, last-good snapshot,
# 429 + Retry-After shedding). Re-run explicitly under -race so a fault
# regression names itself even when the package run above is filtered.
echo "==> chaos suite (fault injection under -race)"
go test -race -run 'TestChaos|TestBodyCap' -count=1 ./service

# Timed fuzz smoke: 10s of exploration per parser entry point on top of
# the seed-corpus replay in the normal test run. Any crasher fails the
# gate and lands in testdata/fuzz/ for triage.
echo "==> fuzz smoke (10s per target)"
go test -run NONE -fuzz 'FuzzParseRule' -fuzztime 10s ./crysl
go test -run NONE -fuzz 'FuzzParseTemplate' -fuzztime 10s ./gen

# Cluster smoke: 3 in-process nodes behind the client SDK must produce
# byte-identical output to a standalone node for all 13 templates, and an
# unrouted pass must show the daemons forwarding to cache owners
# (forwarded_total > 0, exactly 13 generations cluster-wide). The wire
# contract and the SDK's retry/routing state get an extra explicit pass
# under -race on top of the package run above.
echo "==> cluster smoke (3 nodes, SDK, forwarding)"
go run ./cmd/loadgen -smoke
echo "==> wire/client race pass"
go test -race -count=1 ./wire ./client

# Plan fast-path identity: the precompiled-plan byte splicer must emit
# output byte-identical to the legacy pipeline for all 13 templates — on
# compile, on replay, under renamed requests and package overrides — and
# stay correct when one plan cache is shared across goroutines. The
# reload-storm regression (bounded shared caches across 50 reloads with
# per-reload fingerprints) rides in the same pass.
echo "==> plan byte-identity + reload-storm regression (-race)"
go test -race -count=1 \
    -run 'TestPlanByteIdentity|TestPlanPackageOverrideIdentity|TestPlanFallbacks|TestPlanConcurrentExecution' ./gen
go test -race -count=1 \
    -run 'TestReloadStormKeepsCachesBounded|TestConcurrentReloadAndGenerate' ./service

# Cluster chaos suite: whole-cluster failure drills — node kill/restart
# under live client load, peer-channel partitions via injected transport
# faults, slow peers vs the probe-timeout floor. Zero lost requests,
# byte-identical output, health convergence, goroutines back to baseline.
echo "==> cluster chaos suite (kill/restart, partition, slow peer under -race)"
go test -race -run 'TestClusterChaos' -count=1 ./internal/clustertest

# Node-kill failover drill through the real CLI: 3 nodes, kill 1 mid-run,
# restart it — the drill exits non-zero if any request failed, any
# response diverged, or the client spent no retries (outage not exercised).
echo "==> loadgen chaos drill (kill 1 of 3 under load)"
go run ./cmd/loadgen -chaos

# Warm-restart durability drill: crash a snapshot-enabled node mid-load
# (no drain, no parting snapshot), restart it, wait for its boot warm to
# replay the snapshot's plan tuples (/readyz leaves "restoring"), and
# require byte-identical first-window cache hits; then
# corrupt the snapshot and require a clean cold start instead of a crash.
echo "==> loadgen warm-restart drill (crash, snapshot restore, corruption)"
go run ./cmd/loadgen -warmrestart

# Hedged-request tail drill: one node gets 300ms injected client-path
# latency (slow but healthy — invisible to breakers); hedging must win
# races, beat the unhedged p99, and never exhaust the retry budget.
echo "==> loadgen hedge drill (300ms slow node, budget-gated hedging)"
go run ./cmd/loadgen -hedge

# Smoke the daemon benchmark end to end (batch + coalescing tables
# included) without the full measurement repetitions. This doubles as
# regression gates: benchtables exits non-zero if subsequent Generator
# construction costs >= 10% of the first (the shared type-check universe
# stopped being reused), or if node-kill recovery in the E13 chaos stage takes
# longer than 2x the peer probe interval (probe success stopped
# re-admitting restarted nodes), or if the warm-restart stage restores
# under a 0.5 first-window hit rate / costs more than 5x a plain restart
# (durability regressed or began dominating boot).
echo "==> benchtables service smoke (incl. cold-start + failover + durability gates)"
go run ./cmd/benchtables -table service -smoke

echo "==> verify OK"
