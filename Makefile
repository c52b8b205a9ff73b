# Build/verify entry points. `make verify` is the gate every PR must pass.

GO ?= go

.PHONY: build test verify bench bench-service serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: build + vet + race-enabled tests (includes the 16-goroutine
# concurrent-generation contracts in gen and service), the Submit/Close
# shutdown stress test, the cluster drill table (TestDrills in
# internal/clustertest) on 1 and 2 CPUs, and a benchtables service smoke run.
verify:
	./scripts/verify.sh

bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

# Measure the cryptgend daemon (cold vs warm, throughput, cache hit rate,
# and the E13/E14 rows of the cluster drill table) and record the numbers
# in BENCH_service.json.
bench-service:
	$(GO) run ./cmd/benchtables -table service -json BENCH_service.json

serve:
	$(GO) run ./cmd/cryptgend
