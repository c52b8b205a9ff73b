# Build/verify entry points. `make verify` is the gate every PR must pass.

GO ?= go

.PHONY: build test verify bench serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full gate: build + vet + race-enabled tests (includes the 16-goroutine
# concurrent-generation contracts in gen and service), the Submit/Close
# shutdown stress test, the multi-node tests (TestClusterNodeKill and
# the shared-cache tests in service) on 1 and 2 CPUs, and the cold-start
# gate (TestSecondGeneratorReusesUniverse in gen).
verify:
	./scripts/verify.sh

bench:
	$(GO) test -run NONE -bench . -benchtime 1x .

serve:
	$(GO) run ./cmd/cryptgend
