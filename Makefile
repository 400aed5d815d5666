# Every target here is what CI runs — keep them in sync so "it passed
# locally" and "it passed CI" mean the same thing.

GO  ?= go
BIN := bin

.PHONY: all build fmt-check lint vet test short race mutation fuzz-smoke \
        bench-smoke golden bench bench-gate bench-scale bench-scale-gate clean

all: build lint test

build:
	$(GO) build ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# lint builds the first-party vettool and runs its six analyzers
# (simdeterminism, maporder, unitsafety, digestfield, eventcapture,
# slabescape) over the tree — including cmd/buflint and internal/lint
# themselves — through
# go vet's unitchecker protocol. Blocking: any finding fails the build,
# and so does a stale //lint:ignore. See DESIGN.md "Static analysis".
lint: $(BIN)/buflint
	$(GO) vet -vettool=$(abspath $(BIN)/buflint) ./...

$(BIN)/buflint: FORCE
	$(GO) build -o $(BIN)/buflint ./cmd/buflint

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# mutation proves the conservation auditor detects a seeded accounting
# bug (build tag auditmutation plants it in DropTail).
mutation:
	$(GO) test -tags auditmutation -run TestAuditMutation ./internal/queue/

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQueueConservation -fuzztime 30s ./internal/queue/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerInvariants -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzClassifier -fuzztime 30s ./internal/probe/

# bench-smoke only checks the benchmarks still compile and run one
# iteration; -short keeps the expensive paper reproductions out.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

golden:
	$(GO) test -run TestGolden -v ./internal/experiment/

# bench regenerates the kernel benchmark report against the checked-in
# baseline (reference numbers come from a quiet machine at GOMAXPROCS=1).
bench:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -baseline BENCH_kernel.json

# bench-gate re-measures and fails if events/sec fell more than 5%
# below the checked-in BENCH_kernel.json — the budget the pluggable
# congestion-control indirection (and any future abstraction on the
# per-event path) must fit within.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -gate BENCH_kernel.json

# bench-scale regenerates the flow-count scaling curve (plus the fabric
# shape and the million-sender slab footprint) against the checked-in
# BENCH_scale.json; bench-scale-gate fails if any cell's events/sec fell
# more than 5% below it.
bench-scale:
	GOMAXPROCS=1 $(GO) run ./bench -scale -out BENCH_scale_ci.json -baseline BENCH_scale.json

bench-scale-gate:
	GOMAXPROCS=1 $(GO) run ./bench -scale -out BENCH_scale_ci.json -gate BENCH_scale.json

clean:
	rm -rf $(BIN) BENCH_kernel_ci.json BENCH_scale_ci.json

FORCE:
