GO ?= go

.PHONY: all build vet test test-short cover bench bench-json bench-diff serve-smoke cluster-smoke fuzz verifyfuzz fuzz-corpus experiments examples clean

all: build vet test

build:
	$(GO) build ./...

# perfbench/ is its own module (replace dvsreject => ../), so the root
# ./... patterns never compile it; vet it and run its short self-tests.
vet:
	$(GO) vet ./...
	gofmt -l .
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# BENCH_serve.json is the -suite comparison matrix: single-node HTTP
# baseline, 3-node cluster over HTTP and the binary wire protocol, and a
# coalescing burst run — one {"runs": [...]} report with per-shard rows.
bench-json:
	$(GO) run ./cmd/bench -o BENCH_core.json
	$(GO) run ./cmd/loadgen -suite -duration 5s -conns 4 -o BENCH_serve.json

# Re-measure and diff against the committed baselines; fails on any core
# case more than 15% slower (tune with e.g. BENCH_DIFF_FLAGS="-max-regress 25")
# or doubling its allocs/op, or any serve suite run whose throughput
# dropped more than 30% (SERVE_DIFF_FLAGS="-max-regress 50").
bench-diff:
	$(GO) run ./cmd/bench -compare BENCH_core.json -max-allocs-regress 100 -o /tmp/bench-new.json $(BENCH_DIFF_FLAGS)
	$(GO) run ./cmd/loadgen -suite -duration 2s -conns 4 -compare BENCH_serve.json -o /tmp/loadgen-new.json $(SERVE_DIFF_FLAGS)

serve-smoke:
	$(GO) run ./cmd/loadgen -duration 2s -conns 4 -check

# 3-shard cluster under -race over both protocols, every response checked
# bit-identically against a direct solve.
cluster-smoke:
	$(GO) run -race ./cmd/loadgen -nodes 3 -proto http -duration 2s -conns 4 -instances 16 -n 30 -rotate 500ms -check
	$(GO) run -race ./cmd/loadgen -nodes 3 -proto wire -duration 2s -conns 4 -instances 16 -n 30 -rotate 500ms -check

fuzz:
	$(GO) test ./internal/task/ -fuzz FuzzReadJSON -fuzztime 30s
	$(GO) test ./internal/task/ -fuzz FuzzReadPeriodicJSON -fuzztime 30s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzSolverInvariants$$' -fuzztime 60s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzMetamorphic$$' -fuzztime 60s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzDeltaSolve$$' -fuzztime 60s
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzSparseDense$$' -fuzztime 60s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzServeFingerprint$$' -fuzztime 60s
	$(GO) test ./internal/wire/ -run '^$$' -fuzz '^FuzzWireFrame$$' -fuzztime 60s
	$(GO) test ./internal/anytime/ -run '^$$' -fuzz '^FuzzAnytimeFront$$' -fuzztime 60s
	$(GO) test ./internal/multiproc/ -run '^$$' -fuzz '^FuzzHeteroPartition$$' -fuzztime 60s

# Randomized oracle/metamorphic soak through the solver registry; on
# failure it shrinks the instance and writes a repro (see TESTING.md).
verifyfuzz:
	$(GO) run ./cmd/verifyfuzz -duration 60s

# Regenerate the committed seed corpora from verify.SeedInstances().
fuzz-corpus:
	$(GO) run ./cmd/verifyfuzz -emit-corpus .

experiments:
	$(GO) run ./cmd/experiments

examples:
	@for e in quickstart admission xscale leakage periodic online reclaim multiproc; do \
		echo "=== examples/$$e ==="; \
		$(GO) run ./examples/$$e; \
		echo; \
	done

clean:
	$(GO) clean ./...
