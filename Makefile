GO ?= go

.PHONY: all build test race lint ltlint lint-fix-baseline vet bench bench-e2e loc crash chaos cluster-chaos ci clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint mirrors the CI gates: go vet, the project analyzers, and (when
# installed) golangci-lint with the committed .golangci.yml.
lint: vet ltlint
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping (CI runs it)"; \
	fi

vet:
	$(GO) vet ./...

ltlint:
	$(GO) run ./cmd/ltlint -check-stale-ignores ./...

# lint-fix-baseline records every current finding into .ltlint-baseline.json
# so a new analyzer can land blocking-on-new-findings while legacy debt is
# paid down. The repo's steady state is NO baseline file (the tree is
# clean); this target exists for rollout windows only — delete the file
# once its entries are fixed.
lint-fix-baseline:
	$(GO) run ./cmd/ltlint -write-baseline .ltlint-baseline.json ./...

# bench runs the root package's benchmarks, then the read path's two inner
# loops (block decode, tablet range scan) and the tablet writer: their B/op
# is bytes per block, per 100-row range and per row written.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench 'BlockDecode|CursorRangeScan|TabletWrite' -benchmem ./internal/block ./internal/tablet

# bench-e2e runs the fixed end-to-end benchmark exactly as the PR driver
# does (BENCHMARK.json); benchmark/README.md explains what it prints.
bench-e2e:
	bash benchmark/run.sh

# loc prints the number CHANGES.md tracks per ROADMAP item 3: lines of
# non-test, non-testdata Go outside benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.*' -print0 | xargs -0 cat | wc -l

# crash runs the crash-at-every-barrier harness once with the default seed;
# CI's crash-harness job runs it -count=5 across seeds 1..3.
crash:
	$(GO) test ./internal/core -run 'CrashAtEveryBarrier'

# chaos runs the network-fault chaos suite once with the default seed;
# CI's chaos-harness job runs it -race -count=5 across seeds 1..3.
chaos:
	$(GO) test ./internal/client -race -run 'TestChaos'

# cluster-chaos runs the 3-shard router topology under netfault fire
# (shard restart + live migration mid-load) once with the default seed;
# CI's cluster-chaos job runs it -race -count=3 across seeds 1..3.
cluster-chaos:
	$(GO) test ./internal/router -race -run 'TestClusterChaos'

# ci mirrors the workflow's blocking jobs locally: build, vet, the project
# analyzers, the race-enabled test suite, and single-seed crash-, chaos-,
# and cluster-chaos-harness passes. The bench/fuzz smoke jobs are
# advisory and excluded here.
ci: build vet ltlint race crash chaos cluster-chaos

clean:
	rm -rf bin
