GO ?= go

.PHONY: all build test race lint fmtcheck ltlint vet bench bench-e2e leakcheck loc counterlag crash tabletset chaos cluster-chaos ci clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint mirrors the CI gates: gofmt, go vet, the project analyzers, and
# (when installed) golangci-lint with the committed .golangci.yml.
lint: fmtcheck vet ltlint
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping (CI runs it)"; \
	fi

# fmtcheck fails if gofmt would change any Go file, and lists them.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "$$out"; echo "fmtcheck: the files above are not gofmt-clean" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

ltlint:
	$(GO) run ./cmd/ltlint ./...

# bench runs the root package's benchmarks, then the read path's two inner
# loops (block decode, tablet range scan), the XOR float encoder and the
# tablet writer: their B/op is bytes per block, per 100-row range, per
# 1,000-value series and per row written. Last come the k-way merger
# every query and merge runs through, in ns/row by source count and run
# length, and a query over a 20,000-row memtable in dash_mixed's
# aggregate and dashboard shapes. Last, the one aggregation fold: an
# accumulator's constructor plus 4,096 Adds (ns/row), and eight per-table
# partials merged pairwise (MergeGroups) and in one k-way fold
# (MergeLists).
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
	$(GO) test -run '^$$' -bench 'BlockDecode|CursorRangeScan|EncodeXOR|TabletWrite' -benchmem ./internal/block ./internal/tablet
	$(GO) test -run '^$$' -bench 'Merger|QueryMemtable' -benchmem ./internal/core
	$(GO) test -run '^$$' -bench 'AccumulatorAdd|MergeGroups|MergeLists' -benchmem ./internal/agg

# bench-e2e runs the fixed end-to-end benchmark exactly as the PR driver
# does (BENCHMARK.json); benchmark/README.md explains what it prints.
bench-e2e:
	bash benchmark/run.sh

# leakcheck fails if a benchmark, daemon, router or test process is still
# running: nothing a command starts may outlive it. Run it on its own after
# the last benchmark and test. Its own ancestors are skipped (found by
# walking parent PIDs up from the recipe's shell), so a calling shell whose
# command line also names those programs, such as
# bash -c 'go test ./... && make leakcheck', does not match itself.
# Bracketing one character of each pattern keeps pgrep from matching the
# shell make starts for it. go test runs each test binary with flags
# (pkg.test -test.paniconexit0 ...), so a .test name may be followed by a
# space, not only end the command line; -a prints the whole command line
# of each match.
leakcheck:
	@anc=' '; p=$$$$; \
	while [ -n "$$p" ] && [ "$$p" -gt 1 ]; do anc="$$anc$$p "; p=$$(ps -o ppid= -p "$$p" | tr -d ' '); done; \
	left=$$(pgrep -fa '[l]tbenchmark|[l]ittletabled|[l]ittletable-router|[l]tbench|[g]o test|\.tes[t]( |$$)' | \
		while read -r pid cmd; do case "$$anc" in *" $$pid "*) ;; *) echo "$$pid $$cmd" ;; esac; done); \
	if [ -n "$$left" ]; then \
		echo "$$left"; echo "leakcheck: the processes above outlived their command" >&2; exit 1; \
	fi

# loc prints the number CHANGES.md tracks per ROADMAP item 6: lines of
# non-test, non-testdata Go outside benchmark/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' ! -path './.*' -print0 | xargs -0 cat | wc -l

# counterlag repeats, under -race, the tests that read a counter the moment
# a background flush empties its queue: a counter bumped after the commit
# that dequeues its group, not before, fails one of these runs.
counterlag:
	$(GO) test -race -count=50 -run 'TestAsyncFlushDrainsInBackground$$|TestFlushRetryScheduleBothModes$$' ./internal/core

# crash runs the crash-at-every-barrier harness once with the default seed;
# CI's crash-harness job runs it -count=5 across seeds 1..3.
crash:
	$(GO) test ./internal/core -run 'CrashAtEveryBarrier'

# tabletset runs the tablet-set enumeration, every interleaving of its
# actors, at depth 8 (LTSET_DEPTH); tier-1 runs it at depth 6. CI's
# crash-harness job runs this target too.
tabletset:
	LTSET_DEPTH=8 $(GO) test ./internal/core -run '^TestTabletSetInterleavings$$' -count=1

# chaos runs the network-fault chaos suite once with the default seed;
# CI's chaos-harness job runs it -race -count=5 across seeds 1..3.
chaos:
	$(GO) test ./internal/client -race -run 'TestChaos'

# cluster-chaos runs the 3-shard router topology under netfault fire
# (shard restart + live migration mid-load) once with the default seed;
# CI's cluster-chaos job runs it -race -count=3 across seeds 1..3.
cluster-chaos:
	$(GO) test ./internal/router -race -run 'TestClusterChaos'

# ci mirrors the workflow's harness jobs locally: build, gofmt, vet, the project
# analyzers, the race-enabled test suite, the counter-lag repeats, the
# depth-8 tablet-set enumeration, and single-seed crash-, chaos-, and
# cluster-chaos-harness passes. The ruler
# smoke job (bench-e2e at one second per workload, then leakcheck) and the
# fuzz smoke jobs are left out for time; run them separately.
ci: build fmtcheck vet ltlint race counterlag crash tabletset chaos cluster-chaos

clean:
	rm -rf bin
