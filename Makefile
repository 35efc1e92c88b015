# FractOS-Go build targets (stdlib only; no external deps).

GO ?= go

.PHONY: all build vet lint test race chaos determinism fuzz bench bench-compare benchmark-smoke eval eval-check trace examples cover census loc clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed"; exit 1)

# lint runs cmd/fractos-vet, the repository's three analyzers —
# mustuse, panicfree and simdet, each reading //fractos: directives off
# the declarations it is about — and the check that reports any
# directive or waiver no analyzer reads, over the module and then over
# the benchmark module, which `go list` sees only from inside it; see
# docs/STATIC_ANALYSIS.md. cmd/fractos-vet's TestModuleLintsClean runs
# the same suite over the module under `make test`.
lint:
	$(GO) run ./cmd/fractos-vet
	cd benchmark && $(GO) run fractos/cmd/fractos-vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# chaos runs the fault-injection suites (docs/FAULTS.md) under the
# race detector: the soak matrix and crash/partition tests in core,
# every suite that builds a fabric with faults — the retransmission
# timer, the deadline and the at-most-once cache, link cuts and
# partitions, the aborted call and copy —, the heartbeat detector,
# the client retry policies, and the chaos testbed/experiment wiring.
# FRACTOS_SWEEP=full makes the single-fault sweep (TestFaultSweep*)
# lose and duplicate every cross-node frame of its scenarios, set-up's
# included, where `make test` sweeps a subset.
chaos:
	FRACTOS_SWEEP=full $(GO) test -race -run 'Chaos|Crash|Heartbeat|Retry|Breaker|Backoff|Fault|Watch|Lossy|RTO|RPCDeadline|Dedup|Forwarded|Partition|Link|Aborted|HandlerOwns' \
		./internal/core/ ./internal/fabric/ ./internal/proc/ \
		./internal/services/ ./internal/testbed/ ./internal/exp/

# determinism runs the determinism acceptance under the race detector
# at 1 and 4 CPUs: byte-identical traces, tables, pick sequences and
# event counts across runs and GOMAXPROCS, and the fabric traces held
# to their pinned SHA-256 digests (TestTraceDigestsPinned).
determinism:
	$(GO) test -race -cpu 1,4 -count=1 \
		-run 'Determinism|TraceDigests' \
		./internal/sim/ ./internal/exp/ ./internal/route/

# fuzz runs the module's two fuzz targets for 20 s each: the wire
# Decoder against the owning decode on back-to-back frames, and cid
# generation aliasing in the capability space. A failing input is
# written under the package's testdata/fuzz, to be committed with its
# fix.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecoderMatchesUnmarshal$$' -fuzztime 20s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzCidGenerationAliasing$$' -fuzztime 20s ./internal/cap/

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark-smoke exercises the repository's benchmark (BENCHMARK.json,
# benchmark/README.md): it is a module of its own, so `make test` never
# builds it. Vet and test the module, then run every workload end to end
# for one second: the shortest, its lossy twin (the one that arms
# retransmission and the at-most-once cache), copy-bulk, faceverify and
# route-open; each run checks its own outputs — the copied bytes, the
# verdicts, the at-most-once served log — and the exit status is the
# gate.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh --workload invoke-null --seed 1 --seconds 1 --trace 0
	bash benchmark/run.sh --workload invoke-lossy --seed 1 --seconds 1 --trace 0
	bash benchmark/run.sh --workload copy-bulk --seed 1 --seconds 1 --trace 0
	bash benchmark/run.sh --workload faceverify --seed 1 --seconds 1 --trace 0
	bash benchmark/run.sh --workload route-open --seed 1 --seconds 1 --trace 0

# bench-compare runs the benchmark's workload W at the commit BASE and
# in the working tree, and compares the two: BASE is exported with `git
# archive` under $$TMPDIR, each seed of SEEDS runs for 12 s of virtual
# time there and here, one run at a time, RUNS pairs per seed with the
# side that runs first alternating from pair to pair, so that a drift of
# the host favours neither; `bench -compare` prints the medians and
# verdicts (and fails on a worse one). Host rows such as
# host_allocs_per_req spread across runs of one commit, and only
# alternated pairs can judge them. The export is removed afterwards. It
# reads only benchmark/, e.g.
# `make bench-compare W=route-open SEEDS="1 2 3" RUNS=5 BASE=HEAD~1`.
W ?= invoke-null
SEEDS ?= 1 2 3
RUNS ?= 1
BASE ?= HEAD~1

bench-compare:
	@set -e; tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/bench-compare.XXXXXX"); \
	trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	old() { (cd "$$tmp/base" && bash benchmark/run.sh -workload $(W) -seed $$1 --seconds 12 -out "$$tmp/old.jsonl" > /dev/null); }; \
	new() { bash benchmark/run.sh -workload $(W) -seed $$1 --seconds 12 -out "$$tmp/new.jsonl" > /dev/null; }; \
	for s in $(SEEDS); do for r in $$(seq $(RUNS)); do \
		if [ $$((r % 2)) = 1 ]; then \
			echo "$(W) seed $$s pair $$r: $(BASE), then the working tree" >&2; old $$s; new $$s; \
		else \
			echo "$(W) seed $$s pair $$r: the working tree, then $(BASE)" >&2; new $$s; old $$s; \
		fi; \
	done; done; \
	bash benchmark/run.sh -compare "$$tmp/old.jsonl" "$$tmp/new.jsonl"

# Regenerate every table and figure of the paper's evaluation.
eval:
	$(GO) run ./cmd/fractos-bench

# eval-check runs fractos-bench and diffs what it prints, but for its
# "[… regenerated in … wall time]" lines, against
# cmd/fractos-bench/output.txt: every other figure is virtual time and
# exact, so any change to one fails, leaving output.got beside it. After
# an intended change, regenerate with `go run ./cmd/fractos-bench | grep
# -v ' regenerated in .* wall time]$$' > cmd/fractos-bench/output.txt`.
# It also diffs the two face-verification traces of fractos-trace, every
# message's instant, size and path, against cmd/fractos-trace/output.txt
# (FractOS) and output-baseline.txt (`-baseline`); regenerate them with
# `go run ./cmd/fractos-trace [-baseline] > cmd/fractos-trace/output[-baseline].txt`.
eval-check:
	$(GO) run ./cmd/fractos-bench > cmd/fractos-bench/output.got
	grep -v ' regenerated in .* wall time]$$' cmd/fractos-bench/output.got | \
		diff -u cmd/fractos-bench/output.txt -
	rm cmd/fractos-bench/output.got
	$(GO) run ./cmd/fractos-trace | diff -u cmd/fractos-trace/output.txt -
	$(GO) run ./cmd/fractos-trace -baseline | diff -u cmd/fractos-trace/output-baseline.txt -

trace:
	$(GO) run ./cmd/fractos-trace

# examples runs every example and diffs what it prints against the
# output.txt checked in beside it: the examples are deterministic, so
# any change to their output fails the build. After an intended change,
# regenerate with `go run ./examples/<name> > examples/<name>/output.txt`.
EXAMPLES = quickstart pipeline storage dataflow failover faceverify chaos

examples:
	@set -e; for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e > examples/$$e/output.got; \
		diff -u examples/$$e/output.txt examples/$$e/output.got; \
		rm examples/$$e/output.got; \
	done

# cover is the coverage census: which statements no consumer runs. It
# runs `go test ./...`, the examples, the three commands and the
# benchmark (benchmark/, a module of its own: one second of each
# workload with its per-layer metrics, a comparison, the metric list and
# the manifest), all built with coverage over every package of the
# module (a binary writes no coverage data unless its own main package
# is in -coverpkg), merges what they wrote with `go tool covdata`, and
# prints per package of the module its statements and how many of them
# never ran. It fails when the total of unexecuted statements exceeds
# COVER_MAX: code that nothing runs is deleted, or reached by a test or
# workload that names it.
COVER_MAX = 472
COVERPKG = ./internal/...,./cmd/...,./examples/...
BENCH_WORKLOADS = invoke-null invoke-lossy copy-bulk faceverify route-open
COVER_RUNS = $(EXAMPLES:%=examples/%) "fractos-bench -list" \
	"fractos-bench -run table3 -csv .cover/csv" fractos-bench fractos-trace fractos-vet \
	$(BENCH_WORKLOADS:%="bench -workload % -seconds 1 -trace 1 -out .cover/bench.jsonl") \
	"bench -compare .cover/bench.jsonl .cover/bench.jsonl" "bench -list" "bench -manifest"

cover:
	@set -e; rm -rf .cover; mkdir -p .cover/test .cover/run .cover/bin; \
	$(GO) test -cover -coverpkg=$(COVERPKG) ./... \
		-args -test.gocoverdir=$(CURDIR)/.cover/test > .cover/test.log \
		|| { cat .cover/test.log; exit 1; }; \
	$(GO) build -cover -coverpkg=$(COVERPKG) -o .cover/bin/ ./examples/... ./cmd/...; \
	(cd benchmark && $(GO) build -cover -coverpkg=fractos/internal/...,fractos/benchmark/cmd/bench \
		-o ../.cover/bin/ ./cmd/bench); \
	for r in $(COVER_RUNS); do \
		set -- $$r; bin=$$(basename $$1); shift; \
		GOCOVERDIR=.cover/run .cover/bin/$$bin "$$@" > /dev/null; \
	done; \
	$(GO) tool covdata textfmt -i=.cover/test,.cover/run -o .cover/profile.txt; \
	awk -v max=$(COVER_MAX) ' \
		NR > 1 && $$1 !~ /^fractos\/benchmark\// { n[$$1] = $$2; hit[$$1] += $$3 } \
		END { \
			for (b in n) { \
				p = b; sub(/\/[^\/]*:.*/, "", p); sub(/^fractos\//, "", p); \
				stmts[p] += n[b]; tot += n[b]; \
				if (!hit[b]) { dead[p] += n[b]; un += n[b] } \
			} \
			for (p in stmts) printf "%-32s %6d stmts %5d unexecuted\n", p, stmts[p], dead[p] | "sort"; \
			close("sort"); \
			printf "%-32s %6d stmts %5d unexecuted (bound %d)\n", "total", tot, un, max; \
			exit (un > max) \
		}' .cover/profile.txt

# census labels every function of the module by what runs it, from the
# coverage data `make cover` leaves in .cover/run and .cover/test:
# "workload" when an example or a command runs it, "tests-only" when
# only `go test` does, "nothing" when neither does. It prints one line
# per function and the three totals, and fails when more than
# CENSUS_MAX functions are run by tests only: such a function gets a
# caller a workload needs, moves into a test file, or is deleted.
CENSUS_MAX = 50

census: cover
	@{ $(GO) tool covdata func -i=.cover/run | sed 's/^/run /'; \
	   $(GO) tool covdata func -i=.cover/test | sed 's/^/test /'; } | \
	awk -v max=$(CENSUS_MAX) ' \
		$$2 == "total" || $$2 ~ /^fractos\/benchmark\// { next } \
		{ f = $$2 " " $$3; seen[f] = 1; if ($$4 + 0 > 0) ran[f, $$1] = 1 } \
		END { \
			for (f in seen) { \
				l = (f, "run") in ran ? "workload" : (f, "test") in ran ? "tests-only" : "nothing"; \
				n[l]++; printf "%-10s %s\n", l, f | "sort"; \
			} \
			close("sort"); \
			printf "functions: %d run by a workload, %d by tests only (bound %d), %d by nothing\n", \
				n["workload"], n["tests-only"], max, n["nothing"]; \
			exit (n["tests-only"] > max) \
		}'

# loc prints the root module's non-test Go lines per package and in
# total, the count the simplicity work is measured by: every .go file
# but tests, analyzer testdata and the benchmark module (a module of
# its own); examples are included.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' \
		-not -path '*/testdata/*' -not -path './.*' | xargs wc -l | \
	awk '$$2 != "total" { p = $$2; sub(/\/[^\/]*$$/, "", p); sub(/^\.\/?/, "", p); \
			n[p == "" ? "." : p] += $$1; tot += $$1 } \
		END { for (p in n) printf "%-32s %6d\n", p, n[p] | "sort"; \
			close("sort"); printf "%-32s %6d\n", "total", tot }'

clean:
	$(GO) clean ./...
