# Repro of "Hadar: Heterogeneity-Aware Optimization-Based Online
# Scheduling for Deep Learning Cluster".
#
# `make check` is the single local entry point and the gate CI runs:
# build, vet, gofmt and repolint (the repository's domain-aware
# static-analysis suite, see internal/lint), the test suite, per-package
# coverage floors, and the benchmark harness's own vet and tests (a
# nested module `go test ./...` does not reach). CI additionally runs
# the suite under the race detector (the `race` target) as its own job;
# run it locally before touching the service, federation or web
# packages.

GO ?= go

.PHONY: check build vet lint test test-386 portable race race-short bench-smoke bench-harness bench profile experiments crash-smoke fuzz-smoke fuzz-sync cover

check: build vet lint test cover bench-harness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is go vet (its copylocks check is the repository's guard against
# copied locks), then gofmt (the analyzer corpora under
# internal/lint/testdata are exempt: fixtures keep whatever shape their
# `// want` lines need), then three greps — the policy packages must not
# build a cluster.State of their own (they search the one the caller
# lends in sched.Context.Free), experiments.Policies must stay the only
# name-to-policy map (no `case "hadar..."` switch in non-test code), and
# crash failpoints stay out of the program (TestCrashEnumeration drives
# every crash through wal.FS instead) — and last repolint, the in-tree
# static-analysis suite: determinism (no wall clock, no global rand, no
# map-order dependence in scheduler-path packages, and none anywhere on
# a dataflow path into a schedule digest), numeric safety, lock hygiene
# and API discipline, in one pass. `go run ./cmd/repolint -rules` lists
# the rule catalogue; suppress site-by-site with `//lint:ignore <rule>
# <reason>`.
POLICY_PKGS := internal/core internal/gavel internal/tiresias internal/yarncs internal/policy
lint: vet
	@for d in $(POLICY_PKGS); do \
		if [ ! -d "$$d" ]; then echo "POLICY_PKGS names $$d, which is not a directory"; exit 1; fi; \
	done
	@out="$$(gofmt -l . | grep -v '^internal/lint/testdata/')"; \
	if [ -n "$$out" ]; then echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn 'cluster\.NewState(' --include='*.go' $(POLICY_PKGS) | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "policies search ctx.Free, they do not build a state:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rn 'case "hadar' --include='*.go' . | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "look policy names up in experiments.Policies, do not switch on them:"; echo "$$out"; exit 1; fi
	@out="$$(grep -rnE 'CRASH_AFTER_BYTES|FailPoint' --include='*.go' . | grep -v '_test\.go:')"; \
	if [ -n "$$out" ]; then echo "crashes are enumerated through wal.FS in tests, not armed in the program:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/repolint .

test:
	$(GO) test ./...

# test-386 runs the byte-exact fixtures on a 32-bit port (32-bit int,
# pure-Go math): the golden schedule digests, the journals and the
# checkpoints a parent commit wrote, the checkpoint writer against its
# reference encoder, and the seeds of the hand-written throughput codec.
# Cross-compiled, so it runs on any amd64 host.
test-386:
	GOARCH=386 $(GO) test -run '^TestGoldenScheduleDigests$$' .
	GOARCH=386 $(GO) test -run '^(TestParentJournalRecovers|TestOneMemberJournalMatchesParentBytes|TestCheckpointRoundTripsParentBytes)$$' ./internal/service
	GOARCH=386 $(GO) test -run '^(TestAppendStateMatchesReference|FuzzRestoreEngine)$$' ./internal/sim
	GOARCH=386 $(GO) test -run '^TestAppendStateIsStateJSON$$' ./internal/federation
	GOARCH=386 $(GO) test -run '^(FuzzRatesJSON|TestRates.*|TestValidateRejectsUndefinedType)$$' ./internal/job

# portable proves the scheduling path free of fused multiply-adds on the
# ports whose compilers fuse x*y+z (amd64 never does): it compiles core,
# sim, cluster and sched for each with -gcflags=-S and fails on any
# FMA mnemonic in the assembly listing. An explicit float64(…) around a
# product rounds it and keeps the sum unfused (DESIGN §9). Cross-compiled
# from the local toolchain, so it needs no network.
PORTABLE_ARCHES := arm64 riscv64 ppc64le s390x
PORTABLE_PKGS := ./internal/core ./internal/sim ./internal/cluster ./internal/sched
portable:
	@fail=0; \
	for arch in $(PORTABLE_ARCHES); do \
		asm="$$(GOARCH=$$arch $(GO) build -gcflags=-S $(PORTABLE_PKGS) 2>&1)" || { printf '%s\n' "$$asm"; exit 1; }; \
		fused="$$(printf '%s\n' "$$asm" | grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]')"; \
		n=0; [ -n "$$fused" ] && n="$$(printf '%s\n' "$$fused" | wc -l)"; \
		echo "portable: $$arch: $$n fused multiply-adds"; \
		[ "$$n" -eq 0 ] || { printf '%s\n' "$$fused"; fail=1; }; \
	done; \
	exit $$fail

race:
	$(GO) test -race ./...

# race-short runs the concurrent packages — scheduler service,
# federation (shared clock + share-on-publish snapshots), web API —
# under the race detector in short mode, plus the engine's
# own snapshot tests: a reader goroutine encodes held snapshots while
# the engine keeps appending to what they share. The quick local gate
# before touching any of those packages; `race` is the full-suite
# version CI runs.
race-short:
	$(GO) test -race -short ./internal/federation ./internal/service ./internal/web
	$(GO) test -race -short -run 'Snapshot|Finish' ./internal/sim

# BENCH_BENCHES selects the round benchmarks BENCH_sim.json records —
# the DP and greedy rounds on the paper's cluster, the engine's whole
# round on the paper's trace, Fig. 7's node-count sweep, and the
# straggler (priced-scan) rounds — and BENCH_OPS lists every op they
# must produce.
BENCH_BENCHES = BenchmarkDPAllocate$$|BenchmarkGreedyAllocate$$|BenchmarkEngineRound$$|BenchmarkScaleRound|BenchmarkStragglerRound
BENCH_OPS = DPAllocate,GreedyAllocate,EngineRound,$\
	ScaleRound/prop/nodes=60,ScaleRound/prop/nodes=250,ScaleRound/prop/nodes=1000,ScaleRound/prop/nodes=5000,$\
	ScaleRound/fixed/nodes=60,ScaleRound/fixed/nodes=250,ScaleRound/fixed/nodes=1000,ScaleRound/fixed/nodes=5000,$\
	StragglerRound/nodes=250/jobs=8,StragglerRound/nodes=250/jobs=64,StragglerRound/nodes=250/jobs=480,$\
	StragglerRound/nodes=1000/jobs=8,StragglerRound/nodes=1000/jobs=64,StragglerRound/nodes=1000/jobs=480

# bench-smoke runs every round benchmark once and fails if any op of
# BENCH_OPS is missing from the output, so a renamed or deleted
# benchmark cannot drop out of the ledger. It reads no ns/op: timings
# move with the machine. The rounds' allocation gates are tier-1 tests
# (TestWarmScheduleAllocatesNothing).
bench-smoke:
	$(GO) test -run='^$$' -bench='$(BENCH_BENCHES)' -benchtime=1x -benchmem . \
		| $(GO) run ./cmd/benchjson -o /tmp/bench-smoke.json -require '$(BENCH_OPS)'

# bench-harness vets and tests benchmark/, the nested module holding
# hadarbench (BENCHMARK.json's command). It compiles against core, sim,
# cluster and sched through a replace directive, so a signature change
# there breaks it without failing anything in this module; this target
# is what notices.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench takes real measurements of the same rounds and records them as
# BENCH_sim.json (op, ns/op, B/op, allocs/op) via cmd/benchjson, for
# comparison across commits on one machine. It writes nothing under
# results/: the scalability CSV is `go run ./cmd/experiments -fig 7
# -csv results`.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json -require '$(BENCH_OPS)'

# profile captures CPU, heap, and execution-trace profiles of a
# paper-scale hadarsim run into profiles/ for go tool pprof / trace.
profile:
	mkdir -p profiles
	$(GO) run ./cmd/hadarsim -jobs 480 \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out -exectrace profiles/trace.out
	@echo "profiles written: go tool pprof profiles/cpu.out | go tool trace profiles/trace.out"

# fuzz-smoke gives every fuzz target a short budget. Go fuzzes one
# target per invocation, so each gets its own run; FUZZTIME=2m for a
# deeper local session. fuzz-sync guards the list: every Fuzz function
# in the tree must either be wired in below or live under an excluded
# path. The analyzer corpora (internal/lint/testdata) are excluded —
# they are compile-only lint fixtures, and a corpus file is free to
# define FuzzXxx shapes for the analyzers to chew on without becoming
# a real fuzz target.
FUZZ_EXCLUDES := internal/lint/testdata
fuzz-sync:
	@fail=0; \
	for src in $$(grep -rl '^func Fuzz' --include='*.go' internal cmd 2>/dev/null); do \
		skip=0; \
		for ex in $(FUZZ_EXCLUDES); do case $$src in $$ex*) skip=1;; esac; done; \
		[ $$skip -eq 1 ] && continue; \
		for fn in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$src | sed 's/^func //'); do \
			grep -q "$$fn" Makefile || { echo "fuzz-sync: $$fn ($$src) is not wired into fuzz-smoke; add it or extend FUZZ_EXCLUDES"; fail=1; }; \
		done; \
	done; \
	exit $$fail

FUZZTIME ?= 10s
fuzz-smoke: fuzz-sync
	$(GO) test -run='^$$' -fuzz='^FuzzSolve$$' -fuzztime=$(FUZZTIME) ./internal/lp
	$(GO) test -run='^$$' -fuzz='^FuzzReadTraceJSON$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzStateTransactions$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzAppendCanonical$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzCanAllocate$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzTallyMatchesAllocate$$' -fuzztime=$(FUZZTIME) ./internal/cluster
	$(GO) test -run='^$$' -fuzz='^FuzzSimRun$$' -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzRestoreEngine$$' -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzFNVWrite$$' -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run='^$$' -fuzz='^FuzzScan$$' -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run='^$$' -fuzz='^FuzzReplayRecords$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzCheckpointHeadMatchesMarshal$$' -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run='^$$' -fuzz='^FuzzRatesJSON$$' -fuzztime=$(FUZZTIME) ./internal/job
	$(GO) test -run='^$$' -fuzz='^FuzzFindAllocMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzPriceBounds$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitBody$$' -fuzztime=$(FUZZTIME) ./internal/web

# cover prints per-package statement coverage and enforces floors on
# the packages the correctness story leans on: the Hadar core, the
# simulator, and the invariant oracle itself. Floors sit a few points
# under current coverage so they flag erosion, not noise.
cover:
	@out="$$($(GO) test -cover ./...)" || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | awk ' \
		{ floor = 0 } \
		$$2 == "repro/internal/core"      { floor = 85 } \
		$$2 == "repro/internal/sim"       { floor = 88 } \
		$$2 == "repro/internal/invariant" { floor = 90 } \
		floor > 0 { \
			pct = 0; \
			for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) + 0; \
			if (pct < floor) { printf "FAIL coverage floor: %s at %s%% (floor %s%%)\n", $$2, pct, floor; bad = 1 } \
			else { printf "coverage floor ok: %s at %s%% (floor %s%%)\n", $$2, pct, floor } \
		} \
		END { exit bad }'

# experiments regenerates every table, figure and the scorecard at the
# paper's scale into results/ (about 5 s on 2 vCPU). It fails if a
# scorecard rule fails (the command exits 1), or if results/ then
# differs from the committed files in any way but the timing-dependent
# fig7_scalability.csv: a drifted CSV or an uncommitted new output.
experiments:
	$(GO) run ./cmd/experiments -all -csv results
	@out="$$(git status --porcelain -- results | grep -v ' results/fig7_scalability.csv$$')"; \
	if [ -n "$$out" ]; then echo "results/ differs from the committed files:"; echo "$$out"; exit 1; fi

# crash-smoke SIGKILLs a race-instrumented hadard with a journal once,
# restarts it with -recover, and requires every acknowledged job back,
# every key to dedup and a clean SIGTERM exit — once as a single
# cluster, once as three members behind one front door. The crash space
# itself is enumerated in process by TestCrashEnumeration
# (internal/service), which `test` and both race targets run.
crash-smoke:
	$(GO) build -race -o bin/hadard-race ./cmd/hadard
	$(GO) run ./cmd/crashchaos -hadard bin/hadard-race -clusters 1
	$(GO) run ./cmd/crashchaos -hadard bin/hadard-race -clusters 3
