GO ?= go

.PHONY: check vet lint docs-check build test race chaos fuzz bench bench-compare bench-all bench-e2e-check bench-e2e-full golden fmt loc

# The full pre-merge gate: static analysis (go vet plus the project's
# own prvm-lint analyzers), godoc coverage, a clean build, and the test
# suite under the race detector (the obs concurrency tests are written
# for it).
check: vet lint docs-check build race

vet:
	$(GO) vet ./...

# The project's twelve analyzers — five domain-invariant (detrand,
# floateq, obsnilguard, veclen, lockscope), six concurrency/
# determinism (maporder, goroleak, deadlinecall, errswallow, atomicmix,
# hotalloc), and one documentation gate (doccomment) — see DESIGN.md §8
# and §12. Any finding exits non-zero; the only way past one is a
# //prvmlint:allow directive with a reason on the flagged line.
lint:
	$(GO) run ./cmd/prvm-lint ./...

# Documentation gate: every exported symbol of the core library
# packages carries a godoc comment leading with its name, and the
# Example functions compile and their output matches. API.md and
# README.md stay honest because godoc does.
docs-check:
	$(GO) run ./cmd/prvm-lint -run doccomment ./...
	$(GO) test -run Example ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos suite (DESIGN.md §10): full testbed experiments under seeded
# fault injection — drops, transport errors, agent crashes — with the
# race detector on, asserting the controller degrades gracefully and
# surviving agents stay consistent with its mirror. The serve-side
# kill/recover tests ride along: concurrent traffic, descheduler
# rounds and maintenance drains against an abrupt kill, verified by an
# independent WAL fold. So do the WAL replay and recovery tests, five
# times over: replay hands recycled op batches between its decoding
# and applying goroutines, and one pass may miss a batch reused early.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' ./internal/testbed/
	$(GO) test -race -count=1 -run 'KillRecover' ./internal/serve/
	$(GO) test -race -count=5 -run 'Replay|Recovery|TornTail|DecodeAhead|WAL' ./internal/serve/

# Native fuzzing of the decoders — the rank-table file
# (ranktable.LoadTable), the WAL op line against encoding/json
# (record.Reader.Next, appendOpLine), WAL-tail recovery
# (serve.readSegmentOps), recovery from an arbitrary snapshot
# (serve.New) and the place and release request bodies against
# encoding/json (serve.readVMBody) — ten seconds each on top of the
# checked-in corpora, which `go test` always runs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLoadTable$$' -fuzztime 10s ./internal/ranktable
	$(GO) test -run '^$$' -fuzz '^FuzzOpLine$$' -fuzztime 10s ./internal/obs/record
	$(GO) test -run '^$$' -fuzz '^FuzzWALTail$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotRecover$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzPlaceBody$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReleaseBody$$' -fuzztime 10s ./internal/serve

# Hot-path micro-benchmark gate: runs the PlaceLookup / PlaceScan /
# SpaceWire / FactoredRegistryBuildM3C3 / RanksCSR / RecordOverhead /
# TableCache / RebalanceStep / OpLine / WALReplay / ReplayApply /
# ServePlaceSequential / SimDay / GenWorkloads micro-benchmarks and
# re-records the allocs/ns baseline BENCH.json
# (see README "Benchmarks"; end-to-end numbers come from benchmarks/).
bench:
	$(GO) run ./cmd/prvm-bench -out BENCH.json

# Bench-regression gate: re-run the micro-benchmarks briefly and diff
# against the recorded baseline. Allocs/op must not regress (many-alloc
# paths get a one-alloc scheduler-jitter slack, whole lattice builds
# half their baseline for pool refills after a GC, and their B/op may
# grow 10 %); ns/op gets a loose tolerance because the baseline was
# recorded on different hardware than CI runners (see cmd/prvm-bench
# doc comment).
bench-compare:
	$(GO) run ./cmd/prvm-bench -out /tmp/bench_compare.json -benchtime 0.2s \
		-compare BENCH.json -tolerance 1.0

# The repository's end-to-end benchmark (BENCHMARK.json, benchmarks/)
# is its own Go module, so the root vet/test/lint targets do not reach
# it: vet it and run its unit + smoke tests here.
bench-e2e-check:
	$(GO) -C benchmarks vet ./...
	$(GO) -C benchmarks test ./...

# Every end-to-end workload at full size for one second, untraced and
# traced, with every in-run output check: smoke sizes cannot catch a
# check that fails, or a run that exits, only at full size. Any non-zero
# exit fails the target.
bench-e2e-full:
	bash benchmarks/run.sh --seconds 1 --trace 0
	bash benchmarks/run.sh --seconds 1 --trace 1

# Golden replay regression (DESIGN.md §11): the checked-in recordings
# under examples/ must replay bit-identically through the current code
# — the admission-only run and the churn+rebalance run (whose decision
# stream includes descheduler moves as release+place op pairs).
golden:
	$(GO) run ./cmd/prvm-replay -verify examples/golden/planetlab-60vm-48step.jsonl.gz
	$(GO) run ./cmd/prvm-replay -verify examples/golden/churn-rebalance-60vm-48step.jsonl.gz

bench-all:
	$(GO) test -bench . -benchmem ./...

fmt:
	gofmt -l -w .

# The number ROADMAP tracks: lines of non-test Go outside the benchmark
# module (and its build directory) and outside testdata/ directories.
# The second line counts the testdata/ Go (the analyzers' fixtures)
# that the first leaves out. A markdown table of the first count per
# package (directory) follows, for ROADMAP's per-package gates.
LOC_FIND = find . -name '*.go' -not -name '*_test.go' -not -path './benchmarks/*' -not -path './.bench_build/*'
loc:
	@printf 'non-test Go: '; $(LOC_FIND) -not -path '*/testdata/*' | xargs cat | wc -l
	@printf 'testdata Go: '; $(LOC_FIND) -path '*/testdata/*' | xargs cat | wc -l
	@printf '\n| package | non-test lines |\n|---|---:|\n'
	@$(LOC_FIND) -not -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); sub("^\\./?", "", d); n[d == "" ? "." : d] += $$1 } \
			END { for (d in n) print "| " d " | " n[d] " |" }' | sort
