#!/bin/sh
# Tier-1 verification gates. Run from the repo root:
#
#   sh scripts/verify.sh
#
# Gates, in order of increasing cost:
#   1. go build ./...        — everything compiles
#   2. go vet ./...          — static analysis clean
#   3. fallvet ./...         — the repo's own invariant linter
#      (DESIGN.md §9 + §13): determinism, hotpath, hottrans,
#      checkedio, redorder, snapshot, exhaustive, floatdet. Built
#      once into bin/fallvet (cheaper than go run resolving the
#      source importer twice) and run in -diff mode against the
#      committed fallvet_baseline.json, so the gate is "no NEW
#      findings and the ledger is honest" — stale ledger entries
#      fail too. Runs before the tests because it is cheaper than
#      the suite and a violation explains itself better than a
#      flaky alloc count.
#   4. go test ./...         — full unit suite
#   5. go test -race ./...   — same suite under the race detector
#      (the streaming Detector is single-goroutine by contract, but
#      the trainer and evaluation harness fan out across workers),
#      then TestCascadeStreamsConcurrent ten more times: eight
#      goroutines each drive a float32 cascade streaming from one
#      shared compiled model, and every stream must match its
#      single-threaded reference
#   6. portable kernels      — go test -tags purego on nn, edge and
#      cascade: the purego tag swaps every simd assembly kernel for its
#      portable Go reference (the !amd64 implementation), so the
#      reference kernels run in CI on an amd64 host too. At f64 the
#      streaming ≡ layer-forward tests then check the portable
#      filter-major conv row kernel against the independent row-major
#      Conv1D.Forward
#   7. arm64 fused-op guard  — the float kernels' summation orders are
#      defined with every product rounded before it is added, and gc
#      fuses x*y + z on arm64 unless the product is converted
#      explicitly. The arm64 assembly of nn's row-major kernels
#      (matVecBias*, at both widths, as instantiated by falldet) and of
#      internal/nn/simd (the references) must contain no FMADD, FMSUB,
#      FNMADD or FNMSUB, so streaming and batch agree bit for bit on
#      every architecture. Fails too if those functions are missing
#      from the listing, so the guard cannot pass vacuously
#   8. fuzz smoke            — 10 s each on the hostile-input fuzz
#      targets: FuzzQuantLoad (model-image loader must never panic or
#      over-allocate on arbitrary bytes), FuzzDetectorPush (the
#      streaming pipeline must survive arbitrary sensor input),
#      FuzzCascadePush (the cascade's decision guarantee — a decision
#      every stride, one-step tier moves — under arbitrary faults) and
#      FuzzIncrementalScore (the incremental inference engine must be
#      bit-identical to full-window batch rescoring on arbitrary
#      streams of wear, faults and gaps — the DESIGN §12 equivalence
#      oracle)
#   9. precision agreement   — the float32 path must agree with the
#      float64 path: the decision-agreement tests run the full
#      fault-injection sweep at both widths by name, and
#      FuzzPrecisionScore gets a 10 s smoke (arbitrary streams of
#      wear, faults and gaps must keep the f32/f64 score gap inside
#      the documented tolerance)
#  10. cascade determinism   — the fault sweep over the cascade must be
#      bit-identical on 1 worker and 4 (run redundantly from the suite,
#      but cheap and load-bearing enough to gate by name)
#  11. soak smoke            — the serving-runtime chaos soak at CI
#      size (16 streams, 2 injected mid-fall panics, burst/stall/
#      jitter profiles, one crash-loop) via fallserve -check: zero
#      missed deadlines on healthy sessions, bit-identical
#      post-restore decision streams, goroutine-leak check clean,
#      heap growth bounded
#  12. perfbench self-tests  — `go ./...` skips underscore
#      directories, so the served-cascade benchmark module
#      (_perfbench, its own go.mod) gets go vet and go test here, in
#      the same isolated module environment _perfbench/run.sh builds
#      it with (caches under .bench_build, GOWORK/GOENV off)
#  13. bench gate            — scripts/bench.sh -short: the hot-path
#      benchmarks run briefly with -benchmem; the gate fails when a
#      steady-state path that must be allocation-free (streaming push,
#      quantized predict, cascade/serve push, warm snapshots) reports
#      allocs/op > 0 OR B/op > 0, when the streaming CNN push drops
#      below 3x its pre-engine seed, when the f32 streaming push is
#      less than 1.2x over the f64 row, or when any benchmark regresses
#      more than 15% in ns/op against the committed baseline
#      (Parallel_Fit excluded as scheduler-noise-dominated). The
#      comparison summary lands in results_ci.txt via the tee below.
#      The committed BENCH_baseline.json comes from a full
#      `sh scripts/bench.sh` run and is left untouched here.
#
# Append the run to results_ci.txt with:
#
#   sh scripts/verify.sh 2>&1 | tee -a results_ci.txt
set -e

echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== fallvet -diff ./..."
go build -o bin/fallvet ./cmd/fallvet
./bin/fallvet -baseline fallvet_baseline.json -diff ./...
echo "== go test ./..."
go test ./...
echo "== go test -race ./..."
go test -race ./...
go test -race -count=10 -run='^TestCascadeStreamsConcurrent$' ./falldet
echo "== portable kernels: go test -tags purego"
go test -count=1 -tags purego ./internal/nn/... ./internal/edge ./internal/cascade
echo "== arm64 fused-op guard: nn matVecBias* and internal/nn/simd"
GOARCH=arm64 go build -gcflags='repro/...=-S' -o /dev/null ./falldet 2>&1 | awk '
	/^[^ \t].*STEXT/ {
		keep = $1 ~ /^repro\/internal\/nn\.matVecBias/ || $1 ~ /^repro\/internal\/nn\/simd\./
		if (keep) seen[$1] = 1
		next
	}
	keep && /[^A-Z](FMADD|FMSUB|FNMADD|FNMSUB)/ { print "fused: " $0; bad = 1 }
	END {
		for (f in seen) n++
		if (n < 6) { print "only " n " guarded functions in the arm64 listing"; bad = 1 }
		exit bad
	}'
echo "== fuzz smoke: FuzzQuantLoad (10s)"
go test ./internal/quant -run='^$' -fuzz='^FuzzQuantLoad$' -fuzztime=10s
echo "== fuzz smoke: FuzzDetectorPush (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzDetectorPush$' -fuzztime=10s
echo "== fuzz smoke: FuzzCascadePush (10s)"
go test ./internal/cascade -run='^$' -fuzz='^FuzzCascadePush$' -fuzztime=10s
echo "== fuzz smoke: FuzzIncrementalScore (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzIncrementalScore$' -fuzztime=10s
echo "== precision agreement: f32 vs f64 decision sweep"
go test ./falldet -count=1 -run='^Test(Cascade)?PrecisionDecisionAgreement$' -v
echo "== fuzz smoke: FuzzPrecisionScore (10s)"
go test ./internal/edge -run='^$' -fuzz='^FuzzPrecisionScore$' -fuzztime=10s
echo "== cascade determinism: fault sweep, workers 1 vs 4"
go test ./internal/eval -count=1 -run='^TestEvaluateCascadeRobustnessWorkerCountInvariance$' -v
echo "== soak smoke: fallserve -sessions 16 -panics 2 -check"
go run ./cmd/fallserve -sessions 16 -samples 600 -panics 2 -check
echo "== perfbench self-tests: go vet . && go test . in _perfbench"
bench_build="$(pwd)/.bench_build"
mkdir -p "$bench_build/cache" "$bench_build/gopath" "$bench_build/home"
(cd _perfbench && env GOCACHE="$bench_build/cache" GOPATH="$bench_build/gopath" \
	HOME="$bench_build/home" XDG_CONFIG_HOME="$bench_build/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off sh -c 'go vet . && go test -count=1 .')
echo "== bench gate: scripts/bench.sh -short"
sh scripts/bench.sh -short
echo "== verify: all gates passed"
