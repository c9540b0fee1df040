# Developer entry points. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: build test vet fmt race race-hot soak soak-short fuzz fuzz-stash bench bench-parallel metrics-bench allocs bench-gate bench-gate-short profile-stash fma-audit cover loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would change any file of ours
# (.bench_build/ is the benchmark's build directory, not source).
fmt:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi; \
	echo "fmt: clean"

# Race-detector run: benchmarks skip themselves via internal/race.
race:
	$(GO) test -race ./...

# Focused race pass over the packages that share the worker pool: the
# chunked codec, the async-decode executor and replica engine, the
# deterministic reduce, the pool itself, the telemetry sink every one of
# them reports into, and the fault injector that decode futures and
# replicas sharing it reach concurrently. Runs with -count=1 so the hammer
# tests actually execute every time. The job server rides along via
# soak-short (its own race pass, sized for CI).
race-hot: soak-short
	$(GO) test -race -count=1 ./internal/encoding/ ./internal/train/ ./internal/reduce/ ./internal/parallel/ ./internal/telemetry/ ./internal/bitpack/ ./internal/floatenc/ ./internal/entropy/ ./internal/stashstore/ ./internal/faults/

# Full soak/chaos run over the job server: 32 concurrent jobs with fault
# injection and a seeded cancel/pause/resume chaos goroutine, under the
# race detector. soak-short is the CI edition (12 jobs) and also runs the
# rest of the server package's tests under -race.
soak:
	$(GO) test -race -count=1 -timeout 15m -run TestSoakChaos ./internal/server/

soak-short:
	$(GO) test -race -count=1 -short ./internal/server/

# Short fuzz passes over the checkpoint parser, the gradient reduce, the
# codec kernels (format round-trip fixed point; the packed word round trip;
# mask word kernels vs their scalar references; the ZVC pipeline; ZVC
# holding packed values against the two-pass quantize-then-compact
# reference at every format and worker count; the
# entropy coder's round-trip,
# its single-pass encoder against the frozen two-phase encoder and the
# bit-serial reference on arbitrary bytes and FP32 input at every DPR
# packing, and its table-driven decoder against the bit-serial reference on
# arbitrary blocks), the GSTP spill-page parser (whole and streamed through
# small buffers), the direct convolution
# kernels and the branch-free ReLU/MaxPool gate kernels against their
# per-element references (bit for bit), and the strict Prometheus exposition
# parser gisttop runs on remote endpoints. A line with -fuzzminimizetime 20x
# otherwise stalls at 0 execs/s for most of its 20 s while the fuzzer
# minimizes each new input.
fuzz:
	$(GO) test ./internal/train/ -run FuzzReadCheckpoint -fuzz FuzzReadCheckpoint -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/reduce/ -run FuzzReduceGrads -fuzz FuzzReduceGrads -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/floatenc/ -run FuzzFormatRoundTrip -fuzz FuzzFormatRoundTrip -fuzztime 20s
	$(GO) test ./internal/floatenc/ -run FuzzPackedRoundTrip -fuzz FuzzPackedRoundTrip -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/bitpack/ -run FuzzMaskWords -fuzz FuzzMaskWords -fuzztime 20s
	$(GO) test ./internal/entropy/ -run FuzzEntropyRoundTrip -fuzz FuzzEntropyRoundTrip -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/entropy/ -run FuzzEntropyEncodeDiff -fuzz FuzzEntropyEncodeDiff -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/entropy/ -run FuzzEntropyDecodeDiff -fuzz FuzzEntropyDecodeDiff -fuzztime 20s
	$(GO) test ./internal/encoding/ -run FuzzZVCRoundTrip -fuzz FuzzZVCRoundTrip -fuzztime 20s
	$(GO) test ./internal/encoding/ -run FuzzPackedSparseDiff -fuzz FuzzPackedSparseDiff -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/encoding/ -run FuzzStoredStash -fuzz FuzzStoredStash -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/stashstore/ -run FuzzReadSpillPage -fuzz FuzzReadSpillPage -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/layers/ -run FuzzConvDirect -fuzz FuzzConvDirect -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/layers/ -run FuzzGateKernels -fuzz FuzzGateKernels -fuzztime 20s -fuzzminimizetime 20x
	$(GO) test ./internal/telemetry/promexport/ -run FuzzParse -fuzz FuzzParse -fuzztime 20s -fuzzminimizetime 20x

# Short fuzz pass over the serialized-stash decode path.
fuzz-stash:
	$(GO) test ./internal/encoding/ -run FuzzDecodeEncodedStash -fuzz FuzzDecodeEncodedStash -fuzztime 20s -fuzzminimizetime 20x

bench:
	$(GO) test -bench . -benchtime 1x -run TestXXX .

# Worker-swept parallel codec benchmarks (compare w1 vs wN sub-benches).
bench-parallel:
	$(GO) test -bench Parallel -benchtime 2s -run TestXXX .

# Telemetry overhead check: the nil-sink no-op path next to the live one,
# then the train step with and without a sink attached (the gist vs
# gist-telemetry sub-benches; gist-telemetry also reports stash-B/step, the
# compression ratio, the decode overlap-hit share and the forward's
# encode-overlap-hit share straight from the sink's counters).
metrics-bench:
	$(GO) test ./internal/telemetry/ -bench BenchmarkTelemetry -benchtime 2s -run TestXXX
	$(GO) test -bench BenchmarkTrainStep -benchtime 2s -run TestXXX .

# Allocation gate: the pooled training step — single-executor, replica
# group, and the multi-chunk spilling StashNet chain whose maps reach the
# codec's parallel chunk dispatch (gist-stashchain) — must stay within
# ALLOC_BUDGET allocs/op at steady state (currently 0; the budget leaves
# headroom for runtime-internal noise). Runs at GOMAXPROCS 1 and 4 and
# gates every reported row, so the result does not depend on how many cores
# the host has: encode futures launch on their own goroutines, and decode
# futures go to the executor's decode worker, at every worker count.
# Catches any regression that puts an allocation back on a pooled hot path.
ALLOC_BUDGET ?= 4
allocs:
	@out=$$($(GO) test -run TestXXX -bench 'BenchmarkTrainStep/^gist-(pooled|replicas|stashchain)$$' -benchtime 50x -benchmem -cpu 1,4 . | tee /dev/stderr); \
	allocs=$$(printf '%s\n' "$$out" | awk '/gist-(pooled|replicas|stashchain)/ {for (i=1; i<=NF; i++) if ($$i == "allocs/op") print $$(i-1)}'); \
	if [ "$$(echo $$allocs | wc -w)" -ne 6 ]; then echo "allocs: want 6 gist-pooled/gist-replicas/gist-stashchain rows (-cpu 1,4), got [$$(echo $$allocs)]"; exit 1; fi; \
	for a in $$allocs; do \
		if [ "$$a" -gt "$(ALLOC_BUDGET)" ]; then \
			echo "allocs: pooled train step allocates $$a/op, budget $(ALLOC_BUDGET)"; exit 1; \
		fi; \
	done; \
	echo "allocs: [$$(echo $$allocs)] /op within budget $(ALLOC_BUDGET)"

# Kernel throughput gate: runs the Kernel benchmarks (word-parallel kernels
# next to their frozen scalar references) and checks the word/scalar ratios
# and absolute floors in bench_gate.json via cmd/benchgate. The ratio is the
# primary signal so the gate is machine-independent; -count=2 with best-leg
# parsing absorbs scheduler noise. bench-gate-short is the fast path wired
# into `make check`; the default 1s benchtime is for deliberate measurement.
BENCH_GATE_TIME ?= 1s
BENCH_GATE_COUNT ?= 2
BENCH_GATE_PKGS = ./internal/bitpack/ ./internal/floatenc/ ./internal/layers/ ./internal/entropy/
bench-gate:
	@$(GO) test -run TestXXX -bench Kernel -benchtime $(BENCH_GATE_TIME) -count $(BENCH_GATE_COUNT) $(BENCH_GATE_PKGS) \
		| $(GO) run ./cmd/benchgate -thresholds bench_gate.json

bench-gate-short:
	@$(MAKE) --no-print-directory bench-gate BENCH_GATE_TIME=100ms

# CPU profile of the stash path: 2000 pooled steps of the spilling StashNet
# chain (gist-stashchain: adaptive set, integrity, a 2-worker codec), then
# pprof's 20 heaviest leaves. The test binary and the profile go to a fresh
# directory under $TMPDIR, never into the checkout; the last line names it,
# for `go tool pprof` views beyond -top.
profile-stash:
	@dir=$$(mktemp -d "$${TMPDIR:-/tmp}/gist-profile.XXXXXX") && \
	$(GO) test -run TestXXX -bench 'BenchmarkTrainStep/^gist-stashchain$$' -benchtime 2000x \
		-o "$$dir/gist.test" -cpuprofile "$$dir/cpu.prof" . | grep stashchain && \
	$(GO) tool pprof -top -nodecount 20 "$$dir/gist.test" "$$dir/cpu.prof" && \
	echo "profile-stash: binary and profile in $$dir"

# Fused multiply-add audit (ROADMAP item 12): the Go spec lets a compiler
# fuse x*y + z into one instruction, and arm64, ppc64le and riscv64 do, so
# an unfused amd64 bit pattern would not reproduce there. Every product
# that feeds a sum is written with the spec's barrier, float32(x*y) (or
# float64(...) in float64 model code). This cross-compiles ./cmd/... for
# each of those architectures and fails on any fused mnemonic in a gist/
# function; it needs no emulator. Binaries go to a fresh directory under
# $TMPDIR, removed on exit.
FMA_ARCHES = arm64 ppc64le riscv64
fma-audit:
	@dir=$$(mktemp -d "$${TMPDIR:-/tmp}/gist-fma.XXXXXX") && trap 'rm -rf "$$dir"' EXIT && \
	fail=0; \
	for arch in $(FMA_ARCHES); do \
		GOARCH=$$arch $(GO) build -o "$$dir/$$arch/" ./cmd/... || exit 1; \
		hits=$$(for bin in "$$dir/$$arch"/*; do $(GO) tool objdump "$$bin"; done | \
			awk '/^TEXT / {fn = $$2; next} fn ~ /^gist\// && /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)/ {print fn}' | sort | uniq -c); \
		if [ -n "$$hits" ]; then echo "fma-audit: $$arch: fused multiply-adds in"; echo "$$hits"; fail=1; \
		else echo "fma-audit: $$arch: none"; fi; \
	done; \
	[ "$$fail" -eq 0 ]

# Coverage floors on the numerical core: the executor/replica engine, the
# encode→seal→decode pipeline, and the deterministic reduce. Floors sit
# well below current coverage (89/87/100 as of the replica PR) so routine
# churn passes, but a test-free subsystem landing in these packages fails.
COVER_FLOOR_TRAIN ?= 80
COVER_FLOOR_ENCODING ?= 80
COVER_FLOOR_REDUCE ?= 90
COVER_FLOOR_SERVER ?= 75
COVER_FLOOR_ENTROPY ?= 85
COVER_FLOOR_STASHSTORE ?= 80
cover:
	@out=$$($(GO) test -cover -short ./internal/train/ ./internal/encoding/ ./internal/reduce/ ./internal/server/ ./internal/entropy/ ./internal/stashstore/ | tee /dev/stderr); \
	fail=0; \
	for spec in "train $(COVER_FLOOR_TRAIN)" "encoding $(COVER_FLOOR_ENCODING)" "reduce $(COVER_FLOOR_REDUCE)" "server $(COVER_FLOOR_SERVER)" "entropy $(COVER_FLOOR_ENTROPY)" "stashstore $(COVER_FLOOR_STASHSTORE)"; do \
		pkg=$${spec% *}; floor=$${spec#* }; \
		pct=$$(printf '%s\n' "$$out" | awk -v p="internal/$$pkg" '$$0 ~ p {for (i=1; i<=NF; i++) if ($$i ~ /^[0-9.]+%$$/) {sub(/%/, "", $$i); print int($$i)}}'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage output for internal/$$pkg"; fail=1; \
		elif [ "$$pct" -lt "$$floor" ]; then \
			echo "cover: internal/$$pkg at $$pct% is below the $$floor% floor"; fail=1; \
		fi; \
	done; \
	[ "$$fail" -eq 0 ] && echo "cover: all floors met" || exit 1

# Non-test Go lines per package, benchmark/ excluded — the code-diet
# trajectory (ROADMAP item 7). Printed at the end of `make check`, and fails
# when the total exceeds LOC_CEILING: a PR that needs more lines raises the
# number in its own diff, where a reviewer sees it.
LOC_CEILING ?= 22019
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" {d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1} \
		END {for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t; \
		if (t > $(LOC_CEILING)) {printf "loc: %d non-test lines exceed LOC_CEILING $(LOC_CEILING)\n", t; exit 1}}'

check: build vet fmt fma-audit test race race-hot allocs bench-gate-short cover loc
