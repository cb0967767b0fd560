#!/usr/bin/env sh
# check.sh — the full local CI gate. Run from the repository root.
#
#     scripts/check.sh              every stage
#     scripts/check.sh STAGE...     only the named stages, in gate order
#
# Every stage runs through `stage NAME cmd...`, which prints one line
#     NAME  <seconds>s  PASS|FAIL
# and, on FAIL, the stage's captured output; the first failure ends the gate.
# A STAGE that names no stage exits 2 before anything runs.
set -eu

stages=$(sed -n 's/^stage \([^ ]*\) .*/\1/p' "$0")
for want in "$@"; do
    printf '%s\n' "$stages" | grep -qxF -e "$want" ||
        { echo "check.sh: no stage named $want; stages are:" $stages >&2; exit 2; }
done
only=" $* "

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

stage() {
    name=$1
    shift
    case "$only" in "  " | *" $name "*) ;; *) return 0 ;; esac
    start=$(date +%s)
    if "$@" >"$tmpdir/stage.log" 2>&1; then
        printf '%-20s %4ss  PASS\n' "$name" "$(($(date +%s) - start))"
    else
        cat "$tmpdir/stage.log" >&2
        printf '%-20s %4ss  FAIL\n' "$name" "$(($(date +%s) - start))"
        exit 1
    fi
}

gofmt_clean() {
    out=$(gofmt -l .)
    [ -z "$out" ] || { echo "gofmt needed on:" "$out"; return 1; }
}

# The numbers ROADMAP aim 2 tracks, for CHANGES.md entries to quote; the
# assembly and the tests are counted apart so neither hides. Informational:
# printed past the stage's capture, never a failure.
size() {
    printf 'non-test Go lines in cmd+internal: %s, test Go lines: %s, assembly lines: %s, internal packages: %s, binaries: %s\n' \
        "$(find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)" \
        "$(find cmd internal -name '*_test.go' | xargs cat | wc -l)" \
        "$(find cmd internal -name '*.s' | xargs cat | wc -l)" \
        "$(ls internal | wc -l)" "$(ls cmd | wc -l)" >&3
}

exec 3>&1
stage size size
stage gofmt gofmt_clean
stage vet go vet ./...
stage build go build ./...
# Every declaration in internal/ is reached from a binary under cmd/ or
# examples/, or scripts/deadcode.allow names it with one of two reasons
# (bench-held, or a helper another package's tests call); so is every
# exported field a binary reads. See DESIGN.md, "The dead-code gate".
stage deadcode go run ./scripts/deadcode
# Every assembly kernel (a TEXT symbol in internal/**/*.s) names itself,
# backquoted, in the first cell of a row of DESIGN.md's kernel ledger, so
# no kernel lands without the row that states what it bought.
kernel_ledger() {
    sed -n '/^\*\*Kernel ledger\.\*\*/,/^\*\*Tried, not kept/p' DESIGN.md | grep '^|' | cut -d'|' -f2 >"$tmpdir/ledger.txt"
    missing=0
    for kernel in $(find internal -name '*.s' -exec sed -n 's/^TEXT ·\([A-Za-z0-9_]*\)(SB).*/\1/p' {} +); do
        grep -qF "\`$kernel\`" "$tmpdir/ledger.txt" || {
            echo "kernel $kernel has no row in DESIGN.md's kernel ledger"
            missing=1
        }
    done
    [ "$missing" = 0 ]
}
stage kernel-ledger kernel_ledger
# Every -run pattern in this file still names tests that exist: go test
# passes with "no tests to run" when a pinned name stops matching, and the
# stage would silently check nothing. Each |-alternative (but ^$) must match
# a name `go test -list` prints.
run_patterns() {
    go test -list . ./... | grep -E '^(Test|Fuzz|Benchmark|Example)' >"$tmpdir/tests.txt" || return 1
    q="'"
    grep -o -e "-run $q[^$q]*$q" "$0" | sed "s/^-run $q//; s/$q\$//" | tr '|' '\n' | sort -u >"$tmpdir/alts.txt"
    [ -s "$tmpdir/alts.txt" ] || { echo "no -run pattern found in $0"; return 1; }
    missing=0
    while read -r alt; do
        [ "$alt" = '^$' ] && continue
        grep -Eq -e "$alt" "$tmpdir/tests.txt" || {
            echo "no test matches the -run alternative $alt"
            missing=1
        }
    done <"$tmpdir/alts.txt"
    [ "$missing" = 0 ]
}
stage run-patterns run_patterns
# The front's idle-connection check is built for unix only, with a fallback
# elsewhere: a Windows and a macOS build keep both sides compiling. The mathx
# kernels are amd64 assembly with a pure-Go fallback: an arm64 and a 386
# build keep the fallback compiling. The ingest scanner reads the body in
# 64-bit words and its converter multiplies them (and takes bits.Mul64):
# its fuzz seeds, handler corpus, ring tests, the converter's boundary
# table and the vector-front-end probes (on the walk alone: the classifier
# is amd64 assembly) also run as a 386 binary, where a word is two
# registers. So does mathx.RNG's replay of math/rand against math/rand:
# there int is 32 bits, and Intn takes Int31n for every bound.
cross_build() {
    GOOS=windows go build ./cmd/... ./internal/... &&
        GOOS=darwin go build ./cmd/... ./internal/... &&
        GOARCH=arm64 go build ./cmd/... ./internal/... &&
        GOARCH=386 go build ./cmd/... ./internal/... &&
        GOARCH=386 go test -count=1 ./internal/serve/ -run 'Fuzz|TestFramesHandlerCorpus|TestRingMatchesSlidingWindow|TestFastFloatBoundaries|TestScanVectorMatchesWalk' &&
        GOARCH=386 go test -count=1 ./internal/mathx/ -run 'TestRNGReplaysMathRand'
}
stage cross-build cross_build
# The AVX2 kernels against their scalar twins, bit for bit: the mathx, nn,
# core and strategy tests (the last pin the seed bundle's decisions and the
# AppVAE baseline's Dense heads) compiled for the baseline and for
# x86-64-v3 (the compiler still fuses no multiply-add there), then with
# GODEBUG turning FMA off
# (math.Exp's non-FMA path: the init self-check must refuse the kernels) and
# AVX2 off, where TestKernelPath requires the scalar path. Then bounded
# live fuzz runs of the kernels and of mathx.RNG against math/rand (every
# initial weight and dropout mask is its draw), and end to end: a bundle
# trained on the default path, one trained with AVX2 off and one trained on
# a single P (training's workers are one per P) must be the same bytes.
kernel_bits() {
    pkgs="./internal/mathx/ ./internal/nn/ ./internal/core/ ./internal/strategy/"
    GOAMD64=v1 go test -count=1 $pkgs &&
        GOAMD64=v3 go test -count=1 $pkgs &&
        GODEBUG=cpu.fma=off go test -count=1 $pkgs &&
        GODEBUG=cpu.avx2=off go test -count=1 $pkgs &&
        go test ./internal/mathx/ -run '^$' -fuzz '^FuzzKernelBits$' -fuzztime 15s &&
        go test ./internal/mathx/ -run '^$' -fuzz '^FuzzRNGReplaysMathRand$' -fuzztime 10s &&
        go build -o "$tmpdir/eventhittrain" ./cmd/eventhittrain &&
        "$tmpdir/eventhittrain" -task TA1 -quick -out "$tmpdir/ta1.bundle" &&
        GODEBUG=cpu.avx2=off "$tmpdir/eventhittrain" -task TA1 -quick -out "$tmpdir/ta1_scalar.bundle" &&
        cmp "$tmpdir/ta1.bundle" "$tmpdir/ta1_scalar.bundle" &&
        GOMAXPROCS=1 "$tmpdir/eventhittrain" -task TA1 -quick -out "$tmpdir/ta1_p1.bundle" &&
        cmp "$tmpdir/ta1.bundle" "$tmpdir/ta1_p1.bundle"
}
stage kernel-bits kernel_bits
# Batch-synchronous training: workers fill per-record tapes and sum
# gradient rows concurrently; ten race-detector passes over the training
# tests (the pinned digests at GOMAXPROCS 1, 2, 3 and 8 among them).
stage train-race-x10 go test -race -count=10 ./internal/core/ ./internal/nn/ -run 'TestTrain'
stage race go test -race ./...
# Randomized test order: no test may depend on a sibling having run first.
# This pass includes the scenario corpus goldens at GOMAXPROCS 1 and 4 and
# the experiment registry suite (internal/harness).
stage shuffle go test -shuffle=on ./...

# /metrics + /v1/stats consistency: concurrent scrapes while predicts relay,
# each scrape one snapshot.
stage scrape-serve go test -race ./internal/serve/ -run 'TestStatsConsistentUnderLoad|TestMetricsEndpoint|TestMetricsScrapeIsOneInstant' -count=1
stage scrape-obs go test -race ./internal/obs/ -run 'TestConcurrentUpdatesAndScrapes' -count=1
# Hot swap + online adaptation: predicts hammer the server while bundles
# swap; the induced-shift coverage restoration runs twice for determinism;
# the one adaptation loop (drift.Loop) as a state-machine table and as the
# scenario engine's drift tasks walk it (alarm after a shift, budget cut-off).
stage swap go test -race ./internal/serve/ ./internal/drift/ ./internal/scenario/ -run 'TestSwapUnderConcurrentPredictLoad|TestAdaptationRestoresCoverage|TestAdaptationDeterministic|TestRecalibrationsDeferred|TestLoop|TestDriftShiftDetection|TestDriftBudgetCutsOff' -count=1
# Checked-in fuzz corpora as ordinary tests; explore further with
# `go test ./internal/serve/ -fuzz FuzzFrames|FuzzParseFrames`. The ingest scanner
# also gets two bounded live runs: against encoding/json (it converts only
# the rows the ring keeps, so only the across-keep accept-set property
# guards the rows it skips) and against the byte walk it replaced; and its
# number converter one against strconv.ParseFloat; an owned connection's
# strict path gets one against net/http on a twin server. On an AVX2
# machine the scanner takes compact bodies through its vector front end, so
# the seeds, the handler corpus and the front end's probes run once more
# with AVX2 off, where every body takes the word walk. The cluster front's
# owned connections get their seeds and a bounded live run against a
# net/http twin front (each script that leaves the front waiting costs a
# 1 s silence, so minimizing is capped), and its strict reply parser a
# bounded live run against http.ReadResponse.
fuzz_serve() {
    go test ./internal/serve/ -run 'Fuzz|TestFramesHandlerCorpus|TestScanVectorMatchesWalk' -count=1 &&
        go test ./internal/cluster/ -run 'FuzzFrontTakeoverMatchesNetHTTP|FuzzReplyMatchesReadResponse' -count=1 &&
        go test ./internal/cluster/ -run '^$' -fuzz '^FuzzFrontTakeoverMatchesNetHTTP$' -fuzztime 15s -fuzzminimizetime 5x &&
        go test ./internal/cluster/ -run '^$' -fuzz '^FuzzReplyMatchesReadResponse$' -fuzztime 10s &&
        GODEBUG=cpu.avx2=off go test ./internal/serve/ -run 'Fuzz|TestFramesHandlerCorpus|TestScanVectorMatchesWalk' -count=1 &&
        go test ./internal/serve/ -run '^$' -fuzz '^FuzzParseFrames$' -fuzztime 15s &&
        go test ./internal/serve/ -run '^$' -fuzz '^FuzzScanMatchesByteWalk$' -fuzztime 15s &&
        go test ./internal/serve/ -run '^$' -fuzz '^FuzzFastFloat$' -fuzztime 10s &&
        go test ./internal/serve/ -run '^$' -fuzz '^FuzzTakeoverMatchesNetHTTP$' -fuzztime 15s
}
stage fuzz-serve fuzz_serve
# Scenario specs: the seeds (every corpus spec among them) as tests, then a
# bounded live run against the parse and json.Marshal round trips.
fuzz_scenario() {
    go test ./internal/scenario/ -run 'Fuzz|TestFuzzSeedCorpus' -count=1 &&
        go test ./internal/scenario/ -run '^$' -fuzz '^FuzzScenarioParse$' -fuzztime 10s
}
stage fuzz-scenario fuzz_scenario
# Bundles are untrusted bytes: LoadBundle and the two calibration decoders
# never panic, allocate at most a multiple of their input plus encoding/gob's
# read-ahead chunk, and what they load saves to bytes that load and save to
# themselves. The seeds (a TA1 -quick bundle and its truncations) as tests,
# then bounded live runs.
fuzz_bundle() {
    go test ./internal/strategy/ ./internal/conformal/ -run 'FuzzBundleLoad|FuzzClassifierLoad|FuzzRegressorLoad' -count=1 &&
        go test ./internal/strategy/ -run '^$' -fuzz '^FuzzBundleLoad$' -fuzztime 15s -fuzzminimizetime 1s &&
        go test ./internal/conformal/ -run '^$' -fuzz '^FuzzClassifierLoad$' -fuzztime 5s &&
        go test ./internal/conformal/ -run '^$' -fuzz '^FuzzRegressorLoad$' -fuzztime 5s
}
stage fuzz-bundle fuzz_bundle
# Frame ingest: push+predict on one session; the ring is written in place.
stage ingest-race-x10 go test -race ./internal/serve/ -run 'TestConcurrentPushPredictSameSession' -count=10
# Lock-free predict path: goroutines sharing one model, cameras on distinct
# sessions with a swap or recalibration landing mid-run, every response
# equal to a serial replay; and two predictors sharing one session's
# decision scratch through a swap.
stage predict-core-x5 go test -race ./internal/core/ -run 'TestConcurrentInferenceSharesModel' -count=5
stage predict-strategy-x5 go test -race ./internal/strategy/ -run 'TestDecideConcurrentOnSharedBundle' -count=5
# Decide loops on every core: PredictAll for every strategy (the cascade
# included), and the marshaller's decide stage under RunDetailed and
# Collect, against the serial loop at GOMAXPROCS 1, 2, 3 and 8.
stage decide-parallel-x5 go test -race -count=5 ./internal/strategy/ ./internal/pipeline/ ./internal/cascade/ -run 'TestPredictAllMatchesSerial|TestDecideParallelMatchesSerial|TestDecideReturnsLowestAnchorError|TestCascadePredictAllMatchesSerial'
# Owned connections: paced_relay's mix of pushes, predicts and scrapes on
# two taken-over connections, every reply equal to net/http's; and shutdown
# closing owned connections, busy, idle, handed back to net/http, and
# waiting for the rest of a predict's or a push's body.
stage predict-serve-x5 go test -race ./internal/serve/ -run 'TestConcurrentPredictMatchesSerial|TestConcurrentRelayMatchesSerial|TestSameSessionPredictMatchesSerial|TestOwnedConnMixedTraffic|TestOwnedConnShutdown' -count=5
# The one relay path both drivers send decided relays through: served,
# retried, deferred (outage, open breaker) and cache-hit fates as one table.
stage relay-contract-x5 go test -race ./internal/pipeline/ -run 'TestRelayServeContract|TestAppendRequests' -count=5
# Streaming kernel: the per-stream input-projection ring and edges-in Θ
# decoding against full recomputation, bit for bit.
stage stream-kernel-x5 go test -race -count=5 ./internal/core/ ./internal/strategy/ -run 'TestStreamRing|TestDecodeEdges|FuzzDecodeEdges|TestDecideOnStreamMatchesSeedDecision'
# Scheduler admission/starvation, cluster ring/leases/remote cache/front,
# and the cascade ladder (goroutines walking one Cascade and its shared
# full bundle against a serial walk), uncached under -race. No binary
# links ./internal/cascade/; it stays only as the reference ladder bench/
# walks.
stage tiers-race go test -race -count=1 ./internal/fleet/ ./internal/cluster/ ./internal/cascade/
# The front's hop to its workers: the proxy contract against a direct twin
# worker, hung, cancelled, cut-short and restarted workers, refused URLs and
# expired idle connections; and the front's owned client connections:
# replies equal a net/http twin front's, shutdown closes them, idle and
# mid-exchange with a slow worker, the front's /metrics gauge counts them,
# and a client gone mid-exchange leaves no goroutine once the worker answers
# or the hop times out.
stage front-hop-x5 go test -race -count=5 ./internal/cluster/ -run 'TestFrontProxyMatchesDirect|TestFrontHopFailures|TestFrontURLs|TestHopExpiresIdleConns|FuzzFrontTakeoverMatchesNetHTTP|TestFrontOwnedConnShutdown|TestFrontOwnedConnGauge|TestFrontOwnedConnClientGone|TestFrontSessionNamedDefault'
# Allocation ceilings: frames handler at 1, 250 and 4096 frames; predict;
# a push and a predict on an owned connection; a predict proxied through
# the front, in process and on an owned front connection.
stage handler-allocs go test ./internal/serve/ ./internal/cluster/ -run 'TestFramesHandlerAllocs|TestPredictHandlerAllocs|TestOwnedConnAllocs|TestFrontProxyAllocs|TestFrontOwnedConnAllocs' -count=1
# The corpus golden gate through the shipped binary, at GOMAXPROCS 1 and 4:
# every report must equal its golden at both. The fleet cap, cache
# and CI-fault sweeps are corpus scenarios, so this is their regeneration
# gate (regeneration hint: eventhitscenario -corpus -regen).
scenario_corpus() {
    go build -o "$tmpdir/eventhitscenario" ./cmd/eventhitscenario &&
        GOMAXPROCS=1 "$tmpdir/eventhitscenario" -corpus &&
        GOMAXPROCS=4 "$tmpdir/eventhitscenario" -corpus
}
stage scenario-corpus scenario_corpus
# The repository benchmark completes: a non-zero exit (a workload that
# failed or did not finish) fails the gate. Its timings gate nothing here.
stage bench go run ./bench -seed 1 -seconds 3
# A seed whose fleet rounds include a camera that saw no event: its recall is
# undefined, and the fleet must report it so rather than fail the round.
stage bench-idle-camera go run ./bench -workload offline_repro -seed 511 -seconds 1

stage build-eventhitbench go build -o "$tmpdir/eventhitbench" ./cmd/eventhitbench

# Every `-exp all` row prints the same bytes at any GOMAXPROCS: no row
# prints wall-clock, and every grid merges in cell-index order. No
# committed bytes — the two runs are compared with each other.
exp_all_x2() {
    [ -x "$tmpdir/eventhitbench" ] || go build -o "$tmpdir/eventhitbench" ./cmd/eventhitbench
    GOMAXPROCS=1 "$tmpdir/eventhitbench" -exp all -quick >"$tmpdir/all_p1.txt" &&
        GOMAXPROCS=4 "$tmpdir/eventhitbench" -exp all -quick >"$tmpdir/all_p4.txt" &&
        cmp "$tmpdir/all_p1.txt" "$tmpdir/all_p4.txt"
}
stage exp-all-x2 exp_all_x2

echo "OK"
