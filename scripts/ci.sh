#!/usr/bin/env bash
# Tiered CI pipeline: cheap universal gates first, the full hermetic
# verification in the middle, perf smoke last, fault containment at the
# very end (it deliberately aborts transposes). Designed so a clean
# checkout with only the pinned toolchain (rustc + cargo + rustfmt +
# clippy) passes end-to-end:
#
#   tier 0  fmt          cargo fmt --check            (seconds)
#   tier 0  clippy       cargo clippy -D warnings     (one build), and
#                        again on ipt-bench with its criterion-gated
#                        bench targets
#   tier 0  shellcheck   scripts/*.sh, if installed
#   tier 0  loc          scripts/loc.sh: the non-test line count of
#                        crates/*/src, printed for the record (no gate)
#   tier 1  verify       scripts/verify.sh            (hermetic build+test)
#   tier 2  rustdoc      -D warnings across the workspace
#   tier 2  perfbench    the layer-ledger benchmark's own tests (its
#                        verifier, percentiles, trace export), so a
#                        library API change cannot break it unnoticed
#   tier 2  bench smoke  kernels/aos/batched suites: emit -> parse ->
#                        compare against the committed BENCH_*.json
#                        baselines, archiving each run into the history
#                        dir
#   tier 2  bench trend  a second kernels run gated against that history
#                        (trailing-median + drift gate, --history)
#   tier 3  sanitize     release test run of the concurrency layer with
#                        the disjointness checker live (IPT_CHECK=1) plus
#                        the fault-injection suite and the fault soak,
#                        then a tall-skinny smoke: a --scaling bench under
#                        IPT_FAULT + IPT_CHECK=1 must exit 4 (structured
#                        abort) or 0 — never SIGSEGV
#   tier 3  miri         cargo +nightly miri over ipt-core + ipt-pool,
#                        and ipt-parallel's small tiled-route (tiles and
#                        page pass), skinny-route and column-pass tests;
#                        then, as a soft step, the tile tests again with
#                        AVX2 enabled, so the AVX2 tile kernel runs under
#                        the interpreter;
#                        skips gracefully when no nightly+miri toolchain
#                        is installed (CI runs it as a soft-fail job)
#   tier 3  fault smoke  an IPT_FAULT=panic:0.05 bench run must exit
#                        with a structured TransposeAborted (code 4) —
#                        never a SIGSEGV/abort — proving panic
#                        containment end to end through the CLI
#   tier 3  recovery     the same fault-armed bench with IPT_RETRY=2 must
#                        now *complete* (exit 0, gates evaluated) — the
#                        undo/retry ladder healing every injected fault —
#                        and an IPT_FAULT=hang:1 run under IPT_WATCHDOG_MS
#                        must exit 5 via the watchdog, never wedge
#
# Usage: scripts/ci.sh [all|sanitize|fault|recovery|miri]
#   (default `all`; from anywhere — cd's to the repo root)
#
# Knobs:
#   IPT_BENCH_THRESHOLD    regression gate percent for the bench smoke
#                          (default 40 — see the note at that stage).
#   IPT_BENCH_HISTORY_DIR  where the smoke runs archive their dated
#                          reports (default: a temp dir, removed on
#                          exit; set it to keep the archive, e.g. for a
#                          CI artifact upload).
#   IPT_THREADS            pool size for the sanitize/fault stages (the
#                          CI sanitize job sweeps 1, 2 and 4).

set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

stage() { echo; echo "== ci: $1 =="; }

sanitize_stage() {
    stage "sanitize: checked-mode tests, IPT_THREADS=${IPT_THREADS:-auto} (tier 3)"
    # Release tests with the disjointness checker forced on: debug test
    # builds dogfood it via cfg(debug_assertions), this stage proves the
    # release codepath + IPT_CHECK=1 combination (the one ops would flip
    # on a misbehaving host) is equally clean, at the CI matrix's thread
    # counts.
    IPT_CHECK=1 cargo test --release -p ipt-parallel -p ipt-pool -p ipt-aos-soa
    IPT_CHECK=1 cargo test --release -p ipt --features fault-inject \
        --test fault_injection
    # The fault soak: thousands of random shapes under injected panics and
    # skews, at budget 0 and armed. Its own test binary, so it sets
    # IPT_CHECK=1 itself before the checker's one-time read.
    cargo test --release -p ipt --features fault-inject --test soak_faults \
        -- --ignored

    stage "tall-skinny smoke: 65536x8 under faults (tier 3)"
    # --scaling appends the 65536x8 shape on the default path — its
    # column passes are one column group of the default u64 width, so
    # only the row shuffle splits across workers — and measures the
    # 1-thread R2C twin. Under a 5% panic rate with the checker live, the
    # containment contract is the same as the fault stage's: structured
    # abort or clean pass, never a crash.
    cargo build --release -p ipt-cli --features fault-inject --quiet
    contained_bench --scaling
}

# Run one fault-injected parallel bench (extra `ipt-cli bench` flags pass
# through) and enforce the containment contract: the only acceptable
# outcomes are a structured abort (exit 4, "transpose aborted in phase
# ...") or — should the deterministic decisions miss every site — a clean
# pass. A segfault (139), a raw panic exit (101) or any other code means
# containment broke. Writes the report to a temp file so a clean run
# cannot clobber the committed BENCH_parallel.json baseline.
contained_bench() {
    local out rc=0
    out="$(IPT_FAULT=panic:0.05 IPT_CHECK=1 \
        target/release/ipt-cli bench --suite parallel --quick --samples 2 \
        --out "$(mktemp)" "$@" 2>&1)" || rc=$?
    case "$rc" in
        4)
            if ! grep -q "transpose aborted in phase" <<< "$out"; then
                echo "$out"
                echo "fault smoke: exit 4 without a TransposeAborted report"
                return 1
            fi
            echo "fault smoke: contained abort, as expected:"
            grep "transpose aborted" <<< "$out" | head -1
            ;;
        0)
            echo "fault smoke: WARNING: no injection fired on this" \
                 "shape set (deterministic decisions all missed)"
            ;;
        *)
            echo "$out"
            echo "fault smoke: unexpected exit code $rc (139 = SIGSEGV," \
                 "101 = uncontained panic)"
            return 1
            ;;
    esac
}

miri_stage() {
    stage "miri: ipt-core, ipt-pool, the tiled and skinny routes and the column pass under the interpreter (tier 3, soft)"
    # Miri interprets the unsafe core (raw-pointer kernels, the scoped
    # executor) and catches UB tests can't. It needs a nightly toolchain
    # with the miri component — not part of the pinned CI toolchain — so
    # skip cleanly when absent instead of failing a stable-only box.
    if ! rustup run nightly cargo miri --version > /dev/null 2>&1; then
        echo "nightly+miri not installed; skipping" \
             "(rustup toolchain install nightly --component miri)"
        return 0
    fi
    # Quadratic interpreter slowdown: keep it to the two leaf crates and
    # skip the soak-sized tests via the harness's own #[ignore] tags.
    MIRIFLAGS="-Zmiri-disable-isolation" \
        rustup run nightly cargo miri test -p ipt-core -p ipt-pool
    # ipt-parallel's raw-pointer paths, through their small tests only:
    # the tile kernels, the page pass's cycle scan and its resumed
    # segments, the skinny route's small shapes, the column pass's
    # group accessors (fine window and sub-row walk) and the gathers its
    # redo derives, and the edge shapes on 256- and 512-byte elements.
    MIRIFLAGS="-Zmiri-disable-isolation" \
        rustup run nightly cargo miri test -p ipt-parallel --lib -- \
        tiled:: tile:: skinny:: \
        exec::tests::page_segments_torn_at_any_move \
        cache_aware::tests::step_wrappers_match_sequential_permute \
        cache_aware::tests::decreasing_amount_family \
        cache_aware::tests::each_pass_gathers_the_papers_formula
    MIRIFLAGS="-Zmiri-disable-isolation" \
        rustup run nightly cargo miri test -p ipt-parallel --test properties \
        tiled_route_edge_shapes
    # The steps above run the scalar tile kernel (miri detects no CPU
    # feature). With AVX2 on at compile time the tile pass takes the
    # AVX2 kernel, so the interpreter checks its raw-pointer loads and
    # stores. Soft: a miri that lacks one of the intrinsics stops with
    # "unsupported operation", which says nothing about the kernel.
    if ! RUSTFLAGS="-C target-feature=+avx2" MIRIFLAGS="-Zmiri-disable-isolation" \
        rustup run nightly cargo miri test -p ipt-parallel --lib -- tile::; then
        echo "miri: the AVX2 tile kernel step failed (soft; see above)"
    fi
}

fault_stage() {
    stage "fault smoke: injected panics must abort, not crash (tier 3)"
    # Build the CLI with the injection sites compiled in and run a bench
    # suite under a 5% per-item panic rate (contract in contained_bench).
    cargo build --release -p ipt-cli --features fault-inject --quiet
    contained_bench
}

recovery_stage() {
    stage "recovery: armed retries must self-heal injected faults (tier 3)"
    cargo build --release -p ipt-cli --features fault-inject --quiet

    # The recovery test suite end to end (also covers IPT_RETRY=0
    # containment): every injected panic/skew recovered byte-identically
    # at the armed budget, abort contract intact at budget 0.
    cargo test --release -p ipt --features fault-inject \
        --test fault_injection -- armed_retry budget_zero

    # Same fault dose as the fault stage — but with the ladder armed the
    # bench must *complete*: exit 0, every per-run verification pass, the
    # regression gate actually evaluated. Exit 4 here means the ladder
    # failed to heal a contained fault; anything else means containment
    # itself broke. Column groups and rows (parallel), the §6.1 chunks
    # (aos), and column groups one head tall over a stack of 16 heads
    # with its rows (batched). The aos suite makes a few dozen tasks per
    # call (its chunks and page-pass segments), so it needs a far higher rate
    # than 0.05 for any injection to fire (aos at 0.05 draws none); the
    # batched suite keeps the 0.5 it had when a call was 16 tasks.
    local suite_rate suite rate out rc
    for suite_rate in parallel:0.05 aos:0.3 batched:0.5; do
        suite="${suite_rate%%:*}"
        rate="${suite_rate#*:}"
        rc=0
        out="$(IPT_FAULT="panic:$rate" IPT_CHECK=1 IPT_RETRY=2 \
            target/release/ipt-cli bench --suite "$suite" --quick --samples 2 \
            --out "$(mktemp)" 2>&1)" || rc=$?
        if [ "$rc" -ne 0 ]; then
            echo "$out"
            echo "recovery smoke ($suite): armed bench must exit 0, got $rc"
            return 1
        fi
        if grep -q "recovery:" <<< "$out"; then
            echo "recovery smoke ($suite): armed bench completed; healed runs:"
            grep "recovery:" <<< "$out" | head -3
        else
            echo "recovery smoke ($suite): WARNING: armed bench saw no" \
                 "injection (deterministic decisions all missed)"
        fi
    done

    # Skews, through the CLI: checked mode must catch the element path's
    # skewed column-group writes and the ladder's sequential redo must
    # heal them (rate 0.05 hits several column groups per call). The
    # §6.1 passes have no skew site: a chunk is a block and a page move
    # one run copy.
    rc=0
    out="$(IPT_FAULT="skew:0.05" IPT_CHECK=1 IPT_RETRY=2 \
        target/release/ipt-cli bench --suite parallel --quick --samples 2 \
        --out "$(mktemp)" 2>&1)" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "$out"
        echo "recovery smoke (parallel skew): armed bench must exit 0, got $rc"
        return 1
    fi
    if grep -q "recovery:" <<< "$out"; then
        echo "recovery smoke (parallel skew): armed bench completed; healed runs:"
        grep "recovery:" <<< "$out" | head -3
    else
        echo "recovery smoke (parallel skew): WARNING: armed bench saw no" \
             "injection (deterministic decisions all missed)"
    fi

    stage "hang smoke: watchdog must exit 5, never wedge (tier 3)"
    # A 100% hang rate stalls the first parallel task forever; the
    # watchdog (500 ms deadline) must take the process down with exit
    # code 5 long before the outer 60 s timeout. 124 means the process
    # wedged — the exact failure mode the watchdog exists to prevent.
    rc=0
    timeout 60 env IPT_FAULT=hang:1 IPT_WATCHDOG_MS=500 \
        target/release/ipt-cli bench --suite parallel --quick --samples 2 \
        --out "$(mktemp)" > /dev/null 2>&1 || rc=$?
    case "$rc" in
        5) echo "hang smoke: watchdog fired and exited 5, as expected" ;;
        124)
            echo "hang smoke: process WEDGED for 60s — watchdog never fired"
            return 1
            ;;
        *)
            echo "hang smoke: expected exit 5 (or 124 = wedge), got $rc"
            return 1
            ;;
    esac
}

main_pipeline() {
    stage "fmt (tier 0)"
    cargo fmt --all -- --check

    stage "clippy (tier 0)"
    cargo clippy --workspace --all-targets -- -D warnings
    # The criterion-gated bench targets (the ablations among them) build
    # only with the feature on, so the line above never sees them.
    cargo clippy -p ipt-bench --all-targets --features criterion -- -D warnings

    stage "shellcheck (tier 0)"
    if command -v shellcheck > /dev/null 2>&1; then
        shellcheck scripts/*.sh
    else
        echo "shellcheck not installed; skipping (install it to lint scripts/*.sh)"
    fi

    stage "loc: non-test lines in crates/*/src (tier 0, report only)"
    scripts/loc.sh

    stage "hermetic verify (tier 1)"
    scripts/verify.sh

    stage "rustdoc -D warnings (tier 2)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

    stage "perfbench: benchmark self-tests (tier 2)"
    # perfbench/ is its own Cargo package (not a workspace member), so the
    # workspace build and test stages above never compile it.
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    stage "bench smoke: fixed suites vs committed baselines (tier 2)"
    # A --quick run keeps the full (algorithm, shape) entry set of each
    # committed BENCH_*.json (compare keys must match) and only cuts
    # samples, so every suite finishes in seconds. The kernels gate defends
    # the kernel family's headline property — the run-blocked kernels'
    # multiple-x win over scalar on large-gcd shapes; the aos/batched gates
    # defend the §6.1 skinny specialization and the shared-params batched
    # path. Losing any of those shows up as a 50%+ median drop; machine
    # noise on a busy single-core box measures up to ~30% run-to-run. Hence
    # a generous threshold plus one retry: noise must strike the same way
    # twice in a row to false-fail, while a real regression fails both runs.
    # Every smoke run is also archived into the history dir for the trend
    # stage below (and for CI artifact upload).
    THRESHOLD="${IPT_BENCH_THRESHOLD:-40}"
    CLI=target/release/ipt-cli
    SMOKE="$(mktemp)"
    CLEAN_HISTORY=0
    if [ -z "${IPT_BENCH_HISTORY_DIR:-}" ]; then
        IPT_BENCH_HISTORY_DIR="$(mktemp -d)"
        CLEAN_HISTORY=1
    fi
    cleanup() {
        rm -f "$SMOKE"
        if [ "$CLEAN_HISTORY" = 1 ]; then
            rm -rf "$IPT_BENCH_HISTORY_DIR"
        fi
    }
    trap cleanup EXIT

    run_smoke() {
        local suite="$1"
        "$CLI" bench --suite "$suite" --quick --samples 3 --out "$SMOKE" \
            --history "$IPT_BENCH_HISTORY_DIR" > /dev/null
        grep -q '"schema": "ipt-bench-report-v1"' "$SMOKE"
        "$CLI" bench --compare "$SMOKE" "$SMOKE" > /dev/null  # parse round-trip
        "$CLI" bench --compare "BENCH_${suite}.json" "$SMOKE" --threshold "$THRESHOLD"
    }
    for suite in kernels aos batched; do
        if ! run_smoke "$suite"; then
            echo "-- $suite smoke regressed once; retrying to rule out machine noise --"
            run_smoke "$suite"
        fi
    done

    stage "model smoke: phase attribution vs measured timers (tier 2)"
    # The analytical phase model (MODEL.md) against this box's measured
    # phase timers on the first committed bench shape. The gate is a loose
    # sanity bound, far above the ~0.1-0.19 divergence a healthy build
    # measures (see EXPERIMENTS.md): it catches the model and the engine
    # drifting apart structurally (wrong phase set, wrong ranking, a
    # broken bytes accounting), not machine noise. Same retry rationale as
    # the bench smoke above.
    MODEL_GATE=0.45
    if ! "$CLI" model --rows 192 --cols 256 --elem 8 --samples 48 \
        --max-divergence "$MODEL_GATE"; then
        echo "-- model smoke breached once; retrying to rule out machine noise --"
        "$CLI" model --rows 192 --cols 256 --elem 8 --samples 48 \
            --max-divergence "$MODEL_GATE"
    fi

    stage "bench trend: history gate (tier 2)"
    # A second kernels run, gated against the archive the smoke stage just
    # wrote with the trailing-median + monotone-drift gate — this exercises
    # the whole append -> load -> trend pipeline on files the pipeline
    # itself produced, and exits 3 if the box slowed down between the two
    # runs by more than the (generous) threshold.
    "$CLI" bench --suite kernels --quick --samples 3 --out "$SMOKE" > /dev/null
    "$CLI" bench --compare "$SMOKE" --history "$IPT_BENCH_HISTORY_DIR" \
        --threshold "$THRESHOLD"
}

case "${1:-all}" in
    all)
        main_pipeline
        sanitize_stage
        miri_stage
        # Last on purpose: these run binaries that abort (or, for the
        # hang smoke, get killed out of) transposes.
        fault_stage
        recovery_stage
        ;;
    sanitize) sanitize_stage ;;
    miri) miri_stage ;;
    fault) fault_stage ;;
    recovery) recovery_stage ;;
    *)
        echo "usage: scripts/ci.sh [all|sanitize|fault|recovery|miri]" >&2
        exit 2
        ;;
esac

echo
echo "== ci: OK =="
