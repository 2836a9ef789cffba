#!/usr/bin/env bash
# Hermeticity gate: the workspace must build and test fully offline,
# with a committed Cargo.lock and zero registry (non-path) dependencies.
#
# Run from anywhere inside the repo:
#   scripts/check_hermetic.sh
#
# Checks:
#   1. No Cargo.toml declares a dependency that is not a `path` dep
#      (registry, git, or bare-version deps are all rejected).
#   2. Cargo.lock and the benchmark's steelbench/Cargo.lock contain
#      only path crates (no `source =` lines).
#   3. `cargo build --release --frozen` and `cargo test -q --frozen`
#      succeed — `--frozen` forbids both network access and lockfile
#      updates, so this fails fast if anything external sneaks in.
#      The benchmark package (steelbench/, its own workspace with path
#      dependencies on crates/*) must also build `--offline --locked`,
#      so an API change in crates/* that breaks it fails here.
#   4. `steelcheck` (the in-repo four-layer static analysis: lexical
#      rules R1–R6 and R10, the workspace call graph, the reachability
#      rules R7–R9, and the CFG/dataflow rules R11–R13) reports zero
#      unsuppressed findings —
#      including the directive audits (`bad-directive`,
#      `unused-suppression`), so a stale or typo'd allow comment fails
#      the gate too. Prints the per-rule finding-count table for the
#      record.
#   5. Every figure binary, run under STEELWORKS_JOBS=2 (the parallel
#      scenario runner), reproduces the committed results/*.txt
#      byte-for-byte — the job count must never leak into outputs.
#      fig4_loops is also run under STEELWORKS_JOBS=1 and =3.
#      The xdpsim figures (fig4, fig4_loops) are additionally re-run
#      with XDPSIM_FORCE_INTERP=1: the default lowered engine and the
#      interpreter must produce identical bytes, or the proof-elided
#      compilation has drifted from the reference semantics.
#   6. The serving layer reproduces the same artifacts: a steelserve
#      instance on an ephemeral loopback port, with a scratch cache,
#      answers every spec in specs/ byte-identically to results/*.txt,
#      twice — a cold pass that must execute (X-Steelserve-Cache: miss)
#      and a warm pass that must not (hit). Binary, spec file, server
#      path, and cache must all agree, or the gate fails.

set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== 1/6 Cargo.toml dependency audit =="
# Inspect every dependency-ish section of every manifest; each entry
# must carry `path = "..."` (plus optional workspace/feature keys) or
# be a `workspace = true` alias to a [workspace.dependencies] entry
# that is itself path-only (audited the same way).
while IFS= read -r manifest; do
    bad=$(awk '
        /^\[/ {
            in_dep = ($0 ~ /dependencies(\.|\])/)
            next
        }
        in_dep && /^[A-Za-z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/ && $0 !~ /workspace[ \t]*=[ \t]*true/)
                print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "non-path dependency found:"
        echo "$bad"
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')
[ "$fail" -eq 0 ] && echo "OK: all dependencies are path deps"

echo "== 2/6 Cargo.lock audit =="
for lock in Cargo.lock steelbench/Cargo.lock; do
    if [ ! -f "$lock" ]; then
        echo "$lock is missing (required for --frozen/--locked builds)"
        fail=1
    elif grep -q '^source = ' "$lock"; then
        echo "$lock references external sources:"
        grep '^source = ' "$lock" | sort -u
        fail=1
    else
        echo "OK: $lock contains only path crates"
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "hermeticity audit FAILED; skipping build"
    exit 1
fi

echo "== 3/6 frozen build + test =="
# --workspace: the gate's later steps execute member binaries
# (figures, steelcheck, steelserve) that a bare root-package build
# would skip.
cargo build --release --frozen --workspace
cargo test -q --frozen --workspace
cargo build --release --offline --locked --manifest-path steelbench/Cargo.toml

echo "== 4/6 steelcheck static analysis =="
# Text mode prints the per-rule summary table on stderr; a non-zero
# exit (any unsuppressed finding, including bad-directive and
# unused-suppression) fails the gate via set -e.
cargo run --release --frozen -q -p steelcheck
# Belt and braces: the machine report must agree that the finding list
# is empty, not merely that the exit code was zero.
if ! cargo run --release --frozen -q -p steelcheck -- --format json \
        | grep -q '"findings": \[\]'; then
    echo "steelcheck JSON report is not empty"
    exit 1
fi
echo "OK: steelcheck reports zero unsuppressed findings (stale suppressions included)"

echo "== 5/6 parallel-runner output reproducibility =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for fig in fig1 fig4 fig5 fig6 challenges fig_campus; do
    STEELWORKS_JOBS=2 "target/release/$fig" > "$tmpdir/$fig.txt"
    if ! diff -q "results/$fig.txt" "$tmpdir/$fig.txt" > /dev/null; then
        echo "$fig output differs under STEELWORKS_JOBS=2:"
        diff "results/$fig.txt" "$tmpdir/$fig.txt" | head -20
        fail=1
    fi
done
# The bounded-loop corpus rides on the fig4 binary via its additive
# `loops` spec field; the baseline above already proved the default
# spec (loops off) still reproduces the pre-corpus bytes. Its 11
# scenarios are claimed dynamically by the workers, so it is also run
# sequentially and at an odd worker count.
for jobs in 1 2 3; do
    STEELWORKS_JOBS=$jobs target/release/fig4 specs/fig4_loops.json > "$tmpdir/fig4_loops.txt"
    if ! diff -q results/fig4_loops.txt "$tmpdir/fig4_loops.txt" > /dev/null; then
        echo "fig4_loops output differs under STEELWORKS_JOBS=$jobs:"
        diff results/fig4_loops.txt "$tmpdir/fig4_loops.txt" | head -20
        fail=1
    fi
done
# Engine cross-check: the runs above used the default lowered engine;
# pin the interpreter and demand the same bytes. This is the
# end-to-end half of the check-elision soundness argument (the
# per-program differential oracle runs under `cargo test` in step 3).
XDPSIM_FORCE_INTERP=1 STEELWORKS_JOBS=2 target/release/fig4 > "$tmpdir/fig4_interp.txt"
if ! diff -q results/fig4.txt "$tmpdir/fig4_interp.txt" > /dev/null; then
    echo "fig4 output differs between lowered and interpreter engines:"
    diff results/fig4.txt "$tmpdir/fig4_interp.txt" | head -20
    fail=1
fi
XDPSIM_FORCE_INTERP=1 STEELWORKS_JOBS=2 target/release/fig4 specs/fig4_loops.json \
    > "$tmpdir/fig4_loops_interp.txt"
if ! diff -q results/fig4_loops.txt "$tmpdir/fig4_loops_interp.txt" > /dev/null; then
    echo "fig4_loops output differs between lowered and interpreter engines:"
    diff results/fig4_loops.txt "$tmpdir/fig4_loops_interp.txt" | head -20
    fail=1
fi
[ "$fail" -eq 0 ] && echo "OK: all figure outputs byte-identical under parallel execution (both xdpsim engines)"
[ "$fail" -eq 0 ] || exit 1

echo "== 6/6 served-figure reproducibility =="
# Start a steelserve instance on an ephemeral loopback port with a
# scratch cache, then regenerate every figure through the server path:
# a cold pass where each spec must execute (X-Steelserve-Cache: miss)
# and a warm pass that must answer from the content-addressed cache
# (hit). Both must match the committed results/*.txt byte-for-byte —
# `post --expect` turns a wrong disposition into a hard failure.
serve_log="$tmpdir/steelserve.log"
target/release/steelserve serve --addr 127.0.0.1:0 --jobs 2 \
    --cache-dir "$tmpdir/cache" > "$serve_log" &
serve_pid=$!
# `|| true`: by gate's end the server has already exited via
# /shutdown, and a failed kill must not poison the exit status
# (set -e applies inside the trap).
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmpdir"' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^steelserve listening on //p' "$serve_log")
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "steelserve died at startup:"
        cat "$serve_log"
        exit 1
    fi
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "steelserve never reported its listening address"
    exit 1
fi
for pass in miss hit; do
    for fig in fig1 fig4 fig4_loops fig5 fig6 challenges fig_campus; do
        target/release/steelserve post "$addr" "specs/$fig.json" \
            --expect "$pass" > "$tmpdir/served-$fig.txt"
        if ! diff -q "results/$fig.txt" "$tmpdir/served-$fig.txt" > /dev/null; then
            echo "$fig served output ($pass pass) differs from results/$fig.txt:"
            diff "results/$fig.txt" "$tmpdir/served-$fig.txt" | head -20
            fail=1
        fi
    done
done
target/release/steelserve shutdown "$addr"
wait "$serve_pid" 2>/dev/null || true
[ "$fail" -eq 0 ] && echo "OK: every figure byte-identical through the server, cold and warm"
[ "$fail" -eq 0 ] || exit 1

echo "hermetic: OK"
