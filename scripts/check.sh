#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Offline by design — no registry access, no network.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# Stale-reference lint: a script, benchmark record, bench or crate
# source file that the documents name must exist in the tree.
echo "==> stale-reference lint (README, DESIGN, EXPERIMENTS, ROADMAP)"
stale=0
for ref in $(grep -ohE 'scripts/[A-Za-z0-9_]+\.sh|BENCH[A-Za-z0-9_]*\.json|crates/[A-Za-z0-9_/-]+\.rs|benches/[A-Za-z0-9_]+\.rs' \
    README.md DESIGN.md EXPERIMENTS.md ROADMAP.md | sort -u); do
    case "$ref" in
        benches/*) path="crates/bench/$ref" ;;
        *) path="$ref" ;;
    esac
    [ -e "$path" ] || { echo "stale reference: $ref"; stale=1; }
done
[ "$stale" -eq 0 ] || { echo "FAIL: the documents name files that do not exist"; exit 1; }

# Stale-symbol lint: a back-ticked `a::b` path in README or DESIGN must
# end in a word that some code line (comments do not count) of the
# crates, the root package, the examples or the tests still spells.
echo "==> stale-symbol lint (README, DESIGN)"
code_words() {
    find crates src examples tests -name '*.rs' -print0 | xargs -0 awk '
        /^[[:space:]]*\/\// { next }
        {
            n = split($0, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= n; i++) if (tok[i] != "") print tok[i]
        }' | sort -u
}
stale=$(grep -ohE '`[^`]*`' README.md DESIGN.md |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' | sort -u |
    awk 'NR == FNR { known[$0] = 1; next }
        { last = $0; sub(/.*::/, "", last); if (!(last in known)) print "stale symbol: " $0 }' \
        <(code_words) -)
[ -z "$stale" ] || { echo "$stale"; echo "FAIL: the documents name symbols the code no longer has"; exit 1; }

# Caller-less lint: a `pub fn` in a crate's src must be named on at
# least one other code line (comments do not count) of the crates, the
# root package or the benchmark.
echo "==> caller-less pub fn lint (crates/*/src)"
find crates src tests examples benchmark/src -name '*.rs' -print0 | xargs -0 awk '
    /^[[:space:]]*\/\// { next }
    {
        delete seen
        n = split($0, tok, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (tok[i] != "" && !(tok[i] in seen)) { seen[tok[i]] = 1; lines[tok[i]]++ }
    }
    FILENAME ~ /^crates\/[^\/]+\/src\// && match($0, /pub fn [A-Za-z0-9_]+/) {
        defined[substr($0, RSTART + 7, RLENGTH - 7)] = FILENAME
    }
    END {
        for (name in defined)
            if (lines[name] < 2) { print "caller-less pub fn: " name " (" defined[name] ")"; bad = 1 }
        exit bad
    }' || { echo "FAIL: public functions nobody calls"; exit 1; }

# Unsafe-surface lint: `unsafe` stays inside the audited modules — the
# Vyukov ring, the C-library FFI, and the pool slots of `bufchain`
# (each under a local `#[allow(unsafe_code)]`, all but the FFI under
# CI's miri job). Growing the list is a reviewed edit of this line.
echo "==> unsafe-surface lint (crates/*/src)"
if grep -rnw --include='*.rs' 'unsafe' crates/*/src |
    grep -vE '^crates/rtplatform/src/(ring|heap|poll|bufchain)\.rs:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
    echo "FAIL: unsafe code outside rtplatform's ring, heap, poll and bufchain"
    exit 1
fi

# One-blocking-socket-layer lint: every blocking GIOP socket is opened,
# read, written and stopped by rtplatform's `transport`. `TcpStream` in
# production code (above a file's first `#[cfg(test)]`, as the line
# count below reads it) stays there, in `poll`'s acceptor, in the
# reactor and in the membership heartbeat (a 1-byte echo, not GIOP).
echo "==> blocking-socket lint (crates/*/src)"
stray=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /TcpStream/ && !/^[[:space:]]*\/\// { print FILENAME ":" FNR ":" $0 }' |
    grep -vE '^crates/(rtplatform/src/(transport|poll)|rtcorba/src/reactor|core/src/membership)\.rs:' || true)
if [ -n "$stray" ]; then
    echo "$stray"
    echo "FAIL: TcpStream outside rtplatform's transport and poll, the reactor and the heartbeat"
    exit 1
fi

run cargo build --release --offline --workspace --bins --examples
run cargo test -q --offline --workspace

# The repo's benchmark (BENCHMARK.json) is a package of its own that
# compiles against the crates' public surface: build it and run its
# harness tests here, so an API removal that breaks it fails tier 1.
# `--locked`: a change to the crate graph (a new crate, a new
# dependency) would rewrite `benchmark/Cargo.lock`, which ordinary PRs
# may not touch; it fails here instead of quietly editing that file.
run cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
run cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# Fixed-seed rtcheck subset: deterministic differential conformance,
# linearizability, membership/failover spec, and shard-map property
# sweeps (the binary was built by the workspace build above). The
# randomized time-boxed sweeps live in CI tier 2.
run ./target/release/rtcheck diff --seed 0 --cases 2000
run ./target/release/rtcheck lin --seed 0 --rounds 50
run ./target/release/rtcheck member --seed 0 --cases 500
run ./target/release/rtcheck shard --seed 0 --cases 500
run cargo fmt --all -- --check
run cargo clippy --offline --workspace --all-targets -- -D warnings

RUSTDOCFLAGS="-D warnings" run cargo doc --offline --no-deps --workspace

# Binary-size report: embedded targets care about footprint, so keep the
# release artefact sizes visible in every CI log (informational).
echo "==> release binary sizes"
for bin in target/release/examples/*; do
    name="${bin##*/}"
    # Skip dep-info files and cargo's hash-suffixed duplicates.
    case "$name" in *-*|*.*) continue ;; esac
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    printf '%10d KiB  %s\n' "$(($(stat -c %s "$bin") / 1024))" "$name"
done | sort -k3

# Allocation-site map of one ORB echo at 64 B and at 64 KiB: every
# heap allocation left on the request path, by call site, in every log
# (informational; the steady_state_allocs guards are the gates).
for size in 64 65536; do
    echo "==> allocation sites of one ${size}-byte ORB echo"
    SZ=$size cargo test -q --offline -p rtcorba --test alloc_sites -- --ignored --nocapture |
        grep -vE '^(running [0-9]+ test|test result:.*|\.?)$'
done

# Syscall map of one ORB echo at 64 B and at 64 KiB: write- and
# read-class syscalls per echo, in every log (informational here; the
# same test ran as a tier-1 guard in the workspace tests above).
echo "==> syscalls of one ORB echo"
cargo test -q --offline -p rtcorba --test echo_syscalls -- --nocapture |
    grep -vE '^(running [0-9]+ test|test result:.*|\.?)$'

# Production lines per crate: what CHANGES.md and ROADMAP "Net state"
# quote when a PR claims to have removed code (informational).
echo "==> production lines per crate (above each file's first #[cfg(test)])"
for dir in crates/*/; do
    find "${dir}src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$dir")" '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { printf "%10d lines  %s\n", n, crate }'
done | awk '{ print; total += $1 } END { printf "%10d lines  crates/ total\n", total }'

echo "All checks passed."
