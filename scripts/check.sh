#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Falls back to --offline when
# crates.io is unreachable (all external deps are vendored under vendor/,
# so offline builds are fully supported).
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    OFFLINE="--offline"
fi

run() {
    echo "+ $*"
    "$@"
}

run cargo fmt --all --check
run cargo build --release $OFFLINE
run cargo test -q $OFFLINE
run cargo clippy --workspace --all-targets $OFFLINE -- -D warnings

# Cross-process smoke: three ajantad server processes over Unix-domain
# sockets, a 32-agent tour at 20% injected loss, bounded by --timeout.
# --ctl also serves a control socket per process and drives a full
# `ajantactl` session against the live world (remote/local parity, a
# gap-checked journal follow, the tour's admission history, and a
# fleet-wide revocation); the session transcript and the merged causal
# trace are written for CI to upload as artifacts.
mkdir -p target/bench-artifacts
run env AJANTA_SMOKE_TRACE=target/bench-artifacts/merged-trace.jsonl \
    ./target/release/ajantad --smoke --timeout 240 \
    --ctl --ctl-transcript target/bench-artifacts/ctl-transcript.txt

# Durability smoke: the same tour, but server 1 is SIGKILLed mid-tour
# and restarted on the same socket with its admission WAL — every agent
# must still resolve with zero duplicate admissions.
run ./target/release/ajantad --smoke --kill 1 --timeout 240

# Optional bench smokes (set CHECK_BENCH=1), each with a JSON summary
# CI uploads as an artifact: X16 quick — 10k resident agents at reduced
# iterations — X18 quick — the coalesced-vs-baseline wire burst — and
# X19 quick — the hibernate/wake cycle and WAL replay throughput.
if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
    echo "+ X16_JSON=target/bench-artifacts/x16_sched.json cargo run --release $OFFLINE -p ajanta-bench --bin report -- x16 quick"
    X16_JSON=target/bench-artifacts/x16_sched.json \
        cargo run --release $OFFLINE -p ajanta-bench --bin report -- x16 quick
    echo "+ X18_JSON=target/bench-artifacts/x18_wirepath.json cargo run --release $OFFLINE -p ajanta-bench --bin report -- x18 quick"
    X18_JSON=target/bench-artifacts/x18_wirepath.json \
        cargo run --release $OFFLINE -p ajanta-bench --bin report -- x18 quick
    echo "+ X19_JSON=target/bench-artifacts/x19_durability.json cargo run --release $OFFLINE -p ajanta-bench --bin report -- x19 quick"
    X19_JSON=target/bench-artifacts/x19_durability.json \
        cargo run --release $OFFLINE -p ajanta-bench --bin report -- x19 quick
fi
echo "check.sh: all green"
