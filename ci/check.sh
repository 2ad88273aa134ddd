#!/usr/bin/env bash
# Offline CI gate for the gigascope-rs workspace.
#
# The workspace is hermetic: every dependency is a path dependency inside
# this repository (see DESIGN.md §8). This script is the enforcement point —
# it must pass on a machine with no network access and an empty cargo
# registry cache.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build =="
cargo build --release --offline

echo "== offline test suite =="
cargo test -q --offline

echo "== self-monitoring property/stats tests =="
# Explicit gate on the PR-3 suites (also covered by the full test run
# above): shedding invariants and exact per-operator counter accounting.
cargo test -q --offline -p gs-tests --test prop_qos --test end_to_end

echo "== partition-parallel property tests =="
# Explicit gate on the PR-4 suite (also covered by the full test run
# above): the partition-parallel rewrite is output-invisible at every
# parallelism x batch point, with and without shedding.
cargo test -q --offline -p gs-tests --test prop_parallel

echo "== faults gate: containment, quarantine, watchdog recovery =="
# Explicit gate on the PR-5 fault-isolation suites (also covered by the
# full test run above). Everything is offline and fixed-seed: the fault
# matrix (parallelism x shedding x batch with injected panics), the
# truncated-packet decoding properties, and the
# stalled-subscription-recovers-within-watchdog smoke test.
cargo test -q --offline -p gs-tests --test prop_faults --test prop_truncate --test watchdog
cargo test -q --offline -p gs-tests --test watchdog stalled_subscription_recovers_within_watchdog

echo "== stats overhead gate (<=5% on threaded benches) =="
# Interleaved stats-on/stats-off runs of the manager workload; exits
# non-zero if self-monitoring costs more than 5%. (Every perf gate is a
# row of the table in crates/bench/src/bin/gate.rs.)
GS_BENCH_QUICK=1 cargo run -q --release --offline -p gs-bench --bin gate -- stats

echo "== partition-parallel gate (par4 not slower than par1) =="
# Interleaved parallelism-1/parallelism-4 runs of the multi-key manager
# workload; exits non-zero if the partitioned run costs more than 10%.
# On hosts with fewer than 4 logical CPUs the numbers are printed but
# the comparison is skipped (the >=1.5x speedup figure is a manual
# measurement on a >=4-core machine).
GS_BENCH_QUICK=1 cargo run -q --release --offline -p gs-bench --bin gate -- parallel

echo "== shared prefilter property tests =="
# Explicit gate on the PR-7 suite (also covered by the full test run
# above): every LFTA's output and counters under the shared pass equal
# the naive per-LFTA oracle (gs_tests::oracle_lftas) across
# sync/threaded/parallel/quarantine runs.
cargo test -q --offline -p gs-tests --test prop_prefilter

echo "== daemon protocol/lifecycle tests =="
# Explicit gate on the PR-8 suites (also covered by the full test run
# above): randomized session equivalence vs one-shot runs, adversarial
# wire decoding, register/unregister churn, and auto-restart after
# injected panics.
cargo test -q --offline -p gs-tests \
    --test prop_daemon --test daemon_lifecycle --test daemon_restart

echo "== checkpoint/restore property tests =="
# Explicit gate on the PR-9 suites (also covered by the full test run
# above): snapshot codec rejection of every truncation prefix and random
# corruption with empty-window fallback, chunked capture/restore and
# seeded-fault retry equivalence vs continuous runs, and carry-state
# daemon sessions (window spanning epochs, fault + replay from
# checkpoint) matching the one-shot engine.
cargo test -q --offline -p gs-tests \
    --test prop_snapshot --test prop_checkpoint --test daemon_carry

echo "== snapshot overhead gate (<=5% on threaded benches) =="
# Interleaved carry-mode (restore + capture) vs plain runs of the
# manager workload; exits non-zero if checkpointing costs more than 5%
# on the steady-state path.
GS_BENCH_QUICK=1 cargo run -q --release --offline -p gs-bench --bin gate -- snapshot

echo "== daemon gate: scripted gsqd/gsq session on loopback =="
# Boot the real daemon binary on an ephemeral loopback port, run a full
# scripted client session against it (register, subscribe, two epochs
# of result frames, health poll, unregister, shutdown), and require a
# clean exit on both sides with no leftover process.
rm -f target/gsqd.port target/gsqd_session.out
cat > target/ci_daemon.gsql <<'EOF'
DEFINE { query_name perport; }
Select time, destPort, count(*) From eth0.tcp Group By time, destPort
EOF
target/release/gsqd --listen 127.0.0.1:0 --synthetic 40x50 --epoch-gap 0 \
    --port-file target/gsqd.port &
GSQD_PID=$!
for _ in $(seq 1 100); do
    [ -s target/gsqd.port ] && break
    sleep 0.1
done
[ -s target/gsqd.port ] || { kill "$GSQD_PID" 2>/dev/null; echo "FAIL: gsqd never wrote its port file" >&2; exit 1; }
if ! target/release/gsq --connect "$(cat target/gsqd.port)" --ping \
        --program target/ci_daemon.gsql --subscribe perport --epochs 2 \
        --health --unregister perport --shutdown > target/gsqd_session.out; then
    kill "$GSQD_PID" 2>/dev/null
    echo "FAIL: scripted gsq session exited non-zero" >&2
    exit 1
fi
# The daemon must exit cleanly in response to the client's SHUTDOWN.
GSQD_RC=0
for _ in $(seq 1 100); do
    kill -0 "$GSQD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$GSQD_PID" 2>/dev/null; then
    kill -9 "$GSQD_PID"
    echo "FAIL: gsqd still running after SHUTDOWN" >&2
    exit 1
fi
wait "$GSQD_PID" || GSQD_RC=$?
[ "$GSQD_RC" -eq 0 ] || { echo "FAIL: gsqd exited $GSQD_RC" >&2; exit 1; }
# The session must have produced at least one result frame and the
# health report for the registered query.
grep -q '^# perport epoch' target/gsqd_session.out ||
    { echo "FAIL: no result frames in the scripted session" >&2; exit 1; }
grep -q '^health,perport,' target/gsqd_session.out ||
    { echo "FAIL: no health row in the scripted session" >&2; exit 1; }
echo "OK: daemon session clean"

echo "== checkpoint gate: carry-state session == uninterrupted one-shot run =="
# Boot the real daemon in carry-state mode over one continuous 1.2 s
# synthetic trace sliced into six 200 ms epoch chunks (70 Mbps: above
# the 60 Mbps HTTP cap, so background traffic spreads destPorts and the
# aggregate closes one 1-second window mid-session while the second is
# held to the flush tail), with a seeded panic injected into the
# aggregate's HFTA mid-window. The query must
# auto-restart, restore its checkpoint, replay the missed epochs, and
# the session's total output (epochs + post-SHUTDOWN flush tail) must
# be row-for-row identical to a local one-shot gsq run over the same
# continuous trace. Ten empty lead-in epochs give the client time to
# subscribe before the first real packet, so the comparison is total.
rm -f target/gsqd_ckpt.port target/gsqd_ckpt_session.out
cat > target/ci_carry.gsql <<'EOF'
DEFINE { query_name raw; }
Select time, destPort, len From eth0.tcp;
DEFINE { query_name agg; }
Select time, destPort, count(*), sum(len) From raw Group By time, destPort
EOF
target/release/gsqd --listen 127.0.0.1:0 --chunked 70x200x6 --lead-in 10 \
    --seed 7 --carry-state --fault-panic agg@1 --fault-epochs 12..13 \
    --restart-budget 3 --backoff 1 --epoch-gap 50 \
    --program target/ci_carry.gsql --port-file target/gsqd_ckpt.port &
GSQD_PID=$!
for _ in $(seq 1 200); do
    [ -s target/gsqd_ckpt.port ] && break
    sleep 0.05
done
[ -s target/gsqd_ckpt.port ] || { kill "$GSQD_PID" 2>/dev/null; echo "FAIL: carry gsqd never wrote its port file" >&2; exit 1; }
# Real chunks run in epochs 10..15; reading 16 epochs from the first
# subscribed boundary covers them all (empty epochs follow the last
# chunk), and --drain collects the flush tail after SHUTDOWN.
if ! target/release/gsq --connect "$(cat target/gsqd_ckpt.port)" \
        --subscribe agg --epochs 16 --health --shutdown --drain \
        > target/gsqd_ckpt_session.out; then
    kill "$GSQD_PID" 2>/dev/null
    echo "FAIL: carry-state gsq session exited non-zero" >&2
    exit 1
fi
GSQD_RC=0
for _ in $(seq 1 100); do
    kill -0 "$GSQD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$GSQD_PID" 2>/dev/null; then
    kill -9 "$GSQD_PID"
    echo "FAIL: carry gsqd still running after SHUTDOWN" >&2
    exit 1
fi
wait "$GSQD_PID" || GSQD_RC=$?
[ "$GSQD_RC" -eq 0 ] || { echo "FAIL: carry gsqd exited $GSQD_RC" >&2; exit 1; }
# The injected fault must have charged exactly one restart and the
# query must be back to Running when the session polls health.
grep -q '^health,agg,Running,1,' target/gsqd_ckpt_session.out ||
    { echo "FAIL: no restarted-and-running health row in the carry session" >&2; exit 1; }
# Total-output equivalence: the carry session's agg rows must be
# exactly the rows of an uninterrupted local run over the same
# continuous trace (sorted CSV diff = multiset equality).
target/release/gsq --program target/ci_carry.gsql --synthetic 70x1200 \
    --seed 7 --subscribe agg > target/gsqd_ckpt_reference.out
grep '^agg,' target/gsqd_ckpt_session.out | sort > target/gsqd_ckpt_got.csv
grep '^agg,' target/gsqd_ckpt_reference.out | sort > target/gsqd_ckpt_want.csv
# The trace must be rich enough that the diff means something: several
# groups (each row's count/sum covers thousands of packets — an
# undercounted restart window shows up as a changed sum) across at
# least two 1-second time buckets, so a window provably spanned epoch
# boundaries and the second bucket arrived via the shutdown flush tail.
[ "$(wc -l < target/gsqd_ckpt_want.csv)" -ge 4 ] ||
    { echo "FAIL: reference run produced fewer than 4 agg rows" >&2; exit 1; }
[ "$(cut -d, -f2 target/gsqd_ckpt_want.csv | sort -u | wc -l)" -ge 2 ] ||
    { echo "FAIL: reference run covers fewer than 2 time buckets" >&2; exit 1; }
diff -u target/gsqd_ckpt_want.csv target/gsqd_ckpt_got.csv ||
    { echo "FAIL: carry session output diverges from the one-shot run" >&2; exit 1; }
echo "OK: checkpointed session matches the uninterrupted run"

echo "== durable store property/daemon tests =="
# Explicit gate on the PR-10 suites (also covered by the full test run
# above): every injected disk crash point and every on-disk truncation
# prefix recovers to an epoch boundary with exactly-once emission, the
# durable daemon resumes mid-window after a kill, ENOSPC dead-letters
# into health instead of stopping the stream, and the atomic port-file
# write never exposes a torn read.
cargo test -q --offline -p gs-tests \
    --test prop_durable --test daemon_durable --test durable_io

echo "== durable overhead gate (<=10% over in-memory carry) =="
# Times the per-epoch durable commit (segment publish + marker-log
# fsync) against the carry-state epoch it rides on; exits non-zero if
# durability costs more than 10% of the epoch.
GS_BENCH_QUICK=1 cargo run -q --release --offline -p gs-bench --bin gate -- durable

echo "== crash_restart_gate: kill -9 mid-window, resume from --state-dir =="
# Boot the real daemon with a state dir over one continuous 1.2 s trace
# in six 200 ms chunks. A first client reads through the last
# real-traffic epoch — a marker frame is only sent after the epoch's
# durable commit, so the client returning proves everything it printed
# is covered by an on-disk cut — then the daemon is SIGKILLed with the
# trace's second 1-second window still open, held only in the state
# dir. A second daemon on the same state dir must log a recovery,
# resume the epoch numbering (the chunked source is addressed by epoch,
# so no packet is fed twice), and flush the held window tail at
# shutdown. The combined output of both incarnations must be
# row-for-row identical to an uninterrupted one-shot run — the window
# that spans the crash is what makes the diff meaningful.
rm -rf target/ci_state
rm -f target/gsqd_crash.port target/gsqd_crash1.out target/gsqd_crash2.out \
      target/gsqd_crash2.err
cat > target/ci_crash.gsql <<'EOF'
DEFINE { query_name raw; }
Select time, destPort, len From eth0.tcp;
DEFINE { query_name agg; }
Select time, destPort, count(*), sum(len) From raw Group By time, destPort
EOF
target/release/gsqd --listen 127.0.0.1:0 --chunked 70x200x6 --lead-in 10 \
    --seed 11 --carry-state --state-dir target/ci_state --epoch-gap 50 \
    --program target/ci_crash.gsql --port-file target/gsqd_crash.port &
GSQD_PID=$!
for _ in $(seq 1 200); do
    [ -s target/gsqd_crash.port ] && break
    sleep 0.05
done
[ -s target/gsqd_crash.port ] || { kill "$GSQD_PID" 2>/dev/null; echo "FAIL: durable gsqd never wrote its port file" >&2; exit 1; }
# Real chunks run in epochs 10..15; 16 epochs from the first subscribed
# boundary covers them all. No --shutdown: the session just closes.
if ! target/release/gsq --connect "$(cat target/gsqd_crash.port)" \
        --subscribe agg --epochs 16 > target/gsqd_crash1.out; then
    kill -9 "$GSQD_PID" 2>/dev/null
    echo "FAIL: pre-crash gsq session exited non-zero" >&2
    exit 1
fi
kill -9 "$GSQD_PID"
wait "$GSQD_PID" 2>/dev/null || true
rm -f target/gsqd_crash.port
target/release/gsqd --listen 127.0.0.1:0 --chunked 70x200x6 --lead-in 10 \
    --seed 11 --carry-state --state-dir target/ci_state --epoch-gap 50 \
    --program target/ci_crash.gsql --port-file target/gsqd_crash.port \
    2> target/gsqd_crash2.err &
GSQD_PID=$!
for _ in $(seq 1 200); do
    [ -s target/gsqd_crash.port ] && break
    sleep 0.05
done
[ -s target/gsqd_crash.port ] || { kill "$GSQD_PID" 2>/dev/null; echo "FAIL: restarted gsqd never wrote its port file" >&2; exit 1; }
grep -q 'recovered' target/gsqd_crash2.err ||
    { kill -9 "$GSQD_PID" 2>/dev/null; echo "FAIL: restarted gsqd did not report a recovery" >&2; exit 1; }
if ! target/release/gsq --connect "$(cat target/gsqd_crash.port)" \
        --subscribe agg --epochs 1 --shutdown --drain \
        > target/gsqd_crash2.out; then
    kill -9 "$GSQD_PID" 2>/dev/null
    echo "FAIL: post-crash gsq session exited non-zero" >&2
    exit 1
fi
GSQD_RC=0
for _ in $(seq 1 100); do
    kill -0 "$GSQD_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$GSQD_PID" 2>/dev/null; then
    kill -9 "$GSQD_PID"
    echo "FAIL: restarted gsqd still running after SHUTDOWN" >&2
    exit 1
fi
wait "$GSQD_PID" || GSQD_RC=$?
[ "$GSQD_RC" -eq 0 ] || { echo "FAIL: restarted gsqd exited $GSQD_RC" >&2; exit 1; }
# The window tail held across the crash must actually arrive in the
# second incarnation's flush — without it the equivalence below would
# be vacuously about the pre-crash rows only.
grep -q '^agg,' target/gsqd_crash2.out ||
    { echo "FAIL: no flushed rows from the restarted daemon" >&2; exit 1; }
target/release/gsq --program target/ci_crash.gsql --synthetic 70x1200 \
    --seed 11 --subscribe agg > target/gsqd_crash_reference.out
cat target/gsqd_crash1.out target/gsqd_crash2.out |
    grep '^agg,' | sort > target/gsqd_crash_got.csv
grep '^agg,' target/gsqd_crash_reference.out | sort > target/gsqd_crash_want.csv
[ "$(cut -d, -f2 target/gsqd_crash_want.csv | sort -u | wc -l)" -ge 2 ] ||
    { echo "FAIL: reference run covers fewer than 2 time buckets" >&2; exit 1; }
diff -u target/gsqd_crash_want.csv target/gsqd_crash_got.csv ||
    { echo "FAIL: kill -9 + restart output diverges from the one-shot run" >&2; exit 1; }
echo "OK: kill -9 survivor matches the uninterrupted run"

echo "== offline bench compile =="
cargo bench -p gs-bench --no-run --offline

echo "== bench smoke run (quick mode) =="
# One single-iteration sample per benchmark: proves the bench path runs
# end to end (including the target/bench.json report) without spending
# CI time on real measurements. Hermetic — in-repo harness only.
GS_BENCH_QUICK=1 cargo bench -p gs-bench --offline
test -f target/bench.json || { echo "FAIL: bench.json not written" >&2; exit 1; }
# The parallelism sweep must land in the report (par1 baseline and the
# par4 sharded point), and so must the transport and prefilter series.
for key in "manager/threaded_par1" "manager/threaded_par4" \
           "manager/threaded_throughput" "manager/threaded_agg" \
           "prefilter/registration_scaling_q1" \
           "prefilter/registration_scaling_q10" \
           "prefilter/registration_scaling_q100"; do
    grep -q "$key" target/bench.json ||
        { echo "FAIL: $key missing from bench.json" >&2; exit 1; }
done

echo "== offline build of benchmark/ (its own workspace) =="
# benchmark/ compiles against the public API of the crates above but
# sits outside this workspace, so nothing earlier notices API drift
# against it. Build it here — same command and target dir as
# benchmark/run.sh — so drift fails CI, not the benchmark run.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== manifest gate: no registry dependencies =="
# Every dependency declaration in every manifest must be a path dependency
# (or the bare workspace = true inheritance of one). Anything with a
# version requirement or registry source is a hermeticity regression.
fail=0
while IFS= read -r manifest; do
    # Pull the bodies of all *dependencies* tables and keep lines that
    # declare a dependency without `path =` / `workspace = true`.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies(\.[a-zA-Z0-9_-]+)?\]$/) ; next }
        in_deps && NF && $0 !~ /^[[:space:]]*#/ \
                     && $0 !~ /path[[:space:]]*=/ \
                     && $0 !~ /workspace[[:space:]]*=[[:space:]]*true/ { print }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "non-path dependency in $manifest:" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')

# Belt and braces: the resolved metadata must contain only local packages.
if command -v python3 >/dev/null 2>&1; then
    cargo metadata --format-version 1 --offline --all-features 2>/dev/null |
        python3 -c '
import json, sys
meta = json.load(sys.stdin)
remote = [p["name"] for p in meta["packages"] if p["source"] is not None]
if remote:
    print("registry packages in resolved graph: %s" % ", ".join(remote), file=sys.stderr)
    sys.exit(1)
'
fi

if [ "$fail" -ne 0 ]; then
    echo "FAIL: registry dependencies found — keep the workspace hermetic" >&2
    exit 1
fi
echo "OK: hermetic"
