#!/usr/bin/env bash
# Offline CI gate for the gigascope-rs workspace.
#
# The workspace is hermetic: every dependency is a path dependency inside
# this repository (see DESIGN.md §8). This script is the enforcement point —
# it must pass on a machine with no network access and an empty cargo
# registry cache. Everything `cargo test` can check lives in the test
# suites and runs once, below; the rest of the script is what it cannot:
# perf gates, real-binary daemon sessions, the bench path, the separate
# benchmark/ workspace, and the manifests.

set -euo pipefail
cd "$(dirname "$0")/.."

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

echo "== offline release build =="
cargo build --release --offline

echo "== offline test suite =="
cargo test -q --offline

# Intra-doc links name real items: a link to a deleted or private item
# fails here instead of rotting silently.
echo "== rustdoc, warnings as errors =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Every lint clippy warns about by default, on every target (tests,
# benches and examples included), fails the build.
echo "== clippy, warnings as errors =="
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every perf gate is a row of the table in crates/bench/src/bin/gate.rs:
# interleaved A/B runs of the manager workload, non-zero exit past the
# threshold (one attempt each — a gate that needs a retry is broken).
# `parallel` prints its numbers but skips the comparison on
# hosts with fewer than 4 logical CPUs (the >=1.5x speedup figure is a
# manual measurement on a >=4-core machine).
echo "== perf gates: stats <=5%, par4 vs par1 <=10%, snapshot <=5%, durable <=10% =="
for gate in stats parallel snapshot durable; do
    GS_BENCH_QUICK=1 cargo run -q --release --offline -p gs-bench --bin gate -- "$gate"
done

# boot_gsqd <tag> <gsqd args...>: start the real daemon binary on an
# ephemeral loopback port (stderr to target/gsqd_<tag>.err), wait for it
# to publish the port, and set GSQD_PID / GSQD_ADDR.
boot_gsqd() {
    local tag=$1 port_file=target/gsqd_$1.port
    shift
    rm -f "$port_file"
    target/release/gsqd --listen 127.0.0.1:0 --port-file "$port_file" "$@" \
        2> "target/gsqd_$tag.err" &
    GSQD_PID=$!
    for _ in $(seq 1 200); do
        [ -s "$port_file" ] && break
        sleep 0.05
    done
    [ -s "$port_file" ] ||
        { kill "$GSQD_PID" 2>/dev/null; fail "$tag gsqd never wrote its port file"; }
    GSQD_ADDR=$(cat "$port_file")
}

# gsq_session <out file> <gsq args...>: one scripted client session
# against the booted daemon; a non-zero client exit fails the gate.
gsq_session() {
    local out=$1
    shift
    target/release/gsq --connect "$GSQD_ADDR" "$@" > "$out" ||
        { kill -9 "$GSQD_PID" 2>/dev/null; fail "gsq session writing $out exited non-zero"; }
}

# expect_clean_exit <tag>: the booted daemon must exit 0 on its own, in
# response to the client's SHUTDOWN, leaving no process behind.
expect_clean_exit() {
    local rc=0
    for _ in $(seq 1 100); do
        kill -0 "$GSQD_PID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$GSQD_PID" 2>/dev/null; then
        kill -9 "$GSQD_PID"
        fail "$1 gsqd still running after SHUTDOWN"
    fi
    wait "$GSQD_PID" || rc=$?
    [ "$rc" -eq 0 ] || fail "$1 gsqd exited $rc (see target/gsqd_$1.err)"
}

echo "== daemon gate: scripted gsqd/gsq session on loopback =="
# A full scripted client session against the real daemon (register,
# subscribe, two epochs of result frames, health poll, unregister,
# shutdown, drain) must end with a clean exit on both sides. perport's
# 1-second windows outlast the session's 50 ms epochs, so its rows only
# reach the client as the shutdown flush tail: finding them proves the
# default synthetic source runs carried, windows open across epochs.
cat > target/ci_daemon.gsql <<'EOF'
DEFINE { query_name perport; }
Select time, destPort, count(*) From eth0.tcp Group By time, destPort;
DEFINE { query_name web; }
Select time, len From eth0.tcp Where destPort = 80
EOF
boot_gsqd session --synthetic 40x50 --epoch-gap 0
gsq_session target/gsqd_session.out --ping --program target/ci_daemon.gsql \
    --subscribe perport --epochs 2 --health --unregister web --shutdown --drain
expect_clean_exit session
grep -q '^# perport epoch' target/gsqd_session.out ||
    fail "no result frames in the scripted session"
grep -q '^health,perport,' target/gsqd_session.out ||
    fail "no health row in the scripted session"
grep -q '^perport,' target/gsqd_session.out ||
    fail "no perport rows in the scripted session's flush tail"
echo "OK: daemon session clean"

# The two gates below run one continuous 1.2 s synthetic trace sliced
# into six 200 ms epoch chunks (70 Mbps: above the 60 Mbps HTTP cap, so
# background traffic spreads destPorts and the aggregate closes one
# 1-second window mid-session while the second is held to the flush
# tail). Ten empty lead-in epochs give the client time to subscribe
# before the first real packet; real chunks run in epochs 10..15, so 16
# epochs from the first subscribed boundary cover them all (empty epochs
# follow the last chunk), and --drain collects the flush tail after
# SHUTDOWN. Each gate compares the session's total output, as a sorted
# CSV (= multiset), with a local one-shot gsq run over the same
# continuous trace.
cat > target/ci_carry.gsql <<'EOF'
DEFINE { query_name raw; }
Select time, destPort, len From eth0.tcp;
DEFINE { query_name agg; }
Select time, destPort, count(*), sum(len) From raw Group By time, destPort
EOF

# one_shot_reference <seed> <tag>: writes target/gsqd_<tag>_want.csv.
one_shot_reference() {
    local want=target/gsqd_$2_want.csv
    target/release/gsq --program target/ci_carry.gsql --synthetic 70x1200 \
        --seed "$1" --subscribe agg | grep '^agg,' | sort > "$want"
    # The trace must be rich enough that the diff means something:
    # several groups (each row's count/sum covers thousands of packets —
    # an undercounted restart window shows up as a changed sum) across
    # at least two 1-second time buckets, so a window provably spanned
    # epoch boundaries and the second bucket arrived via the flush tail.
    [ "$(wc -l < "$want")" -ge 4 ] || fail "reference run produced fewer than 4 agg rows"
    [ "$(cut -d, -f2 "$want" | sort -u | wc -l)" -ge 2 ] ||
        fail "reference run covers fewer than 2 time buckets"
}

echo "== checkpoint gate: carried session == uninterrupted one-shot run =="
# A seeded panic injected into the aggregate's HFTA mid-window: the
# query must auto-restart, restore its checkpoint, and replay the missed
# epochs.
boot_gsqd ckpt --chunked 70x200x6 --lead-in 10 --seed 7 \
    --fault-panic agg@1 --fault-epochs 12..13 --restart-budget 3 --backoff 1 \
    --epoch-gap 50 --program target/ci_carry.gsql
gsq_session target/gsqd_ckpt_session.out --subscribe agg --epochs 16 --health \
    --shutdown --drain
expect_clean_exit ckpt
# The injected fault must have charged exactly one restart and the
# query must be back to Running when the session polls health.
grep -q '^health,agg,Running,1,' target/gsqd_ckpt_session.out ||
    fail "no restarted-and-running health row in the checkpointed session"
one_shot_reference 7 ckpt
grep '^agg,' target/gsqd_ckpt_session.out | sort > target/gsqd_ckpt_got.csv
diff -u target/gsqd_ckpt_want.csv target/gsqd_ckpt_got.csv ||
    fail "checkpointed session output diverges from the one-shot run"
echo "OK: checkpointed session matches the uninterrupted run"

echo "== crash_restart_gate: kill -9 mid-window, resume from --state-dir =="
# A first client reads through the last real-traffic epoch — a marker
# frame is only sent after the epoch's durable commit, so the client
# returning proves everything it printed is on disk — in a cut, or as
# markers past one that a restart replays silently —
# then the daemon is SIGKILLed with the trace's second 1-second window
# still open, held only in the state dir. A second daemon on the same
# state dir must log a recovery, resume the epoch numbering (the chunked
# source is addressed by epoch, so no packet is fed twice), and flush
# the held window tail at shutdown. The window that spans the crash is
# what makes the diff of both incarnations' output meaningful.
rm -rf target/ci_state
# log_only <dir>: a state dir holds its log and nothing else — every cut
# is a record in it, and no compaction temp survives a clean exit.
log_only() {
    extra=$(find "$1" -mindepth 1 ! -name emit.log)
    [ -z "$extra" ] || fail "state dir $1 holds more than emit.log: $extra"
}
boot_durable_gsqd() {
    boot_gsqd "$1" --chunked 70x200x6 --lead-in 10 --seed 11 \
        --state-dir target/ci_state --epoch-gap 50 --program target/ci_carry.gsql
}
boot_durable_gsqd crash1
# No --shutdown: the session just closes.
gsq_session target/gsqd_crash1.out --subscribe agg --epochs 16
kill -9 "$GSQD_PID"
wait "$GSQD_PID" 2>/dev/null || true
boot_durable_gsqd crash2
grep -q 'recovered' target/gsqd_crash2.err ||
    { kill -9 "$GSQD_PID" 2>/dev/null; fail "restarted gsqd did not report a recovery"; }
gsq_session target/gsqd_crash2.out --subscribe agg --epochs 1 --shutdown --drain
expect_clean_exit crash2
log_only target/ci_state
# The window tail held across the crash must actually arrive in the
# second incarnation's flush — without it the equivalence below would
# be vacuously about the pre-crash rows only.
grep -q '^agg,' target/gsqd_crash2.out || fail "no flushed rows from the restarted daemon"
one_shot_reference 11 crash
cat target/gsqd_crash1.out target/gsqd_crash2.out |
    grep '^agg,' | sort > target/gsqd_crash_got.csv
diff -u target/gsqd_crash_want.csv target/gsqd_crash_got.csv ||
    fail "kill -9 + restart output diverges from the one-shot run"
echo "OK: kill -9 survivor matches the uninterrupted run"

echo "== crash_restart_gate, lagging cut: kill -9 between cuts, resume by silent replay =="
# The same gate with the daemon's cut cadence in play: a boundary seals
# and publishes a cut only once the traffic since the last one outweighs
# the state it holds, so the kill must land while the durable cut lags
# the committed markers and the restart must rebuild the windows by
# replaying the confirmed epochs silently. ci_carry.gsql's aggregate
# holds two groups (ports 80 and 8080) — no chunking makes that outlast
# an epoch — so this run keeps it and adds one query over the same
# stream grouped by source (~1,400 groups a second), over the same trace
# sliced into 5 ms chunks of ~80 packets. The client reads ten epochs
# past the end of the trace, where the held second-1 window outweighs
# many idle boundaries; counters from the live daemon prove the premise
# (fewer cuts than epochs before the kill) and the outcome (replayed
# epochs after the restart) rather than assume them.
cat > target/ci_lag.gsql <<'EOF'
DEFINE { query_name raw; }
Select time, srcIP, destPort, len From eth0.tcp;
DEFINE { query_name agg; }
Select time, destPort, count(*), sum(len) From raw Group By time, destPort;
DEFINE { query_name src; }
Select time, srcIP, count(*) From raw Group By time, srcIP
EOF
rm -rf target/ci_state_lag
boot_lagging_gsqd() {
    boot_gsqd "$1" --chunked 70x5x240 --lead-in 10 --seed 13 \
        --state-dir target/ci_state_lag --epoch-gap 20 --program target/ci_lag.gsql
}
# stat_of <file> <node> <counter>: a counter from a `gsq --stats` transcript.
stat_of() { awk -F, -v n="$2" -v c="$3" '$1 == "stat" && $2 == n && $3 == c { print $4 }' "$1"; }
boot_lagging_gsqd lag1
gsq_session target/gsqd_lag1.out --subscribe agg,src --epochs 260 --stats \
    2> target/gsqd_lag1.stats
kill -9 "$GSQD_PID"
wait "$GSQD_PID" 2>/dev/null || true
cuts=$(stat_of target/gsqd_lag1.stats daemon cuts)
epochs=$(stat_of target/gsqd_lag1.stats daemon epochs)
[ -n "$cuts" ] && [ -n "$epochs" ] && [ "$cuts" -lt "$epochs" ] ||
    fail "lagging gate: expected fewer cuts than epochs before the kill (cuts=$cuts epochs=$epochs)"
boot_lagging_gsqd lag2
grep -q 'recovered' target/gsqd_lag2.err ||
    { kill -9 "$GSQD_PID" 2>/dev/null; fail "restarted gsqd did not report a recovery"; }
gsq_session target/gsqd_lag2.out --subscribe agg,src --epochs 1 --stats \
    --shutdown --drain 2> target/gsqd_lag2.stats
expect_clean_exit lag2
log_only target/ci_state_lag
replayed=$(stat_of target/gsqd_lag2.stats daemon replayed_epochs)
[ -n "$replayed" ] && [ "$replayed" -gt 0 ] ||
    fail "lagging gate: the restart replayed no epochs (replayed_epochs=$replayed)"
target/release/gsq --program target/ci_lag.gsql --synthetic 70x1200 --seed 13 \
    --subscribe agg,src | grep -E '^(agg|src),' | sort > target/gsqd_lag_want.csv
cat target/gsqd_lag1.out target/gsqd_lag2.out | grep -E '^(agg|src),' | sort \
    > target/gsqd_lag_got.csv
diff -u target/gsqd_lag_want.csv target/gsqd_lag_got.csv ||
    fail "kill -9 between cuts + restart output diverges from the one-shot run"
echo "OK: lagging-cut survivor matches the uninterrupted run ($cuts cuts in $epochs epochs," \
    "$replayed epochs replayed silently)"

echo "== checkpoint gate, stateful upstream: a fault behind a windowed aggregate =="
# ci_carry.gsql plus a query over agg's closed windows. busy panics in
# epoch 15, where agg closes its first 1-second window (real chunk 5 is
# the first of second 1), and sits out epoch 16, a cut. The cut rule
# holds agg and raw at busy's cut, so reprovisioning replays the whole
# chain from one consistent cut and busy receives the window rows it
# missed; replayed over an agg rebuilt from empty state, it would not.
cat target/ci_carry.gsql - > target/ci_chain.gsql <<'EOF'
;
DEFINE { query_name busy; }
Select time, destPort, count From agg
EOF
boot_gsqd chain --chunked 70x200x6 --lead-in 10 --seed 17 \
    --fault-panic busy@1 --fault-epochs 15..16 --restart-budget 3 --backoff 1 \
    --epoch-gap 50 --program target/ci_chain.gsql
gsq_session target/gsqd_chain.out --subscribe agg,busy --epochs 16 --health \
    --shutdown --drain
expect_clean_exit chain
grep -q '^health,busy,Running,1,' target/gsqd_chain.out ||
    fail "no restarted-and-running busy health row in the stateful-upstream session"
target/release/gsq --program target/ci_chain.gsql --synthetic 70x1200 --seed 17 \
    --subscribe agg,busy | grep -E '^(agg|busy),' | sort > target/gsqd_chain_want.csv
grep -q '^busy,0,' target/gsqd_chain_want.csv || fail "reference run closed no busy window"
grep -E '^(agg|busy),' target/gsqd_chain.out | sort > target/gsqd_chain_got.csv
diff -u target/gsqd_chain_want.csv target/gsqd_chain_got.csv ||
    fail "stateful-upstream session output diverges from the one-shot run"
echo "OK: a fault behind a stateful upstream replays the chain exactly"

echo "== offline bench compile =="
cargo bench -p gs-bench --no-run --offline

echo "== bench smoke run (quick mode) =="
# One single-iteration sample per benchmark: proves the bench path runs
# end to end (including the target/bench.json report) without spending
# CI time on real measurements. Hermetic — in-repo harness only.
GS_BENCH_QUICK=1 cargo bench -p gs-bench --offline
test -f target/bench.json || fail "bench.json not written"
# The parallelism sweep must land in the report (par1 baseline and the
# par4 sharded point), and so must the transport, prefilter and
# merge/join-root series.
for key in "manager/threaded_par1" "manager/threaded_par4" \
           "manager/threaded_throughput" "manager/threaded_agg" \
           "prefilter/registration_scaling_q1" \
           "prefilter/registration_scaling_q10" \
           "prefilter/registration_scaling_q100" \
           "prefilter/dispatch_port80" \
           "multiway/merge_push" "multiway/hash_join_push"; do
    grep -q "$key" target/bench.json || fail "$key missing from bench.json"
done

echo "== offline build of benchmark/ (its own workspace) =="
# benchmark/ compiles against the public API of the crates above but
# sits outside this workspace, so nothing earlier notices API drift
# against it. Build it here — same command and target dir as
# benchmark/run.sh — so drift fails CI, not the benchmark run.
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== benchmark/ unit tests =="
# The workspace test suite above does not reach benchmark/'s own tests
# (manifest, span, trace and util parsing).
cargo test --offline -q --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "== benchmark oracle (quick mode): every workload's session == run_capture =="
# Every benchmark session is checked against the synchronous engine over
# the same trace, and the driver exits non-zero on a wrong session, a
# failed operation or a daemon run error. That verdict is all CI takes
# from it: quick-mode numbers (0.6 s per workload) are not comparable
# with anything and are thrown away.
benchmark/run.sh --quick > /dev/null ||
    fail "benchmark/run.sh --quick: a workload failed its oracle (or could not run)"
echo "OK: benchmark sessions match the oracle"

echo "== manifest gate: no registry dependencies =="
# Every dependency declaration in every manifest must be a path dependency
# (or the bare workspace = true inheritance of one). Anything with a
# version requirement or registry source is a hermeticity regression.
remote=0
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
        remote=1
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

[ "$remote" -eq 0 ] || fail "registry dependencies found — keep the workspace hermetic"
echo "OK: hermetic"
