#!/usr/bin/env bash
# Run two full sets on the same build and compare them: for every
# end-to-end metric x workload print both values, the relative gap and
# the bound from BENCHMARK.json, marking `unresolved` where the gap
# exceeds the bound. Exits non-zero if any end-to-end pair disagrees.
# The gaps measured here (and ten-seed spreads, see README.md) are what
# the bounds in BENCHMARK.json are set from.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S] [--quick]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
command -v python3 >/dev/null || { echo "selfcheck.sh needs python3 to compare the sets" >&2; exit 2; }
for set in a b; do
    echo "== set $set" >&2
    "$here/run.sh" "$@" > "$target/selfcheck-$set.log"
    cp "$target/results.json" "$target/selfcheck-$set.json"
done
python3 - "$root/BENCHMARK.json" "$target/selfcheck-a.json" "$target/selfcheck-b.json" <<'PY'
import json, sys
manifest, a, b = (json.load(open(p)) for p in sys.argv[1:4])
bad = 0
print(f"{'workload':14} {'metric':16} {'set a':>16} {'set b':>16} {'gap':>8} {'bound':>7}")
for wa, wb in zip(a["workloads"], b["workloads"]):
    assert wa["name"] == wb["name"]
    if not (wa["correct"] and wb["correct"]):
        print(f"{wa['name']:14} failed its oracle: a {wa['failed_ops']}/{wa['attempted_ops']}, "
              f"b {wb['failed_ops']}/{wb['attempted_ops']}")
        bad += 1
    for m in manifest["end_to_end"]:
        va = wa["end_to_end"][m["name"]]["value"]
        vb = wb["end_to_end"][m["name"]]["value"]
        gap = abs(va - vb) / min(abs(va), abs(vb))
        verdict = "" if gap <= m["bound"] else "  unresolved"
        bad += bool(verdict)
        print(f"{wa['name']:14} {m['name']:16} {va:16.6g} {vb:16.6g} {gap:8.1%} {m['bound']:7.0%}{verdict}")
print("selfcheck:", "OK — every end-to-end pair agrees within its bound" if not bad
      else f"{bad} pair(s) disagree")
sys.exit(1 if bad else 0)
PY
