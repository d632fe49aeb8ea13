#!/usr/bin/env bash
#===- tools/ci.sh - Sanitized build + tests + fuzz + pipeline smoke -------===#
#
# Part of the depflow project: a reproduction of "Dependence-Based Program
# Analysis" (Johnson & Pingali, PLDI 1993).
#
# Builds with AddressSanitizer + UBSan, runs the full test suite (with
# pipeline_golden, so depflow-opt's output and counters must equal the
# recorded fixtures in the sanitized build too), a 500-iteration
# differential fuzz smoke over every pass, a pipeline smoke
# that drives the instrumented pass manager over the checked-in example
# programs, a module smoke that checks -j 8 output against -j 1 on a
# fuzz-generated module, an observability smoke (--trace-json /
# --stats-json documents must validate), a scheduler/event-log smoke
# (--sched-report prints, --log-json journals the task lifecycle of the
# pipeline and of an SDG build with no duplicate keys — including a
# task-failed line on a fault-injected --keep-going run —
# and trace_analyze.py's offline invariant check passes), a quick-mode
# run of the two pipeline benchmarks plus the counter sweep of every
# baselined benchmark, with BENCH_*.json schema validation and an exact
# counter comparison against bench/baselines, and the docs consistency
# checks. Any verifier violation, oracle mismatch, sanitizer
# report, or test failure fails CI.
#
# This script is the single source of truth for "what CI runs": the
# GitHub workflow's sanitizer job invokes it unmodified, so a green local
# run means a green CI sanitizer job.
#
# Usage: tools/ci.sh [build-dir]   (default: build-ci)
#
#===----------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-ci}"
FUZZ_SEED="${DEPFLOW_FUZZ_SEED:-20260806}"

cmake -B "$BUILD" -S "$ROOT" -DDEPFLOW_SANITIZE="address;undefined"
cmake --build "$BUILD" -j "$(nproc)"

# --no-tests=error: a configuration bug that registers zero tests must not
# pass as a vacuous success.
(cd "$BUILD" && ctest --output-on-failure --no-tests=error -j "$(nproc)")

# Differential fuzz smoke. The seed is printed up front (and again on
# failure) so a red run is reproducible from the log alone.
echo "ci: fuzz seed $FUZZ_SEED"
if ! "$BUILD/tools/depflow-fuzz" --iters 500 --seed "$FUZZ_SEED" -v; then
  echo "ci: FUZZ FAILED -- reproduce with: depflow-fuzz --iters 500 --seed $FUZZ_SEED -v" >&2
  exit 1
fi

# Slicing smoke: 200 generated call-DAG modules through the slice
# differential oracle — every executable backward slice must reproduce the
# interpreter's watch trace at the criterion — under the sanitizers.
if ! "$BUILD/tools/depflow-fuzz" --slice-oracle --iters 200 --seed "$FUZZ_SEED"; then
  echo "ci: SLICE ORACLE FAILED -- reproduce with: depflow-fuzz --slice-oracle --iters 200 --seed $FUZZ_SEED" >&2
  exit 1
fi

# Pipeline smoke: the managed pass pipeline, with instrumentation on, over
# every example program (exercises --time-passes / --print-stats output and
# the analysis cache under ASan), through the default pipeline and both
# benchmark pipelines, so --verify-each checks the DFG and the forward
# clients' results under the sanitizers.
for EX in "$ROOT"/examples/ir/*.df; do
  for PIPE in separate,constprop,pre \
              separate,constprop,pre,range,taint,nulluse \
              separate,constprop,pre,ssa-dfg; do
    "$BUILD/tools/depflow-opt" --passes="$PIPE" --verify-each \
        --time-passes --print-stats "$EX" >/dev/null
  done
done

# Module smoke: a fuzz-generated 60-function module must optimize to
# byte-identical output at -j 8 and -j 1 (the parallel driver's core
# contract), under the sanitizers, through the default pipeline, the
# bigfn-opt benchmark pipeline and busy code motion.
MODDIR="$(mktemp -d)"
trap 'rm -rf "$MODDIR"' EXIT
"$BUILD/tools/depflow-fuzz" --emit-module 60 --seed "$FUZZ_SEED" \
    > "$MODDIR/module.df"
for PIPE in separate,constprop,pre separate,constprop,pre,ssa-dfg \
            separate,pre-busy; do
  "$BUILD/tools/depflow-opt" --passes="$PIPE" -j 1 \
      "$MODDIR/module.df" 2>/dev/null > "$MODDIR/j1.df"
  "$BUILD/tools/depflow-opt" --passes="$PIPE" -j 8 \
      "$MODDIR/module.df" 2>/dev/null > "$MODDIR/j8.df"
  if ! cmp -s "$MODDIR/j1.df" "$MODDIR/j8.df"; then
    echo "ci: MODULE MISMATCH -- --passes=$PIPE -j 8 output differs from -j 1 (seed $FUZZ_SEED)" >&2
    diff "$MODDIR/j1.df" "$MODDIR/j8.df" | head -40 >&2 || true
    exit 1
  fi
done

# Observability smoke: --trace-json / --stats-json on a parallel run must
# produce documents that parse and agree with each other (the full 5%
# agreement contract is a ctest; here we assert the files are well-formed
# JSON with the expected schemas, under the sanitizers).
"$BUILD/tools/depflow-opt" --passes=separate,constprop,pre -j 8 \
    --trace-json "$MODDIR/trace.json" --stats-json "$MODDIR/stats.json" \
    "$MODDIR/module.df" >/dev/null
python3 - "$MODDIR" <<'PY'
import json, sys
d = sys.argv[1]
trace = json.load(open(d + "/trace.json"))
assert trace["displayTimeUnit"] == "ms" and trace["traceEvents"]
stats = json.load(open(d + "/stats.json"))
assert stats["schema"] == "depflow-stats" and stats["schema_version"] >= 1
assert stats["passes"], stats
print("ci: trace/stats JSON ok "
      f"({len(trace['traceEvents'])} events, {len(stats['passes'])} passes)")
PY

# Scheduler/event-log smoke: --sched-report must print the derived
# report, --log-json must leave a well-formed journal carrying the task
# lifecycle in timestamp order with no duplicate keys — for the pipeline
# and for an SDG build (--slice) — and the recorded trace must pass
# trace_analyze.py's offline invariant check — all under the sanitizers.
"$BUILD/tools/depflow-opt" --passes=separate,constprop,pre -j 8 \
    --sched-report --log-json "$MODDIR/journal.jsonl" \
    --trace-json "$MODDIR/sched-trace.json" \
    "$MODDIR/module.df" >/dev/null 2> "$MODDIR/sched-report.txt"
grep -q 'scheduler report' "$MODDIR/sched-report.txt"
grep -q 'critical-path' "$MODDIR/sched-report.txt"
python3 "$ROOT/tools/trace_analyze.py" "$MODDIR/sched-trace.json" --check \
    > /dev/null
printf 'func main() {\ne:\n  a = read()\n  s = call add1(a)\n  t = call twice(s)\n  u = t + 1\n  ret u\n}\nfunc add1(p) {\ne:\n  q = p + 1\n  ret q\n}\nfunc twice(p) {\ne:\n  r = call add1(p)\n  q = call add1(r)\n  ret q\n}\n' \
    > "$MODDIR/calls.df"
"$BUILD/tools/depflow-opt" --slice main:7 -j 8 \
    --log-json "$MODDIR/sdg-journal.jsonl" "$MODDIR/calls.df" >/dev/null
python3 - "$MODDIR/journal.jsonl" "$MODDIR/sdg-journal.jsonl" <<'PY'
import json, sys

def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dup = sorted({k for k in keys if keys.count(k) > 1})
    assert not dup, f"duplicate key(s) {dup} in a journal line"
    return dict(pairs)

for path, run in zip(sys.argv[1:], ["module-pipeline", "sdg-build"]):
    lines = [json.loads(l, object_pairs_hook=unique_keys) for l in open(path)]
    assert lines, "empty journal"
    end = lines[-1]
    assert (end["cat"], end["event"]) == ("log", "journal-end"), end
    assert end["events"] == len(lines) - 1 and end["dropped"] == 0, end
    events = {(e["cat"], e["event"]) for e in lines[:-1]}
    for needed in [("sched", "run-start"), ("sched", "task-start"),
                   ("sched", "run-end")]:
        assert needed in events, (needed, sorted(events))
    for e in lines[:-1]:
        assert e["level"] in ("debug", "info", "warn", "error"), e
    assert any(e.get("run") == run for e in lines[:-1]), (path, run)
    ts = [e["ts_us"] for e in lines[:-1]]
    assert ts == sorted(ts), "journal lines out of timestamp order"
    print(f"ci: {run} event journal ok ({len(lines) - 1} events)")
PY

# A fault-injected --keep-going run must journal its failures: at least
# one warn-level task-failed line carrying a real TaskFailureKind (the
# per-fault-point exactness contract is the fault sweep's job).
RC=0
"$BUILD/tools/depflow-opt" --passes=separate,constprop,pre --keep-going \
    --fault-inject=pass-fail:constprop --log-json "$MODDIR/fail.jsonl" \
    "$MODDIR/module.df" >/dev/null 2>&1 || RC=$?
if [ "$RC" -ne 4 ]; then
  echo "ci: sched smoke fault run exited $RC, expected 4 (degraded)" >&2
  exit 1
fi
python3 - "$MODDIR/fail.jsonl" <<'PY'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
failed = [e for e in lines if e.get("event") == "task-failed"]
assert failed, "no task-failed event in the journal of a degraded run"
kinds = {"pass-error", "fault-injected", "deadline-exceeded",
         "memory-budget", "out-of-memory"}
for e in failed:
    assert e["level"] == "warn" and e["kind"] in kinds, e
print(f"ci: degraded-run journal ok ({len(failed)} task-failed)")
PY
echo "ci: scheduler/event-log smoke ok"

# Counters smoke: --counters-json (standalone document) and the fuzzer's
# --stats-json must emit valid documents whose counter entries carry the
# expected kinds, under the sanitizers.
"$BUILD/tools/depflow-opt" --passes=separate,constprop,pre -j 8 \
    --counters-json "$MODDIR/counters.json" "$MODDIR/module.df" >/dev/null
"$BUILD/tools/depflow-fuzz" --iters 20 --seed "$FUZZ_SEED" \
    --stats-json "$MODDIR/fuzz-stats.json"
python3 - "$MODDIR" <<'PY'
import json, sys
d = sys.argv[1]
counters = json.load(open(d + "/counters.json"))
assert counters["schema"] == "depflow-counters"
assert counters["schema_version"] >= 1
kinds = {e["kind"] for e in counters["counters"]}
assert kinds <= {"counter", "max", "histogram"}, kinds
for e in counters["counters"]:
    if e["kind"] == "histogram":
        assert len(e["buckets"]) == 16 and e["count"] >= 0
fuzz = json.load(open(d + "/fuzz-stats.json"))
assert fuzz["schema"] == "depflow-stats" and fuzz["tool"] == "depflow-fuzz"
assert fuzz["counters"]["entries"], "fuzz run moved no counters"
print(f"ci: counters JSON ok ({len(counters['counters'])} entries)")
PY

# Fault-injection smoke: every registered fault point through the CLI,
# each under --keep-going, must come back as a degraded run (exit 4) with
# the original text preserved — under the sanitizers, so an injected
# failure that leaks or double-frees on the unwind path fails here.
for CASE in "--fault-inject=alloc-fail@200" \
            "--fault-inject=pass-fail:constprop" \
            "--fault-inject=analysis-fail:dfg" \
            "--fault-inject=slow-pass:60 --max-pass-millis 10" \
            "--max-task-bytes 20000"; do
  RC=0
  # shellcheck disable=SC2086  # $CASE is intentionally word-split.
  "$BUILD/tools/depflow-opt" --passes=separate,constprop,pre --keep-going \
      $CASE "$MODDIR/module.df" > "$MODDIR/degraded.df" 2>/dev/null || RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "ci: FAULT SMOKE '$CASE' exited $RC, expected 4 (degraded)" >&2
    exit 1
  fi
done
# parse-truncate degrades before the pipeline: a cut-in-half module is an
# input rejection (exit 1), never a crash.
RC=0
"$BUILD/tools/depflow-opt" --passes=constprop --fault-inject=parse-truncate \
    "$MODDIR/module.df" >/dev/null 2>&1 || RC=$?
if [ "$RC" -ne 1 ]; then
  echo "ci: FAULT SMOKE parse-truncate exited $RC, expected 1" >&2
  exit 1
fi
echo "ci: fault-injection smoke ok"

# Fault sweep: generated modules re-run once per fault point, asserting no
# crash, no stale point, restoration, and clean-function byte-identity.
if ! "$BUILD/tools/depflow-fuzz" --fault-sweep --iters 5 --seed "$FUZZ_SEED"; then
  echo "ci: FAULT SWEEP FAILED -- reproduce with: depflow-fuzz --fault-sweep --iters 5 --seed $FUZZ_SEED" >&2
  exit 1
fi
# ...and the sweep must itself catch a fault point that never fires (ssa
# is not in the sweep pipeline), or stale points could rot undetected.
if "$BUILD/tools/depflow-fuzz" --fault-sweep --iters 1 --seed "$FUZZ_SEED" \
    --fault-sweep-extra pass-fail:ssa >/dev/null 2>&1; then
  echo "ci: FAULT SWEEP FAILED TO CATCH a stale fault point" >&2
  exit 1
fi
echo "ci: fault sweep ok"

# Perf-gate self-check: the baselines must match themselves, and a
# tampered counter must be caught with a nonzero exit (so the CI gate
# can't silently rot into a rubber stamp).
mkdir -p "$MODDIR/bench-tampered"
cp "$ROOT"/bench/baselines/BENCH_*.json "$MODDIR/bench-tampered/"
python3 "$ROOT/tools/bench_compare.py" "$ROOT/bench/baselines" \
    "$ROOT/bench/baselines" --no-time
python3 - "$MODDIR/bench-tampered" <<'PY'
import json, sys, glob
path = sorted(glob.glob(sys.argv[1] + "/BENCH_*.json"))[0]
doc = json.load(open(path))
for entry in doc["entries"]:
    for name in entry["metrics"]:
        if name.startswith("ctr_"):
            entry["metrics"][name] *= 2
json.dump(doc, open(path, "w"))
PY
if python3 "$ROOT/tools/bench_compare.py" "$ROOT/bench/baselines" \
    "$MODDIR/bench-tampered" --no-time >/dev/null; then
  echo "ci: BENCH COMPARE FAILED TO CATCH a tampered counter" >&2
  exit 1
fi
echo "ci: bench_compare self-check ok"

# Same check aimed at the allocation counters specifically: the arena
# work is graded by ctr_alloc_bytes/ctr_alloc_count, so a doctored
# allocation figure in the DFG-construction baseline must trip the gate
# exactly like any other counter.
mkdir -p "$MODDIR/bench-alloc-tampered"
cp "$ROOT"/bench/baselines/BENCH_*.json "$MODDIR/bench-alloc-tampered/"
python3 - "$MODDIR/bench-alloc-tampered/BENCH_dfg_construction.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
tampered = 0
for entry in doc["entries"]:
    if "ctr_alloc_bytes" in entry["metrics"]:
        entry["metrics"]["ctr_alloc_bytes"] //= 2
        tampered += 1
assert tampered, "no alloc counters found to tamper with"
json.dump(doc, open(sys.argv[1], "w"))
PY
if python3 "$ROOT/tools/bench_compare.py" "$ROOT/bench/baselines" \
    "$MODDIR/bench-alloc-tampered" --no-time >/dev/null; then
  echo "ci: BENCH COMPARE FAILED TO CATCH a tampered alloc counter" >&2
  exit 1
fi
echo "ci: alloc-counter self-check ok"

# Same check aimed at the sparse-client baseline specifically: its claims
# (one linearity fit per engine client) must also be tamper-evident, not
# just its counters.
mkdir -p "$MODDIR/bench-sparse-tampered"
cp "$ROOT"/bench/baselines/BENCH_*.json "$MODDIR/bench-sparse-tampered/"
python3 - "$MODDIR/bench-sparse-tampered/BENCH_sparse_clients.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for claim in doc["claims"]:
    claim["pass"] = False
json.dump(doc, open(sys.argv[1], "w"))
PY
if python3 "$ROOT/tools/bench_compare.py" "$ROOT/bench/baselines" \
    "$MODDIR/bench-sparse-tampered" --no-time >/dev/null; then
  echo "ci: BENCH COMPARE FAILED TO CATCH a failed sparse-client claim" >&2
  exit 1
fi
echo "ci: sparse-client claim self-check ok"

# bench_compare hardening: a missing baseline directory, a malformed JSON
# file, and a document without schema_version must each produce a one-line
# diagnostic and a nonzero exit — never a Python traceback.
check_graceful() {
  local label="$1"; shift
  local out rc=0
  out="$(python3 "$ROOT/tools/bench_compare.py" "$@" --no-time 2>&1)" || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "ci: BENCH COMPARE accepted $label" >&2
    exit 1
  fi
  if printf '%s\n' "$out" | grep -q "Traceback"; then
    echo "ci: BENCH COMPARE crashed with a traceback on $label:" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
}
check_graceful "a missing baseline directory" \
    "$MODDIR/no-such-dir" "$ROOT/bench/baselines"
mkdir -p "$MODDIR/bench-broken"
cp "$ROOT"/bench/baselines/BENCH_*.json "$MODDIR/bench-broken/"
printf '{ not json' > "$(ls "$MODDIR"/bench-broken/BENCH_*.json | head -1)"
check_graceful "malformed JSON" "$ROOT/bench/baselines" "$MODDIR/bench-broken"
mkdir -p "$MODDIR/bench-unversioned"
cp "$ROOT"/bench/baselines/BENCH_*.json "$MODDIR/bench-unversioned/"
python3 - "$MODDIR/bench-unversioned" <<'PY'
import json, sys, glob
path = sorted(glob.glob(sys.argv[1] + "/BENCH_*.json"))[0]
doc = json.load(open(path))
del doc["schema_version"]
json.dump(doc, open(path, "w"))
PY
check_graceful "a document without schema_version" \
    "$ROOT/bench/baselines" "$MODDIR/bench-unversioned"
echo "ci: bench_compare hardening self-checks ok"

# Bench smoke (quick mode): the benchmarks must run to completion,
# bench_parallel's built-in serial/parallel equality check must hold, and
# the emitted BENCH_*.json baselines must validate against the
# depflow-bench schema.
mkdir -p "$MODDIR/bench"
DEPFLOW_BENCH_JSON="$MODDIR/bench" "$BUILD/bench/bench_pipeline" 6
DEPFLOW_BENCH_JSON="$MODDIR/bench" DEPFLOW_BENCH_QUICK=1 \
    "$BUILD/bench/bench_parallel"
python3 "$ROOT/tools/bench_report.py" "$MODDIR/bench" --check
# The exact counter gate (every baselined benchmark's deterministic
# counter sweep against bench/baselines) is the ctest bench_counter_gate,
# which the ctest run above already passed.

# Docs: links resolve and docs/TOOLS.md agrees with depflow-opt --help and
# with its pass names.
python3 "$ROOT/tools/check_docs.py" --depflow-opt "$BUILD/tools/depflow-opt"

echo "ci: all green"
