#!/usr/bin/env python3
"""Offline scheduler analysis over depflow Chrome trace JSON.

Consumes the --trace-json document written by depflow-opt and recomputes
the scheduler report from the recorded task spans alone: per parallel run,
the wall time, total work, critical path through the task DAG, achievable
vs measured speedup, per-worker busy time and utilization, plus the two
latency histograms the in-process report does not carry (queueing delay
between a task becoming ready and starting, and per-worker gaps between
consecutive tasks).

Task spans are the ph == "X" events with cat == "task". Each carries the
scheduling facts as string args: "run" (the parallel run the task belongs
to; spans are grouped into runs by it), "level" (the barrier level the
task ran in; the runs are level-structured, so the critical path is the
sum over levels of the longest task), "worker" (the executing worker
index), and "enqueue_us" (when the task became ready — its level's begin
time).

Stdlib only — no third-party imports. Exit codes: 0 success, 1 a --check
invariant failed or the trace has no task spans, 2 usage error (argparse).
"""

import argparse
import json
import math
import sys

# Power-of-two microsecond buckets, the same shape as the
# support/Statistic.h histograms: bucket i counts values in [2^i, 2^(i+1))
# with bucket 0 taking everything below 1us.
NUM_BUCKETS = 20


def bucket_of(us):
    if us < 1.0:
        return 0
    return min(NUM_BUCKETS - 1, int(math.floor(math.log2(us))) + 1)


def bucket_label(i):
    if i == 0:
        return "<1us"
    lo, hi = 1 << (i - 1), 1 << i
    return "%d-%dus" % (lo, hi)


def load_tasks(path):
    """Returns the cat=="task" spans grouped into runs: {run: [task...]}
    with each task a dict of name/level/worker/start/end/dur/enqueue."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    runs = {}
    for e in events:
        if e.get("ph") != "X" or e.get("cat") != "task":
            continue
        args = e.get("args", {})
        start = float(e["ts"])
        dur = max(0.0, float(e.get("dur", 0.0)))
        runs.setdefault(args.get("run", "unknown"), []).append({
            "name": e.get("name", ""),
            "level": int(args.get("level", "0")),
            "worker": int(args.get("worker", "0")),
            "start": start,
            "end": start + dur,
            "dur": dur,
            "enqueue": float(args.get("enqueue_us", start)),
        })
    return runs


def analyze_run(name, tasks):
    """The same derivation as obs/Sched.cpp analyzeSchedRun, plus the two
    offline-only histograms."""
    begin = min(min(t["start"], t["enqueue"]) for t in tasks)
    end = max(t["end"] for t in tasks)
    wall = end - begin
    work = sum(t["dur"] for t in tasks)

    # Critical path: the runs are level-structured (a barrier separates
    # levels), so the longest dependency chain is exactly one slowest task
    # per level.
    level_max = {}
    for t in tasks:
        level_max[t["level"]] = max(level_max.get(t["level"], 0.0), t["dur"])
    critical_path = sum(level_max.values())

    workers = {}
    for t in tasks:
        w = workers.setdefault(t["worker"], {"busy_us": 0.0, "tasks": 0})
        w["busy_us"] += t["dur"]
        w["tasks"] += 1
    for w in workers.values():
        w["utilization"] = (w["busy_us"] / wall) if wall > 0 else 0.0

    queue_hist = [0] * NUM_BUCKETS
    for t in tasks:
        queue_hist[bucket_of(max(0.0, t["start"] - t["enqueue"]))] += 1

    gap_hist = [0] * NUM_BUCKETS
    by_worker = {}
    for t in tasks:
        by_worker.setdefault(t["worker"], []).append(t)
    for spans in by_worker.values():
        spans.sort(key=lambda t: t["start"])
        for a, b in zip(spans, spans[1:]):
            gap_hist[bucket_of(max(0.0, b["start"] - a["end"]))] += 1

    return {
        "name": name,
        "tasks": len(tasks),
        "levels": len(level_max),
        "workers_used": len(workers),
        "wall_us": wall,
        "work_us": work,
        "critical_path_us": critical_path,
        "measured_speedup": (work / wall) if wall > 0 else 1.0,
        "achievable_speedup": (work / critical_path) if critical_path > 0
        else 1.0,
        "workers": [dict(worker=k, **workers[k]) for k in sorted(workers)],
        "queue_delay_hist": queue_hist,
        "gap_hist": gap_hist,
    }


def check_invariants(rep):
    """The scheduler-report invariants; returns a list of violations.

    A measured wall shorter than the critical path, a worker busier than
    the run is long, or a measured speedup above the achievable bound all
    mean the trace (or this tool) is lying about the schedule. The epsilon
    absorbs double rounding in the trace writer, nothing more.
    """
    eps = 1e-6
    bad = []
    if rep["wall_us"] + eps < rep["critical_path_us"]:
        bad.append("%s: wall %.3fus < critical path %.3fus" %
                   (rep["name"], rep["wall_us"], rep["critical_path_us"]))
    for w in rep["workers"]:
        if w["utilization"] > 1.0 + eps:
            bad.append("%s: worker %d utilization %.4f > 1" %
                       (rep["name"], w["worker"], w["utilization"]))
    if rep["measured_speedup"] > rep["achievable_speedup"] + eps:
        bad.append("%s: measured speedup %.2fx above achievable %.2fx" %
                   (rep["name"], rep["measured_speedup"],
                    rep["achievable_speedup"]))
    return bad


def hist_rows(hist):
    return [(bucket_label(i), n) for i, n in enumerate(hist) if n]


def render_text(reports):
    out = ["=== scheduler report (from trace) ==="]
    for r in reports:
        out.append("run %s: tasks=%d levels=%d workers=%d" %
                   (r["name"], r["tasks"], r["levels"], r["workers_used"]))
        out.append("  wall %.3f ms  work %.3f ms  critical-path %.3f ms" %
                   (r["wall_us"] / 1e3, r["work_us"] / 1e3,
                    r["critical_path_us"] / 1e3))
        out.append("  speedup: measured %.2fx  achievable %.2fx" %
                   (r["measured_speedup"], r["achievable_speedup"]))
        for w in r["workers"]:
            out.append("  worker %d: busy %.3f ms (%.1f%% utilization), "
                       "%d task(s)" %
                       (w["worker"], w["busy_us"] / 1e3,
                        100.0 * w["utilization"], w["tasks"]))
        for title, hist in (("queue delay", r["queue_delay_hist"]),
                            ("worker gap", r["gap_hist"])):
            rows = hist_rows(hist)
            if rows:
                out.append("  %s: %s" % (title, "  ".join(
                    "%s:%d" % (label, n) for label, n in rows)))
    return "\n".join(out) + "\n"


def render_markdown(reports):
    out = ["# Scheduler report", ""]
    out.append("| run | tasks | levels | wall (ms) | work (ms) | "
               "critical path (ms) | measured | achievable |")
    out.append("|---|---|---|---|---|---|---|---|")
    for r in reports:
        out.append("| %s | %d | %d | %.3f | %.3f | %.3f | %.2fx | %.2fx |" %
                   (r["name"], r["tasks"], r["levels"], r["wall_us"] / 1e3,
                    r["work_us"] / 1e3, r["critical_path_us"] / 1e3,
                    r["measured_speedup"], r["achievable_speedup"]))
    for r in reports:
        out += ["", "## %s workers" % r["name"], "",
                "| worker | busy (ms) | utilization | tasks |",
                "|---|---|---|---|"]
        for w in r["workers"]:
            out.append("| %d | %.3f | %.1f%% | %d |" %
                       (w["worker"], w["busy_us"] / 1e3,
                        100.0 * w["utilization"], w["tasks"]))
        for title, hist in (("queue delay", r["queue_delay_hist"]),
                            ("worker gap", r["gap_hist"])):
            rows = hist_rows(hist)
            if not rows:
                continue
            out += ["", "### %s %s" % (r["name"], title), "",
                    "| bucket | count |", "|---|---|"]
            out += ["| %s | %d |" % (label, n) for label, n in rows]
    return "\n".join(out) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="trace_analyze.py",
        description="Recompute the scheduler report (critical path, "
                    "speedup bounds, per-worker utilization, latency "
                    "histograms) from a depflow Chrome trace document.")
    ap.add_argument("trace", help="Chrome trace JSON file written by "
                                  "depflow-opt")
    ap.add_argument("--format", choices=["text", "markdown", "json"],
                    default="text",
                    help="report format (default: text)")
    ap.add_argument("--check", action="store_true",
                    help="verify the scheduler invariants (wall >= "
                         "critical path, utilization <= 1, measured <= "
                         "achievable speedup); exit 1 on violation")
    ap.add_argument("--out", metavar="FILE",
                    help="write the report to FILE instead of stdout")
    args = ap.parse_args(argv)

    runs = load_tasks(args.trace)
    if not runs:
        print("trace_analyze.py: no task spans in %s" % args.trace,
              file=sys.stderr)
        return 1
    reports = [analyze_run(name, tasks) for name, tasks in sorted(runs.items())]

    if args.format == "json":
        text = json.dumps({"runs": reports}, indent=2, sort_keys=True) + "\n"
    elif args.format == "markdown":
        text = render_markdown(reports)
    else:
        text = render_text(reports)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)

    if args.check:
        bad = [v for r in reports for v in check_invariants(r)]
        for v in bad:
            print("trace_analyze.py: invariant violated: %s" % v,
                  file=sys.stderr)
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
