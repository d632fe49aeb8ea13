#!/usr/bin/env python3
"""Golden end-to-end gate for depflow-opt: output and counters must match
the recorded fixtures byte for byte.

Usage: pipeline_golden.py DEPFLOW_OPT FIXTURE_DIR [--update]

Every run below reads one of three fixed input modules from FIXTURE_DIR:

  module.df  40 mixed-family functions, like perfbench's module-opt
             (`depflow-fuzz --emit-module 40 --seed 424242`);
  bigfn.df   4 structured functions of about 150 statements over 48
             variables, each variable read at entry, like bigfn-opt
             (generateStructuredProgram, seeds drawn from RNG(424242));
  calls.df   a 24-function call module after separateComputation, like
             sdg-slice (generateCallModule(24, 424242)).

Each pipeline runs on each input, and each slice on calls.df, at -j1 and
at -j4. Both runs must equal one fixture, <input>.<run>.txt, which holds
the exit code, the size and 64-bit FNV-1a digest of stdout and of stderr,
and the `--counters-json` entries verbatim, one per line.

`--update` rewrites the fixtures from the current build. Rewrite them only
for an intended change, and say which runs moved and why. For each
fixture it rewrites, it prints what changed: the exit code and the
stdout/stderr size and digest lines, then the counters by group, each as
`name: old -> new` (or the whole entry when one was added or removed).
"""

import json
import os
import subprocess
import sys
import tempfile

PIPELINES = {
    "module-opt": "separate,constprop,pre,range,taint,nulluse",
    "bigfn-opt": "separate,constprop,pre,ssa-dfg",
    "pre-busy-ssa": "separate,pre-busy,ssa",
}
INPUTS = ["module", "bigfn", "calls"]
SLICES = ["f0:3", "f5:226", "f10:530"]
JOBS = ["1", "4"]


def runs():
    """(fixture name, input, depflow-opt arguments) for every run."""
    for inp in INPUTS:
        for label, passes in PIPELINES.items():
            yield f"{inp}.{label}", inp, [f"--passes={passes}"]
    for flag in ["--slice", "--slice-forward"]:
        for crit in SLICES:
            name = f"calls{flag[1:]}-{crit.replace(':', '-')}"
            yield name, "calls", [flag, crit]


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def record(opt, args, path, jobs, tmp):
    counters = os.path.join(tmp, "counters.json")
    if os.path.exists(counters):
        os.remove(counters)
    p = subprocess.run([opt, *args, "-j", jobs, "--counters-json", counters,
                        path], capture_output=True)
    lines = [f"exit {p.returncode}"]
    for stream, data in (("stdout", p.stdout), ("stderr", p.stderr)):
        lines.append(f"{stream} {len(data)} {fnv1a(data):016x}")
    lines.append("counters")
    if os.path.exists(counters):
        with open(counters) as f:
            for entry in json.load(f)["counters"]:
                lines.append(json.dumps(entry, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def describe_changes(old, new):
    """Lines saying how fixture text \p new differs from \p old."""
    def split(text):
        head, counters = [], {}
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line == "counters":
                for entry in lines[i + 1:]:
                    e = json.loads(entry)
                    counters[(e["group"], e["name"])] = e
                break
            head.append(line)
        return head, counters

    old_head, old_ctrs = split(old)
    new_head, new_ctrs = split(new)
    out = []
    for i in range(max(len(old_head), len(new_head))):
        o = old_head[i] if i < len(old_head) else "(none)"
        n = new_head[i] if i < len(new_head) else "(none)"
        if o != n:
            out.append(f"  {o} -> {n}")
    groups = {}
    for key in sorted(set(old_ctrs) | set(new_ctrs)):
        o, n = old_ctrs.get(key), new_ctrs.get(key)
        if o == n:
            continue
        if o is None or n is None:
            line = (f"added {json.dumps(n)}" if o is None
                    else f"removed {json.dumps(o)}")
        elif {k: v for k, v in o.items() if k != "value"} == \
                {k: v for k, v in n.items() if k != "value"}:
            line = f"{key[1]}: {o['value']} -> {n['value']}"
        else:
            line = f"{json.dumps(o)} -> {json.dumps(n)}"
        groups.setdefault(key[0], []).append(line)
    for group, lines in groups.items():
        out.append(f"  [{group}]")
        out.extend(f"    {line}" for line in lines)
    return out


def main(argv):
    update = "--update" in argv
    args = [a for a in argv[1:] if a != "--update"]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    opt, fixtures = args
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, inp, opt_args in runs():
            path = os.path.join(fixtures, inp + ".df")
            fixture = os.path.join(fixtures, name + ".txt")
            got = {j: record(opt, opt_args, path, j, tmp) for j in JOBS}
            try:
                with open(fixture) as f:
                    want = f.read()
            except OSError:
                want = None
            if update and got[JOBS[0]] != want:
                print(f"updated {name}:")
                for line in describe_changes(want or "", got[JOBS[0]]):
                    print(line)
                with open(fixture, "w") as f:
                    f.write(got[JOBS[0]])
                want = got[JOBS[0]]
            for j in JOBS:
                if got[j] == want:
                    continue
                failures += 1
                print(f"MISMATCH {name} at -j{j}: depflow-opt "
                      f"{' '.join(opt_args)} {inp}.df", file=sys.stderr)
                want_lines = (want or "(no fixture)\n").splitlines()
                got_lines = got[j].splitlines()
                for w, g in zip(want_lines, got_lines):
                    if w != g:
                        print(f"  want: {w}\n  got:  {g}", file=sys.stderr)
                if len(want_lines) != len(got_lines):
                    print(f"  want {len(want_lines)} lines, got "
                          f"{len(got_lines)}", file=sys.stderr)
    total = len(list(runs())) * len(JOBS)
    if failures:
        print(f"pipeline_golden: {failures} of {total} runs differ from "
              f"{fixtures}", file=sys.stderr)
        return 1
    print(f"pipeline_golden: {total} runs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
