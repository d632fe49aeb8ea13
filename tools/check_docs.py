#!/usr/bin/env python3
"""Documentation consistency checks (CI's docs job).

Eight guarantees:

1. **Links resolve.** Every relative markdown link in README.md,
   DESIGN.md, EXPERIMENTS.md, ROADMAP.md, and docs/*.md points at a file
   that exists; same-file ``#anchors`` match a real heading. External
   http(s) links are not fetched (CI has no business flaking on the
   network) — only their syntax is accepted.

2. **docs/TOOLS.md tracks the binary.** The flags in the depflow-opt
   section of docs/TOOLS.md and the flags printed by ``depflow-opt
   --help`` must be the same set, in both directions: a flag added to the
   tool without documentation fails, and a documented flag the tool no
   longer mentions fails. Pass ``--depflow-opt`` with the built binary;
   omit it to skip the drift check (link check only).

3. **docs/TOOLS.md tracks bench_compare.py.** Same two-way drift check
   between the ``## bench_compare.py`` section and the script's
   ``--help`` (the script ships with the repo, so this check always
   runs; argparse's automatic ``-h``/``--help`` is exempt).

4. **docs/TOOLS.md tracks trace_analyze.py.** The same two-way drift
   check between the ``## trace_analyze.py`` section and the script's
   ``--help`` (stdlib-only script shipped with the repo, so this check
   always runs too).

5. **docs/TOOLS.md tracks depflow-opt's pass names.** The pass table
   under ``### Passes`` must list exactly the names, in the same order,
   that ``depflow-opt --passes=<unknown>`` prints after ``known passes:``
   (generated from ``allPasses()``, so no second list is kept here).
   Runs with the ``--help`` drift check.

6. **docs/SDG.md tracks the sdg counter group.** The counter names in
   docs/SDG.md's counter table and the ``DEPFLOW_*STATISTIC(..., "sdg",
   ...)`` definitions in ``src/sdg/*.cpp`` must be the same set, in both
   directions — the perf gate and the ``--counters-json`` schema both
   key on these names, so a silently renamed counter is a doc bug and a
   baseline bug at once.

7. **Source files named in the docs exist.** Every backticked ``*.h`` or
   ``*.cpp`` file in README.md, DESIGN.md and docs/*.md must exist. A
   path resolves against the repository root or ``src/`` (the docs name
   library files relative to ``src/``, as README's tree does); a bare
   file name must exist somewhere under src/, tools/, tests/ or bench/.
   ``Foo.{h,cpp}`` names both files; names with ``<`` or ``*`` are
   patterns and are skipped.

8. **The oracle budget table tracks the ctest list.** Every row of the
   ``## Oracle budgets`` table in docs/TOOLS.md names a ctest that an
   ``add_test`` in tests/, tools/ or bench/ defines (directly, or through
   a CMake function such as ``depflow_test``), and every
   ``depflow_fuzz_*`` ctest has a row.

Usage:
    python3 tools/check_docs.py [--root DIR] [--depflow-opt BIN]

Exit 0 iff everything holds; every violation is reported, not just the
first.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

DOC_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*|-[a-zA-Z])(?![\w-])")

# Flags that may legitimately appear on one side only: the help text's
# meta-reference to itself is covered, and docs may show example values.
FLAG_IGNORE = set()


def github_slug(heading):
    """GitHub's anchor slug for a heading line."""
    s = heading.strip().lower()
    s = re.sub(r"[`*_~]", "", s)
    s = re.sub(r"[^\w\s-]", "", s, flags=re.UNICODE)
    return re.sub(r"\s+", "-", s.strip())


def heading_slugs(text):
    slugs, counts = set(), {}
    in_fence = False
    for line in text.splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence or not line.startswith("#"):
            continue
        slug = github_slug(line.lstrip("#"))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def iter_links(text):
    """Yield (lineno, target) for inline links outside code fences."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for m in LINK_RE.finditer(line):
            yield lineno, m.group(1)


def check_links(root, errors):
    files = [root / f for f in DOC_FILES] + sorted((root / "docs").glob("*.md"))
    texts = {}
    for f in files:
        if f.exists():
            texts[f] = f.read_text()
    for f, text in texts.items():
        rel = f.relative_to(root)
        for lineno, target in iter_links(text):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # http:, mailto:, …
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                dest = (f.parent / path_part).resolve()
                if not dest.exists():
                    errors.append(f"{rel}:{lineno}: broken link '{target}' "
                                  f"({dest} does not exist)")
                    continue
                dest_text = (texts.get(dest) if dest in texts
                             else dest.read_text() if dest.suffix == ".md"
                             else None)
            else:
                dest_text = text
            if anchor and dest_text is not None:
                if anchor not in heading_slugs(dest_text):
                    errors.append(f"{rel}:{lineno}: link '{target}' names a "
                                  f"missing anchor '#{anchor}'")


def flags_in(text):
    return {m.group(1) for m in FLAG_RE.finditer(text)} - FLAG_IGNORE


def tools_md_section(root, title):
    text = (root / "docs" / "TOOLS.md").read_text()
    m = re.search(rf"^## {re.escape(title)}$(.*?)(?=^## |\Z)", text,
                  re.M | re.S)
    if not m:
        return None
    return m.group(1)


def tools_md_opt_section(root):
    return tools_md_section(root, "depflow-opt")


def check_flag_drift(root, binary, errors):
    section = tools_md_opt_section(root)
    if section is None:
        errors.append("docs/TOOLS.md: no '## depflow-opt' section found")
        return
    try:
        proc = subprocess.run([binary, "--help"], capture_output=True,
                              text=True, timeout=30)
    except OSError as e:
        errors.append(f"cannot run {binary} --help: {e}")
        return
    if proc.returncode != 0:
        errors.append(f"{binary} --help exited {proc.returncode}")
        return
    doc_flags = flags_in(section)
    help_flags = flags_in(proc.stdout)
    for flag in sorted(help_flags - doc_flags):
        errors.append(f"docs/TOOLS.md: flag '{flag}' is in depflow-opt "
                      f"--help but not documented")
    for flag in sorted(doc_flags - help_flags):
        errors.append(f"docs/TOOLS.md: documents '{flag}' but depflow-opt "
                      f"--help does not mention it")


KNOWN_PASSES_RE = re.compile(r"known passes: ([^)]*)\)")
PASS_ROW_RE = re.compile(r"^\| `([a-z][a-z0-9-]*)` \|", re.M)


def check_pass_name_drift(root, binary, errors):
    section = tools_md_opt_section(root) or ""
    m = re.search(r"^### Passes$(.*?)(?=^### |\Z)", section, re.M | re.S)
    if not m:
        errors.append("docs/TOOLS.md: no '### Passes' table under "
                      "'## depflow-opt'")
        return
    doc_passes = PASS_ROW_RE.findall(m.group(1))
    try:
        proc = subprocess.run([binary, "--passes=check-docs-unknown-pass"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=30)
    except OSError as e:
        errors.append(f"cannot run {binary} --passes=<unknown>: {e}")
        return
    known = KNOWN_PASSES_RE.search(proc.stderr)
    if proc.returncode != 2 or not known:
        errors.append(f"{binary} --passes=<unknown> exited "
                      f"{proc.returncode} without a 'known passes:' list")
        return
    tool_passes = [p.strip() for p in known.group(1).split(",")]
    if doc_passes != tool_passes:
        errors.append(f"docs/TOOLS.md: the '### Passes' table lists "
                      f"{', '.join(doc_passes)}; depflow-opt knows "
                      f"{', '.join(tool_passes)}")


SDG_STAT_RE = re.compile(
    r'DEPFLOW_(?:MAX_|HIST_)?STATISTIC\(\s*(\w+)\s*,\s*"sdg"')
SDG_DOC_COUNTER_RE = re.compile(r"`((?:Num|Max|Hist)SDG\w+)`")


def check_sdg_counter_drift(root, errors):
    doc = root / "docs" / "SDG.md"
    if not doc.exists():
        errors.append("docs/SDG.md: missing (the SDG reference)")
        return
    doc_names = set(SDG_DOC_COUNTER_RE.findall(doc.read_text()))
    src_names = set()
    for f in sorted((root / "src" / "sdg").glob("*.cpp")):
        src_names |= set(SDG_STAT_RE.findall(f.read_text()))
    if not src_names:
        errors.append("src/sdg/: no sdg counter definitions found "
                      "(check_docs' regex or the code moved)")
        return
    for name in sorted(src_names - doc_names):
        errors.append(f"docs/SDG.md: sdg counter '{name}' is defined in "
                      f"src/sdg/ but not documented")
    for name in sorted(doc_names - src_names):
        errors.append(f"docs/SDG.md: documents counter '{name}' but "
                      f"src/sdg/ does not define it")


CODE_SPAN_RE = re.compile(r"`([^`]+)`")
SOURCE_REF_RE = re.compile(r"([\w./<>*-]+)\.(h|cpp|\{[\w,]+\})(?![\w])")
SOURCE_DIRS = ["src", "tools", "tests", "bench"]


def iter_source_refs(text):
    """Yield (lineno, name) for each *.h/*.cpp file named in a code span
    outside code fences, with ``.{h,cpp}`` expanded."""
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for span in CODE_SPAN_RE.finditer(line):
            for m in SOURCE_REF_RE.finditer(span.group(1)):
                stem, ext = m.group(1), m.group(2)
                if "<" in stem or "*" in stem:
                    continue
                exts = ext.strip("{}").split(",")
                for e in exts:
                    yield lineno, f"{stem}.{e}"


def check_source_refs(root, errors):
    files = [root / "README.md", root / "DESIGN.md"] + sorted(
        (root / "docs").glob("*.md"))
    bare = set()
    for d in SOURCE_DIRS:
        bare |= {p.name for p in (root / d).rglob("*") if p.is_file()}
    for f in files:
        if not f.exists():
            continue
        rel = f.relative_to(root)
        for lineno, name in iter_source_refs(f.read_text()):
            if "/" in name:
                ok = (root / name).is_file() or (root / "src" / name).is_file()
            else:
                ok = name in bare
            if not ok:
                errors.append(f"{rel}:{lineno}: names '{name}', which does "
                              f"not exist")


def check_bench_compare_drift(root, errors):
    section = tools_md_section(root, "bench_compare.py")
    if section is None:
        errors.append("docs/TOOLS.md: no '## bench_compare.py' section found")
        return
    script = root / "tools" / "bench_compare.py"
    try:
        proc = subprocess.run([sys.executable, str(script), "--help"],
                              capture_output=True, text=True, timeout=30)
    except OSError as e:
        errors.append(f"cannot run {script} --help: {e}")
        return
    if proc.returncode != 0:
        errors.append(f"{script} --help exited {proc.returncode}")
        return
    auto_help = {"-h", "--help"}
    doc_flags = flags_in(section) - auto_help
    help_flags = flags_in(proc.stdout) - auto_help
    for flag in sorted(help_flags - doc_flags):
        errors.append(f"docs/TOOLS.md: flag '{flag}' is in bench_compare.py "
                      f"--help but not documented")
    for flag in sorted(doc_flags - help_flags):
        errors.append(f"docs/TOOLS.md: documents '{flag}' but "
                      f"bench_compare.py --help does not mention it")


def check_trace_analyze_drift(root, errors):
    section = tools_md_section(root, "trace_analyze.py")
    if section is None:
        errors.append("docs/TOOLS.md: no '## trace_analyze.py' section found")
        return
    script = root / "tools" / "trace_analyze.py"
    try:
        proc = subprocess.run([sys.executable, str(script), "--help"],
                              capture_output=True, text=True, timeout=30)
    except OSError as e:
        errors.append(f"cannot run {script} --help: {e}")
        return
    if proc.returncode != 0:
        errors.append(f"{script} --help exited {proc.returncode}")
        return
    auto_help = {"-h", "--help"}
    doc_flags = flags_in(section) - auto_help
    help_flags = flags_in(proc.stdout) - auto_help
    for flag in sorted(help_flags - doc_flags):
        errors.append(f"docs/TOOLS.md: flag '{flag}' is in trace_analyze.py "
                      f"--help but not documented")
    for flag in sorted(doc_flags - help_flags):
        errors.append(f"docs/TOOLS.md: documents '{flag}' but "
                      f"trace_analyze.py --help does not mention it")


ADD_TEST_RE = re.compile(r"add_test\(\s*NAME\s+([\w-]+)")
CMAKE_FUNCTION_RE = re.compile(
    r"function\(\s*(\w+)\s+(\w+)[^)]*\)(.*?)endfunction\(\)", re.S)
BUDGET_ROW_RE = re.compile(r"^\|\s*`([\w-]+)`\s*\|", re.M)


def ctest_names(root):
    """Names of the ctests the CMakeLists.txt of tests/, tools/ and bench/
    define: literal ``add_test(NAME x`` plus the first argument of every
    call to a CMake function whose body does ``add_test(NAME ${param}``."""
    names = set()
    for d in ["tests", "tools", "bench"]:
        f = root / d / "CMakeLists.txt"
        if not f.exists():
            continue
        text = f.read_text()
        names |= set(ADD_TEST_RE.findall(text))
        for fn, param, body in CMAKE_FUNCTION_RE.findall(text):
            if re.search(rf"add_test\(\s*NAME\s+\$\{{{param}\}}", body):
                names |= set(re.findall(rf"^\s*{fn}\(\s*([\w-]+)", text,
                                        re.M))
    return names


def check_oracle_budgets(root, errors):
    section = tools_md_section(root, "Oracle budgets")
    if section is None:
        errors.append("docs/TOOLS.md: no '## Oracle budgets' table (one "
                      "row per oracle ctest)")
        return
    rows = BUDGET_ROW_RE.findall(section)
    defined = ctest_names(root)
    for name in rows:
        if name not in defined:
            errors.append(f"docs/TOOLS.md: oracle budget row '{name}' names "
                          f"no ctest defined in tests/, tools/ or bench/")
    for name in sorted(defined):
        if name.startswith("depflow_fuzz_") and name not in rows:
            errors.append(f"docs/TOOLS.md: ctest '{name}' has no row in the "
                          f"oracle budget table")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: this script's repo)")
    ap.add_argument("--depflow-opt", type=Path, default=None,
                    help="built depflow-opt binary for the --help drift "
                         "check; omitted = link check only")
    args = ap.parse_args()

    errors = []
    check_links(args.root, errors)
    check_source_refs(args.root, errors)
    check_bench_compare_drift(args.root, errors)
    check_trace_analyze_drift(args.root, errors)
    check_sdg_counter_drift(args.root, errors)
    check_oracle_budgets(args.root, errors)
    if args.depflow_opt is not None:
        check_flag_drift(args.root, str(args.depflow_opt), errors)
        check_pass_name_drift(args.root, str(args.depflow_opt), errors)
    else:
        print("check_docs: note: --depflow-opt not given; "
              "skipping the --help and pass-name drift checks",
              file=sys.stderr)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    if not errors:
        print("check_docs: ok", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
