#!/usr/bin/env python3
"""Reach audit: which functions of ``src/repro`` do the shipped entry
points never call?

Usage::

    python tools/reach.py                    # every shipped entry point
    python tools/reach.py --list             # the entry points, and exit
    python tools/reach.py --only 'bench:fig8' --only 'example:*'
    python tools/reach.py --jobs 2 --keep DESIGN.md

Each entry point runs in a child process of its own (working directory:
a fresh scratch directory, so BENCH/TRACE/FLIGHT outputs land there)
under one in-process ``cProfile.Profile``; the child reports every
profiled function whose file is under ``src/repro``.  The parent unions
those rows, walks the AST of every module under ``src/repro`` and
prints, per module, the ``def``s no entry point reached, with their line
counts.  A ``def`` nested in an unreached one is counted in its parent's
lines, not listed again.  An entry point that exits non-zero is reported
and fails the run: its reach is still counted, but the run is a bug.
``--keep DESIGN.md`` also fails the run on an unreached function the
keep table in DESIGN.md (the section under :data:`KEEP_HEADING`) does not
name, and on a row of that table that names no ``def`` (a stale row).
The table's last column lists the kept functions as ``module.py``:
``Qualname``, ... groups; a function is excused only by its own module
and qualname, never by a name in the reason column or in parentheses.

Only the standard library is used.

Limit: cProfile is the one ``sys.setprofile`` hook of its thread.  Code
that installs its own profiler replaces this one, and everything its
process runs afterwards is invisible to the audit.  Two such callers
exist: ``tests/test_host_cost.py`` and perfbench ``--trace 1``.  The
perfbench entries here therefore call the untraced worker directly.  To
profile tier-1, if at all, do it in two runs: the suite without
``tests/test_host_cost.py``, then that file alone (whose profiled
regions stay hidden even so).
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import fnmatch
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "repro")

FIGURES = (
    "fig1a", "fig1b", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "tab02",
    "tab03", "abl-compression", "abl-codec",
)
PERFBENCH_WORKLOADS = ("ycsb_a", "ycsb_b", "micro4_sat", "mn_crash")
EXAMPLES = ("quickstart", "ycsb_comparison", "space_efficiency",
            "failure_recovery_demo")
#: perfbench ``--quick`` runs each workload at a tenth of its window.
PERFBENCH_QUICK_SCALE = 0.1
KEEP_HEADING = "### Kept without a shipped caller"

#: (kind, target, argv); ``{out}`` in argv is the child's scratch
#: directory.  kind: "module" (``python -m target argv``), "script" (a
#: file under the repo root), "perfbench" (one untraced perfbench run of
#: workload ``target``).
Entry = Tuple[str, str, Tuple[str, ...]]


def shipped_entries() -> Dict[str, Entry]:
    entries: Dict[str, Entry] = {}
    for fig in FIGURES:
        entries[f"bench:{fig}"] = (
            "module", "repro.bench",
            (fig, "--scale", "smoke", "--json-dir", "{out}"))
    entries["bench-trace"] = (
        "module", "repro.bench",
        ("fig8", "fig13", "tab02", "--scale", "smoke", "--trace",
         "--json-dir", "{out}"))
    entries["chaos"] = ("module", "repro.chaos",
                        ("--seeds", "3", "--json-dir", "{out}"))
    entries["chaos-trace"] = ("module", "repro.chaos",
                              ("--quick", "--trace", "--json-dir", "{out}"))
    entries["frontend"] = ("module", "repro.frontend",
                           ("--json-dir", "{out}"))
    entries["obs-demo-kill"] = ("module", "repro.obs",
                                ("demo", "--kill-mn", "1",
                                 "-o", "{out}/trace.json"))
    entries["obs-demo-summary"] = ("module", "repro.obs",
                                   ("demo", "-o", "{out}/trace.json",
                                    "--summary", "{out}/summary.json"))
    entries["obs-attr"] = ("module", "repro.obs", ("attr",))
    for name in PERFBENCH_WORKLOADS:
        entries[f"perfbench:{name}"] = ("perfbench", name, ())
    for name in EXAMPLES:
        entries[f"example:{name}"] = ("script", f"examples/{name}.py", ())
    return entries


# ----------------------------------------------------------------------
# child: run one entry point under cProfile
# ----------------------------------------------------------------------

def _run_entry(kind: str, target: str, argv: List[str]) -> None:
    if kind == "module":
        sys.argv = [target] + argv
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    elif kind == "script":
        path = os.path.join(ROOT, target)
        sys.argv = [path] + argv
        runpy.run_path(path, run_name="__main__")
    elif kind == "perfbench":
        from perfbench.worker import run_workload
        run_workload(target, 0, PERFBENCH_QUICK_SCALE)
    else:
        raise ValueError(f"unknown entry kind {kind!r}")


def child_main(name: str, out_dir: str, report: str) -> int:
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    kind, target, argv = shipped_entries()[name]
    argv = [a.replace("{out}", out_dir) for a in argv]
    profiler = cProfile.Profile()
    code = 0
    profiler.enable()
    try:
        _run_entry(kind, target, argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (exc.code is not None)
    except Exception as exc:              # reported, not re-raised
        print(f"[reach] {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        profiler.disable()
    profiler.create_stats()
    pkg = PKG + os.sep
    reached = sorted({(os.path.relpath(f, PKG), line)
                      for f, line, _fn in profiler.stats
                      if os.path.abspath(f).startswith(pkg)})
    with open(report, "w") as fh:
        json.dump({"exit": int(code), "reached": reached}, fh)
    return 0


# ----------------------------------------------------------------------
# parent: fan out children, union, compare with the AST
# ----------------------------------------------------------------------

class Outcome(NamedTuple):
    name: str
    exit: int
    seconds: float
    reached: Set[Tuple[str, int]]


def run_child(name: str, outputs: Optional[str]) -> Outcome:
    out_dir = tempfile.mkdtemp(prefix=f"reach-{name.replace(':', '-')}-",
                               dir=outputs)
    report = os.path.join(out_dir, "reach.json")
    env = dict(os.environ, PYTHONHASHSEED="0", REPRO_FLIGHT_DIR=out_dir,
               PYTHONPATH=os.pathsep.join(
                   [SRC, ROOT] + [p for p in [os.environ.get("PYTHONPATH")]
                                  if p]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", name,
         "--out-dir", out_dir, "--report", report],
        cwd=out_dir, env=env, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - start
    if proc.returncode != 0 or not os.path.exists(report):
        return Outcome(name, proc.returncode or 1, seconds, set())
    with open(report) as fh:
        data = json.load(fh)
    return Outcome(name, data["exit"], seconds,
                   {(f, line) for f, line in data["reached"]})


class Func(NamedTuple):
    module: str          # path below src/repro
    qualname: str
    first: int           # first line (decorators included): cProfile's key
    lines: int


def _functions(relpath: str) -> List[Tuple[Func, Optional[int]]]:
    """Every def of one module, with the index of its enclosing def."""
    with open(os.path.join(PKG, relpath)) as fh:
        tree = ast.parse(fh.read(), relpath)
    out: List[Tuple[Func, Optional[int]]] = []

    def visit(node, prefix: str, parent: Optional[int]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] +
                            [d.lineno for d in child.decorator_list])
                qual = f"{prefix}{child.name}"
                out.append((Func(relpath, qual, first,
                                 child.end_lineno - first + 1), parent))
                visit(child, f"{qual}.<locals>.", len(out) - 1)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    visit(tree, "", None)
    return out


def unreached(reached: Set[Tuple[str, int]]) -> Tuple[int, List[Func]]:
    """(functions in the package, the unreached ones minus nested)."""
    total, missing = 0, []
    for dirpath, _dirs, files in os.walk(PKG):
        for fname in sorted(files):
            if not fname.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, fname), PKG)
            funcs = _functions(rel)
            total += len(funcs)
            dead = [(f.module, f.first) not in reached for f, _ in funcs]
            for i, (func, parent) in enumerate(funcs):
                if dead[i] and (parent is None or not dead[parent]):
                    missing.append(func)
    missing.sort(key=lambda f: (f.module, f.first))
    return total, missing


def parse_keep_table(text: str) -> List[Tuple[str, str]]:
    """(module, qualname) of every function the keep table names: the
    table in the section under :data:`KEEP_HEADING` (up to the next
    heading), read from its last column only.  In that column a
    backticked ``path.py`` (below ``src/repro``) opens a module and each
    backticked name after it is a qualname in that module; parenthesised
    text (a test that reaches the function, say) names nothing."""
    start = text.find(KEEP_HEADING)
    if start < 0:
        raise ValueError(f"no {KEEP_HEADING!r} section")
    section = text[start + len(KEEP_HEADING):].split("\n#", 1)[0]
    rows = [line.strip() for line in section.splitlines()
            if line.strip().startswith("|")]
    pairs: List[Tuple[str, str]] = []
    for row in rows[2:]:                  # past the header and its rule
        cell = row.strip("|").rsplit("|", 1)[-1]
        while True:
            bare = re.sub(r"\([^()]*\)", "", cell)
            if bare == cell:
                break
            cell = bare
        module = None
        for name in re.findall(r"`([^`\s]+)`", cell):
            if name.endswith(".py"):
                module = name
            elif module is None:
                raise ValueError(f"{name!r} named before any module: {row}")
            else:
                pairs.append((module, name))
    return pairs


def stale_pairs(pairs: List[Tuple[str, str]]) -> List[Tuple[str, str]]:
    """The keep pairs that name no ``def`` of their module."""
    defs: Dict[str, Set[str]] = {}
    stale = []
    for module, qualname in pairs:
        if module not in defs:
            path = os.path.join(PKG, module)
            defs[module] = ({f.qualname for f, _ in _functions(module)}
                            if os.path.isfile(path) else set())
        if qualname not in defs[module]:
            stale.append((module, qualname))
    return stale


def keep_pairs(path: str) -> Set[Tuple[str, str]]:
    """The keep table of *path* as (module, qualname) pairs; exits on a
    missing section or a stale row."""
    with open(path) as fh:
        text = fh.read()
    try:
        pairs = parse_keep_table(text)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")
    stale = stale_pairs(pairs)
    if stale:
        raise SystemExit(f"{path}: keep table names no def: " + ", ".join(
            f"{module}: {qualname}" for module, qualname in stale))
    return set(pairs)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/reach.py",
        description="List the functions of src/repro that no shipped "
                    "entry point calls (cProfile per entry point).")
    parser.add_argument("--only", action="append", default=[],
                        metavar="PATTERN",
                        help="run only entries matching this glob "
                             "(repeatable; e.g. 'bench:*', 'chaos')")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="entry points run at once (default: 1)")
    parser.add_argument("--list", action="store_true",
                        help="print the entry points and exit")
    parser.add_argument("--keep", default=None, metavar="DESIGN.md",
                        help="exit 1 on an unreached function this file's "
                             "keep list does not name")
    parser.add_argument("--outputs", default=None, metavar="DIR",
                        help="make each entry's scratch directory under DIR "
                             "(default: the system temp directory)")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out-dir", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--report", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.child, args.out_dir, args.report)
    entries = [name for name in shipped_entries()
               if not args.only
               or any(fnmatch.fnmatch(name, p) for p in args.only)]
    if args.list:
        for name in entries:
            kind, target, entry_argv = shipped_entries()[name]
            print(f"  {name:<28} {kind:<9} {target} {' '.join(entry_argv)}")
        return 0
    if not entries:
        parser.error("no entry point matches --only")
    keep = keep_pairs(args.keep) if args.keep else None

    if args.outputs:
        os.makedirs(args.outputs, exist_ok=True)
    failed: List[str] = []
    reached: Set[Tuple[str, int]] = set()
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for out in pool.map(lambda name: run_child(name, args.outputs),
                            entries):
            reached |= out.reached
            if out.exit != 0:
                failed.append(out.name)
            status = "ok" if out.exit == 0 else f"EXIT {out.exit}"
            print(f"[{status:>7}] {out.name:<28} {out.seconds:7.1f}s  "
                  f"{len(out.reached):4d} functions", flush=True)
    total, missing = unreached(reached)
    unnamed = [f for f in missing
               if keep is not None and (f.module, f.qualname) not in keep]

    print()
    module = None
    for func in missing:
        if func.module != module:
            module = func.module
            lines = sum(f.lines for f in missing if f.module == module)
            print(f"{module}  ({lines} lines)")
        tag = "  NOT IN KEEP LIST" if func in unnamed else ""
        print(f"    {func.first:5d}  {func.qualname:<48} {func.lines:4d}{tag}")
    print(f"\n{len(missing)} of {total} functions unreached "
          f"({sum(f.lines for f in missing)} lines) by "
          f"{len(entries)} entry points")
    if failed:
        print(f"entry points that exited non-zero: {', '.join(failed)}")
    if keep is not None:
        print(f"{len(unnamed)} unreached functions not named in {args.keep}")
    return 1 if failed or unnamed else 0


if __name__ == "__main__":
    sys.exit(main())
