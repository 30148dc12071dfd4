#!/usr/bin/env python3
"""Optionally compile the event core.

Two build products, tried in order of payoff:

1. ``repro.sim.sched._sched_core`` — the full C event core
   (``_sched_core.c``: flat-heap storage, sift loops, batch
   bookkeeping, and the engine's ``run_loop`` dispatch cycle all in
   C).  Needs only a C compiler + Python headers (via setuptools).
2. ``repro.sim.sched._flatheap_core_compiled`` — a mypyc/Cython
   compile of the pure-python sift kernels, for environments with
   those compilers but where building the hand-written extension
   fails.

Nothing is installed by this script.  The scheduler gates on the
compiled modules' importability at runtime — if this script was never
run, or no compiler is available, the pure-python paths serve and
behaviour is bit-identical either way (that equivalence is exactly
what ``tests/test_sched_fuzz.py`` and the whole-artifact suites pin).

Usage::

    python tools/build_sched.py            # try cc, then mypyc, Cython
    python tools/build_sched.py --clean    # remove built artifacts
"""

from __future__ import annotations

import argparse
import glob
import os
import shutil
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHED_DIR = os.path.join(REPO, "src", "repro", "sim", "sched")
KERNEL = os.path.join(SCHED_DIR, "_flatheap_core.py")
COMPILED_STEM = "_flatheap_core_compiled"
CORE_STEM = "_sched_core"
CORE_SRC = os.path.join(SCHED_DIR, f"{CORE_STEM}.c")


def clean() -> None:
    removed = []
    for pattern in (f"{COMPILED_STEM}*.so", f"{COMPILED_STEM}*.pyd",
                    f"{COMPILED_STEM}.py", f"{COMPILED_STEM}.c",
                    f"{CORE_STEM}*.so", f"{CORE_STEM}*.pyd"):
        for path in glob.glob(os.path.join(SCHED_DIR, pattern)):
            os.remove(path)
            removed.append(path)
    build_dir = os.path.join(SCHED_DIR, "build")
    if os.path.isdir(build_dir):
        shutil.rmtree(build_dir)
        removed.append(build_dir)
    print("removed:" if removed else "nothing to remove",
          *[os.path.relpath(p, REPO) for p in removed])


def try_cc() -> bool:
    """Build the hand-written C event core with the local compiler.

    Goes through setuptools' ``build_ext`` so compiler discovery and
    per-platform flags stay out of this script; the artifact is built
    into a scratch dir and copied next to the source (placement stays
    deterministic regardless of how ``--inplace`` maps packages).
    """
    try:
        from setuptools import Distribution, Extension
    except ImportError:
        return False
    import tempfile

    with tempfile.TemporaryDirectory(prefix="sched_core_build_") as tmp:
        dist = Distribution({
            "ext_modules": [
                Extension(f"repro.sim.sched.{CORE_STEM}", [CORE_SRC]),
            ],
        })
        cmd = dist.get_command_obj("build_ext")
        cmd.build_lib = tmp
        cmd.build_temp = os.path.join(tmp, "temp")
        try:
            dist.run_command("build_ext")
        except BaseException as exc:  # compiler/toolchain missing
            print(f"cc build failed: {exc}", file=sys.stderr)
            return False
        built = glob.glob(os.path.join(
            tmp, "repro", "sim", "sched", f"{CORE_STEM}*.so"))
        built += glob.glob(os.path.join(
            tmp, "repro", "sim", "sched", f"{CORE_STEM}*.pyd"))
        if not built:
            print("cc build produced no artifact", file=sys.stderr)
            return False
        dest = os.path.join(SCHED_DIR, os.path.basename(built[0]))
        shutil.copyfile(built[0], dest)
    return _smoke_core()


def _smoke_core() -> bool:
    """Import the freshly built core in a subprocess and exercise it
    (a broken build must fail here, not at first simulation)."""
    check = (
        "import sys; sys.path.insert(0, %r); "
        "from repro.sim.sched import _sched_core as c; "
        "h = c.FlatHeapCore(); "
        "assert h.push(1.0, 'a') == 0 and h.push(0.5, 'b') == 1; "
        "assert h.pop() == (0.5, 1, 'b') and len(h) == 1; "
        "assert h.pop_run(None) == (1.0, ['a']) and not h; "
        "print('ok')" % os.path.join(REPO, "src")
    )
    result = subprocess.run([sys.executable, "-c", check],
                            capture_output=True, text=True)
    if result.returncode != 0:
        print("built core failed smoke test:\n", result.stderr,
              file=sys.stderr)
        for path in glob.glob(os.path.join(SCHED_DIR, f"{CORE_STEM}*.so")):
            os.remove(path)
        return False
    return True


def try_mypyc() -> bool:
    try:
        import mypyc  # noqa: F401
    except ImportError:
        return False
    src = os.path.join(SCHED_DIR, f"{COMPILED_STEM}.py")
    shutil.copyfile(KERNEL, src)
    result = subprocess.run(
        [sys.executable, "-m", "mypyc", src],
        cwd=SCHED_DIR, capture_output=True, text=True,
    )
    os.remove(src)
    if result.returncode != 0:
        print("mypyc failed:\n", result.stderr, file=sys.stderr)
        return False
    return bool(glob.glob(os.path.join(SCHED_DIR, f"{COMPILED_STEM}*.so")))


def try_cython() -> bool:
    try:
        from Cython.Build.Inline import cython_inline  # noqa: F401
        import Cython  # noqa: F401
    except ImportError:
        return False
    from setuptools import Extension, setup  # deferred heavy import
    from Cython.Build import cythonize

    src = os.path.join(SCHED_DIR, f"{COMPILED_STEM}.py")
    shutil.copyfile(KERNEL, src)
    try:
        setup(
            script_args=["build_ext", "--inplace"],
            ext_modules=cythonize(
                [Extension(f"repro.sim.sched.{COMPILED_STEM}", [src])],
                language_level=3,
            ),
            script_name="build_sched",
        )
    except SystemExit as exc:
        print(f"cython build exited: {exc}", file=sys.stderr)
        return False
    finally:
        os.remove(src)
    return bool(glob.glob(os.path.join(SCHED_DIR, f"{COMPILED_STEM}*.so")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clean", action="store_true",
                        help="remove compiled kernel artifacts")
    args = parser.parse_args()
    if args.clean:
        clean()
        return 0
    if try_cc():
        print("built C event core (_sched_core)")
        return 0
    if try_mypyc():
        print("built compiled flat-heap kernel with mypyc")
        return 0
    if try_cython():
        print("built compiled flat-heap kernel with Cython")
        return 0
    print("no C compiler, mypyc, or Cython available; the pure-python "
          "event core (bit-identical) will serve", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
