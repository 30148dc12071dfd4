"""The keep-table gate of ``tools/reach.py``, checked without running any
entry point: DESIGN.md's table must parse into (module, qualname) pairs
that each name a ``def``, and only its functions column may excuse a
function."""

from __future__ import annotations

import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_reach():
    path = os.path.join(REPO_ROOT, "tools", "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


reach = _load_reach()


def _table(*rows: str) -> str:
    return "\n".join([
        "## 3. Inventory", "", reach.KEEP_HEADING, "",
        "Prose naming `Environment.run` is not a row.", "",
        "| Kept because | Functions |", "|---|---|", *rows, "",
        "### Next section", "",
        "| Kept because | Functions |", "|---|---|",
        "| after the section | `sim/engine.py`: `Environment.timeout` |",
    ])


def test_design_keep_table_names_only_defs():
    with open(os.path.join(REPO_ROOT, "DESIGN.md")) as fh:
        pairs = reach.parse_keep_table(fh.read())
    assert pairs
    for module, qualname in pairs:
        defs = {f.qualname for f, _parent in reach._functions(module)}
        assert qualname in defs, (module, qualname)
    assert reach.stale_pairs(pairs) == []


def test_only_the_functions_column_excuses_a_function():
    text = _table(
        "| `Environment.process` runs `Fabric._submit` (see "
        "`test_rdma.py::test_nic_fifo_queueing`) "
        "| `sim/engine.py`: `Environment.run`, `Event.succeed` "
        "(`test_sim_engine.py::test_timeout_basic`) and "
        "`rdma/network.py`: `Fabric.post` |")
    assert reach.parse_keep_table(text) == [
        ("sim/engine.py", "Environment.run"),
        ("sim/engine.py", "Event.succeed"),
        ("rdma/network.py", "Fabric.post"),
    ]


def test_a_pair_matches_its_own_module_only():
    pairs = [("rdma/nic.py", "Fabric._submit"),        # lives in network.py
             ("rdma/network.py", "Fabric._submit"),
             ("sim/engine.py", "Environment.no_such_def"),
             ("no/such_module.py", "f")]
    assert reach.stale_pairs(pairs) == [pairs[0], pairs[2], pairs[3]]


def test_a_stale_row_fails_the_gate(tmp_path):
    design = tmp_path / "DESIGN.md"
    design.write_text(_table(
        "| gone | `memory/region.py`: `MemoryRegion.read`, "
        "`MemoryRegion.faa_u64` |"))
    with pytest.raises(SystemExit, match="MemoryRegion.faa_u64"):
        reach.keep_pairs(str(design))
    design.write_text(_table("| fine | `memory/region.py`: `MemoryRegion.read` |"))
    assert reach.keep_pairs(str(design)) == {
        ("memory/region.py", "MemoryRegion.read")}


def test_a_name_before_any_module_is_rejected():
    with pytest.raises(ValueError, match="before any module"):
        reach.parse_keep_table(_table("| why | `Environment.run` |"))
