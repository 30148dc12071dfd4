"""perfbench's own tests — ``python -m pytest perfbench/tests`` (about a
minute; not part of tier-1, which only collects ``tests/``)."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as cli  # noqa: E402  (also puts src/ on sys.path)
from perfbench.compare import verdict  # noqa: E402
from perfbench.layers import LAYERS, bucket, layer_of  # noqa: E402
from perfbench.spec import Spec  # noqa: E402
from perfbench.worker import account  # noqa: E402
from perfbench.workloads import WORKLOADS, InputLog  # noqa: E402

SPEC = Spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- BENCHMARK.json against the builder's contract ------------------------------

def test_benchmark_json_meets_the_contract():
    raw = SPEC.raw
    assert set(raw) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert raw["paths"] == ["perfbench"]
    assert raw["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(raw["run_seconds"], int) and 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = []
    for w in raw["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in raw["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in raw["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names)), "a name is used twice"
    setup = SPEC.end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])
    assert SPEC.workloads == list(WORKLOADS)
    for layer in LAYERS:
        assert f"{layer}.host_self_us_per_op" in SPEC.per_layer
        assert f"{layer}.host_calls_per_op" in SPEC.per_layer


# -- layer bucketing ---------------------------------------------------------------

def test_every_source_file_maps_to_exactly_one_layer():
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert len(files) > 60
    for path in files:
        assert layer_of(str(path)) in LAYERS, path
    expect = {
        "core/api.py": "core.api", "core/multiget.py": "core.api",
        "core/kvpair.py": "core.kvpair", "core/blockmgr.py": "core.blockmgr",
        "core/server.py": "core.server", "core/recovery.py": "core.recovery",
        "core/store.py": "cluster", "sim/engine.py": "sim.engine",
        "sim/resources.py": "sim.engine", "sim/stats.py": "obs",
        "sim/sched/adaptive.py": "sim.sched", "rdma/network.py": "rdma",
        "index/cache.py": "index", "memory/blocks.py": "memory",
        "ec/xorcode.py": "ec", "checkpoint/differential.py": "checkpoint",
        "cluster/master.py": "cluster", "workloads/ycsb.py": "workloads",
        "obs/flight.py": "obs", "bench/common.py": "other",
        "config.py": "other",
    }
    for below, layer in expect.items():
        assert layer_of(f"/x/src/repro/{below}") == layer, below
    assert layer_of("~") == "builtins"
    assert layer_of("/usr/lib/python3.11/random.py") == "other"
    assert layer_of(str(ROOT / "perfbench" / "workloads.py")) == "other"


def test_bucket_shares_sum_to_one():
    row = lambda calls, self_s: (calls, calls, self_s, self_s * 2, {})  # noqa: E731
    table = {
        ("/r/src/repro/core/api.py", 10, "_write_inner"): row(100, 2.0),
        ("/r/src/repro/core/api.py", 90, "_search_op"): row(50, 1.0),
        ("/r/src/repro/sim/engine.py", 5, "_step"): row(900, 3.0),
        ("/r/src/repro/sim/stats.py", 7, "record_op"): row(10, 0.5),
        ("~", 0, "<built-in method builtins.len>"): row(4000, 1.5),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): row(30, 2.0),
    }
    layers = bucket(table)
    assert set(layers) == set(LAYERS)
    assert layers["core.api"] == (3.0, 150)
    assert layers["obs"] == (0.5, 10)
    assert layers["builtins"] == (1.5, 4000)
    assert layers["other"] == (2.0, 30)
    total = sum(self_s for self_s, _ in layers.values())
    assert abs(sum(s / total for s, _ in layers.values()) - 1.0) < 1e-12
    assert total == 10.0
    assert sum(calls for _, calls in layers.values()) == 5090


# -- failed-op accounting ------------------------------------------------------------

def test_deleted_key_miss_is_not_a_failure_but_budget_exhaustion_is():
    log = InputLog()
    log.load([("INSERT", b"kept", b"v0"), ("INSERT", b"gone", b"v0")])
    list(log.tap(iter([("UPDATE", b"kept", b"v1"), ("DELETE", b"gone", b""),
                       ("SEARCH", b"kept", b"")])))
    assert log.readable_keys() == [b"kept"]        # "gone" is never read back
    assert log.written[b"kept"] == {hash(b"v0"), hash(b"v1")}

    per_op = {"SEARCH": {"errors": 0}, "UPDATE": {"errors": 0}}
    clean = account(1000, per_op, {}, {"keys": 1, "lost": 0, "budget": 0})
    assert (clean["attempted"], clean["failed"]) == (1001, 0)

    counts = account(1000, per_op, {"retry_budget_exceeded": 3.0},
                     {"keys": 1, "lost": 0, "budget": 0})
    assert (counts["attempted"], counts["failed"]) == (1004, 3)

    lost = account(1000, {"UPDATE": {"errors": 2}}, {"search_miss": 5.0},
                   {"keys": 10, "lost": 4, "budget": 1})
    assert lost["attempted"] == 1000 + 2 + 10
    assert lost["failed"] == 2 + 5 + 4 + 1
    assert lost["readback_lost"] == 5


# -- --compare verdicts ------------------------------------------------------------

def test_compare_verdicts_follow_direction_and_bound():
    assert verdict(100.0, 111.0, "lower", 0.10) == "worse"
    assert verdict(100.0, 109.0, "lower", 0.10) == "same"
    assert verdict(100.0, 89.0, "lower", 0.10) == "better"
    assert verdict(100.0, 89.0, "higher", 0.10) == "worse"
    assert verdict(100.0, 111.0, "higher", 0.10) == "better"
    assert verdict(100.0, 100.0, "higher", 0.02) == "same"


# -- end to end: all four workloads at windows / 10 -------------------------------

def _run(*args):
    return subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           *args], stdout=subprocess.PIPE, text=True,
                          cwd=str(ROOT), timeout=600)


def test_quick_smoke_of_all_four_workloads(tmp_path):
    report_path = tmp_path / "quick.json"
    proc = _run("--quick", "--json", str(report_path))
    assert proc.returncode == 0, proc.stdout[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(report_path.read_text())
    assert report["meta"]["sched_compiled"] in (True, False)
    assert list(report["workloads"]) == SPEC.workloads
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["checks"])
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] < result["attempted"] / 100
        assert list(result["end_to_end"]) == list(SPEC.end_to_end)
        for metric, cell in result["end_to_end"].items():
            assert cell["value"] > 0, (name, metric)
            assert cell["unit"] == SPEC.end_to_end[metric]["unit"]
    assert cli.main(["--compare", str(report_path), str(report_path)]) == 0


def test_quick_traced_run_fills_every_per_layer_metric():
    proc = _run("--workload", "mn_crash", "--quick", "--seed", "3",
                "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"]
    metrics = last["metrics"]
    assert list(metrics) == list(SPEC.per_layer)
    assert metrics["core.recovery.host_self_us_per_op"]["value"] > 0
    assert metrics["core.recovery.inload_total_ms"]["value"] > 0
    assert metrics["core.api.degraded_reads"]["value"] > 0
    assert metrics["harness.trace_overhead_ratio"]["value"] > 1
    assert (ROOT / "perfbench" / "out" / "mn_crash_s3.pstats").is_file()
