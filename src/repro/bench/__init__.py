"""Benchmark harness: one runner per table/figure of the paper's §4.

Run from the command line::

    python -m repro.bench list
    python -m repro.bench fig8 [--scale smoke|small]
    python -m repro.bench all

or call the runners programmatically; each returns a
:class:`~repro.bench.common.FigureResult`.
"""

from __future__ import annotations

from typing import Callable, Dict

from .ablations import run_ablation_codec_writes, run_ablation_compression
from .common import SCALES, FigureResult, Scale
from .fig_block import run_fig20
from .fig_ckpt import run_fig17, run_fig19
from .fig_degraded import run_fig14
from .fig_factor import run_fig13
from .fig_macro import run_fig10, run_fig11, run_fig15
from .fig_memory import run_fig12
from .fig_micro import run_fig8, run_fig9, run_micro_comparison
from .fig_motivation import run_fig1a, run_fig1b
from .fig_recovery import run_fig16, run_fig18, run_tab02
from .tab_cpu import run_tab03

__all__ = ["REGISTRY", "SCALES", "FigureResult", "Scale", "run_figure"]

REGISTRY: Dict[str, Callable[[Scale], FigureResult]] = {
    "fig1a": run_fig1a,
    "fig1b": run_fig1b,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "fig19": run_fig19,
    "fig20": run_fig20,
    "tab02": run_tab02,
    "tab03": run_tab03,
    "abl-compression": run_ablation_compression,
    "abl-codec": run_ablation_codec_writes,
}


def run_figure(name: str, scale: str = "smoke") -> FigureResult:
    """Regenerate one figure/table at the given scale tier."""
    try:
        runner = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; choose from {sorted(REGISTRY)}"
        ) from None
    result = runner(SCALES[scale])
    from ..checkpoint.compress import make_compressor
    from ..config import CheckpointConfig
    from .common import bench_seed
    result.meta.setdefault("scale", scale)
    result.meta.setdefault("seed", bench_seed())
    result.meta.setdefault(
        "checkpoint_codec",
        make_compressor(CheckpointConfig.compression).name)
    return result
