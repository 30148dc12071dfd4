"""Ablations: checkpoint compression, codec choice."""

from conftest import regen


def test_ablation_compression_shrinks_traffic(benchmark):
    result = regen(benchmark, "abl-compression")
    zlib = result.lookup(compression="zlib")
    none = result.lookup(compression="none")
    assert zlib["ckpt_bytes_per_round"] < none["ckpt_bytes_per_round"] * 0.5
    assert zlib["search_mops"] >= none["search_mops"] * 0.9


def test_ablation_offline_ec_hides_codec_cost(benchmark):
    result = regen(benchmark, "abl-codec")
    xor = result.lookup(codec="xor")
    rs = result.lookup(codec="rs")
    # offline coding: the slower GF math barely moves client throughput
    assert rs["update_mops"] > xor["update_mops"] * 0.85
    # ...but the RS EC core works harder
    assert rs["ec_core_util"] >= xor["ec_core_util"] * 0.9

