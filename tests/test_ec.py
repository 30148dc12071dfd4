"""Tests for erasure coding: GF(256), Reed-Solomon, X-Code/RDP, stripes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec import (
    RDP,
    ReedSolomon,
    RSStripeCodec,
    StripeLayout,
    XCode,
    XorStripeCodec,
    gf_inv,
    gf_mul,
    is_prime,
    make_codec,
)
from repro.ec.gf256 import gf_matrix_invert, gf_mul_buffer
from repro.errors import CodingError

elements = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


# ---------------------------------------------------------------- GF(256)

@given(elements, elements)
def test_gf_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(elements, elements, elements)
def test_gf_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(elements, elements, elements)
def test_gf_distributive(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


@given(elements)
def test_gf_identity_and_zero(a):
    assert gf_mul(a, 1) == a
    assert gf_mul(a, 0) == 0


@given(nonzero)
def test_gf_inverse(a):
    assert gf_mul(a, gf_inv(a)) == 1


def test_gf_inv_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(elements)
def test_gf_mul_buffer_matches_scalar(a):
    buf = np.arange(256, dtype=np.uint8)
    out = gf_mul_buffer(a, buf)
    for b in (0, 1, 2, 128, 255):
        assert out[b] == gf_mul(a, b)


def test_gf_matrix_invert_identity():
    m = [[1, 0], [0, 1]]
    assert gf_matrix_invert(m) == m


def test_gf_matrix_invert_roundtrip():
    m = [[3, 1, 7], [9, 2, 4], [1, 1, 1]]
    inv = gf_matrix_invert(m)
    # m @ inv == I over GF(256)
    n = len(m)
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc ^= gf_mul(m[i][k], inv[k][j])
            assert acc == (1 if i == j else 0)


def test_gf_matrix_invert_singular():
    with pytest.raises(ValueError):
        gf_matrix_invert([[1, 1], [1, 1]])


# ---------------------------------------------------------------- RS

def _random_shards(rng, k, width):
    return [rng.integers(0, 256, width, dtype=np.uint8) for _ in range(k)]


def test_rs_all_single_and_double_erasures():
    rs = ReedSolomon(4, 2)
    rng = np.random.default_rng(1)
    data = _random_shards(rng, 4, 64)
    shards = data + rs.encode(data)
    for missing in itertools.chain(
            itertools.combinations(range(6), 1),
            itertools.combinations(range(6), 2)):
        partial = [None if i in missing else shards[i] for i in range(6)]
        rec = rs.reconstruct(partial)
        for i in range(6):
            assert (rec[i] == shards[i]).all()


def test_rs_too_many_erasures():
    rs = ReedSolomon(2, 2)
    with pytest.raises(CodingError):
        rs.reconstruct([None, None, None, np.zeros(8, dtype=np.uint8)])


def test_rs_shard_count_checked():
    rs = ReedSolomon(2, 2)
    with pytest.raises(CodingError):
        rs.encode([np.zeros(8, dtype=np.uint8)])
    with pytest.raises(CodingError):
        rs.reconstruct([np.zeros(8, dtype=np.uint8)] * 3)


def test_rs_shard_length_mismatch():
    rs = ReedSolomon(2, 1)
    with pytest.raises(CodingError):
        rs.encode([np.zeros(8, dtype=np.uint8),
                   np.zeros(16, dtype=np.uint8)])


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2 ** 32))
def test_rs_parity_delta_linearity(k, m, seed):
    rs = ReedSolomon(k, m)
    rng = np.random.default_rng(seed)
    data = _random_shards(rng, k, 32)
    parity = rs.encode(data)
    idx = int(rng.integers(0, k))
    new_shard = rng.integers(0, 256, 32, dtype=np.uint8)
    delta = data[idx] ^ new_shard
    contributions = rs.parity_delta(idx, delta)
    data2 = list(data)
    data2[idx] = new_shard
    parity2 = rs.encode(data2)
    for j in range(m):
        assert (parity[j] ^ contributions[j] == parity2[j]).all()


def test_rs_invalid_params():
    with pytest.raises(CodingError):
        ReedSolomon(0, 1)
    with pytest.raises(CodingError):
        ReedSolomon(250, 10)


# ---------------------------------------------------------------- X-Code

def test_is_prime():
    assert [p for p in range(14) if is_prime(p)] == [2, 3, 5, 7, 11, 13]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_xcode_all_double_column_erasures(p):
    code = XCode(p)
    rng = np.random.default_rng(p)
    arr = code.empty_array(16)
    payload = rng.integers(0, 256, 16 * len(code.data_cells), dtype=np.uint8)
    code.load_data(arr, payload)
    code.encode(arr)
    assert code.check(arr)
    for cols in itertools.chain(itertools.combinations(range(p), 1),
                                itertools.combinations(range(p), 2)):
        damaged = arr.copy()
        code.decode(damaged, cols)
        assert (damaged == arr).all(), cols


def test_xcode_requires_prime():
    with pytest.raises(CodingError):
        XCode(4)
    with pytest.raises(CodingError):
        XCode(2)


def test_xcode_data_roundtrip():
    code = XCode(5)
    arr = code.empty_array(8)
    payload = np.arange(8 * len(code.data_cells), dtype=np.uint8)
    code.load_data(arr, payload)
    assert (code.extract_data(arr) == payload).all()


def test_xcode_payload_size_checked():
    code = XCode(5)
    arr = code.empty_array(8)
    with pytest.raises(CodingError):
        code.load_data(arr, np.zeros(3, dtype=np.uint8))


def test_xcode_three_erasures_fail():
    code = XCode(5)
    arr = code.empty_array(8)
    code.encode(arr)
    with pytest.raises(CodingError):
        code.decode(arr.copy(), [0, 1, 2])


def test_xcode_each_node_holds_data_and_parity():
    """§3.3.1: every MN of the group stores both data and parity."""
    code = XCode(5)
    data_cols = {c for (_r, c) in code.data_cells}
    parity_cols = {parity[1] for _cells, parity in code.equations}
    assert data_cols == set(range(5))
    assert parity_cols == set(range(5))


# ---------------------------------------------------------------- RDP

@pytest.mark.parametrize("p,k", [(5, 3), (5, 4), (7, 3), (7, 6)])
def test_rdp_all_double_erasures(p, k):
    code = RDP(p, k)
    rng = np.random.default_rng(p * 100 + k)
    arr = code.empty_array(16)
    payload = rng.integers(0, 256, 16 * len(code.data_cells), dtype=np.uint8)
    code.load_data(arr, payload)
    code.encode(arr)
    assert code.check(arr)
    ncols = code.ncols
    for cols in itertools.chain(itertools.combinations(range(ncols), 1),
                                itertools.combinations(range(ncols), 2)):
        damaged = arr.copy()
        code.decode(damaged, cols)
        assert (damaged == arr).all(), cols


def test_rdp_params_checked():
    with pytest.raises(CodingError):
        RDP(4, 3)  # not prime
    with pytest.raises(CodingError):
        RDP(5, 5)  # too many data columns


# ---------------------------------------------------------------- stripe codecs

CODECS = [
    lambda: XorStripeCodec(3, 512),
    lambda: RSStripeCodec(3, 512),
]


@pytest.mark.parametrize("factory", CODECS)
def test_stripe_roundtrip_all_erasures(factory):
    codec = factory()
    rng = np.random.default_rng(0)
    blocks = [rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
              for _ in range(3)]
    shards = blocks + codec.encode(blocks)
    width = codec.width
    for missing in itertools.chain(itertools.combinations(range(width), 1),
                                   itertools.combinations(range(width), 2)):
        partial = [None if i in missing else shards[i] for i in range(width)]
        rec = codec.reconstruct(partial)
        assert rec == shards, missing


@pytest.mark.parametrize("factory", CODECS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32),
       idx=st.integers(min_value=0, max_value=2))
def test_stripe_delta_linearity(factory, seed, idx):
    """§3.3.3: parity update via XOR of the delta contribution equals a
    full re-encode."""
    codec = factory()
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
              for _ in range(3)]
    parity = codec.encode(blocks)
    new_block = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    delta = bytes(a ^ b for a, b in zip(blocks[idx], new_block))
    contributions = codec.parity_delta(idx, delta)
    blocks2 = list(blocks)
    blocks2[idx] = new_block
    parity2 = codec.encode(blocks2)
    for j in range(codec.m):
        patched = bytes(a ^ b for a, b in zip(parity[j], contributions[j]))
        assert patched == parity2[j], (codec.name, j)


@pytest.mark.parametrize("factory", CODECS)
def test_stripe_apply_delta_in_place(factory):
    codec = factory()
    rng = np.random.default_rng(3)
    blocks = [rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
              for _ in range(3)]
    parity = codec.encode(blocks)
    new_block = rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
    delta = bytes(a ^ b for a, b in zip(blocks[1], new_block))
    buf = bytearray(parity[0])
    codec.apply_delta(buf, 0, 1, delta)
    blocks2 = [blocks[0], new_block, blocks[2]]
    assert bytes(buf) == codec.encode(blocks2)[0]


@pytest.mark.parametrize("factory", CODECS)
def test_stripe_solve_one_elementwise(factory):
    """Degraded reads rebuild a slice of one block from parity 0."""
    codec = factory()
    rng = np.random.default_rng(9)
    blocks = [rng.integers(0, 256, 512, dtype=np.uint8).tobytes()
              for _ in range(3)]
    parity = codec.encode(blocks)
    lo, hi = 128, 192
    for target in range(3):
        known = {j: blocks[j][lo:hi] for j in range(3) if j != target}
        out = codec.solve_one(target, known, parity[0][lo:hi])
        assert out == blocks[target][lo:hi]


def test_stripe_solve_one_requires_all_others():
    codec = XorStripeCodec(3, 512)
    with pytest.raises(CodingError):
        codec.solve_one(0, {1: b"x" * 8}, b"y" * 8)


def test_stripe_block_size_mismatch():
    codec = XorStripeCodec(3, 512)
    with pytest.raises(CodingError):
        codec.encode([b"short"] * 3)


def test_make_codec():
    assert make_codec("xor", 3, 512).name == "xor"
    assert make_codec("rs", 3, 512).name == "rs"
    with pytest.raises(CodingError):
        make_codec("lrc", 3, 512)
    with pytest.raises(CodingError):
        make_codec("xor", 3, 512, m=1)


def test_xor_codec_unsupported_m():
    with pytest.raises(CodingError):
        XorStripeCodec(3, 512, m=3)


def test_xor_codec_indivisible_block():
    with pytest.raises(CodingError):
        XorStripeCodec(3, 510)  # 510 not divisible by p-1


# ---------------------------------------------------------------- layout

def test_layout_rotation_balances_parity():
    layout = StripeLayout([0, 1, 2, 3, 4], 3, 2)
    p_nodes = [layout.node_of(s, layout.k) for s in range(5)]
    assert sorted(p_nodes) == [0, 1, 2, 3, 4]


def test_layout_positions_distinct_nodes():
    layout = StripeLayout([0, 1, 2, 3, 4], 3, 2)
    for s in range(10):
        nodes = [layout.node_of(s, j) for j in range(5)]
        assert sorted(nodes) == [0, 1, 2, 3, 4]


def test_layout_size_checked():
    with pytest.raises(CodingError):
        StripeLayout([0, 1, 2], 3, 2)


def test_layout_helpers():
    layout = StripeLayout([0, 1, 2, 3, 4], 3, 2)
    data = {layout.node_of(0, j) for j in range(layout.k)}
    parity = {layout.node_of(0, layout.k + j) for j in range(layout.m)}
    assert len(data) == 3 and len(parity) == 2
    assert data | parity == {0, 1, 2, 3, 4}
