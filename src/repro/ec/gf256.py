"""GF(2^8) arithmetic for Reed-Solomon coding.

The field is GF(2^8) with the AES/ISA-L-standard primitive polynomial
x^8 + x^4 + x^3 + x^2 + 1 (0x11D).  Scalar ops use log/antilog tables;
vector ops (scalar times a byte buffer) use a 256-entry product table per
scalar so that numpy does the heavy lifting — this is the GF multiply the
paper's Table 2 measures against plain XOR.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "gf_mul",
    "gf_inv",
    "gf_mul_buffer",
    "gf_addmul_buffer",
    "gf_matrix_invert",
    "gf_matrix_vector",
    "EXP_TABLE",
    "LOG_TABLE",
]

_POLY = 0x11D

# Build exp/log tables for generator 2 (primitive for 0x11D).
EXP_TABLE = np.zeros(512, dtype=np.uint8)
LOG_TABLE = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    EXP_TABLE[_i] = _x
    LOG_TABLE[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _POLY
EXP_TABLE[255:510] = EXP_TABLE[0:255]  # wraparound for a+b < 510

# Per-scalar multiplication tables, built lazily: _MUL_TABLES[s][b] = s*b.
_MUL_TABLES: dict = {}


def _mul_table(scalar: int) -> np.ndarray:
    table = _MUL_TABLES.get(scalar)
    if table is None:
        if scalar == 0:
            table = np.zeros(256, dtype=np.uint8)
        else:
            logs = LOG_TABLE[1:] + LOG_TABLE[scalar]
            table = np.zeros(256, dtype=np.uint8)
            table[1:] = EXP_TABLE[logs]
        _MUL_TABLES[scalar] = table
    return table


def gf_mul(a: int, b: int) -> int:
    """Field product of two elements."""
    if a == 0 or b == 0:
        return 0
    return int(EXP_TABLE[LOG_TABLE[a] + LOG_TABLE[b]])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(256)")
    return int(EXP_TABLE[255 - LOG_TABLE[a]])


def gf_mul_buffer(scalar: int, buf: np.ndarray) -> np.ndarray:
    """scalar * buf element-wise over GF(256); *buf* is uint8."""
    return _mul_table(scalar)[buf]


def gf_addmul_buffer(acc: np.ndarray, scalar: int, buf: np.ndarray) -> None:
    """acc ^= scalar * buf, in place (the RS encode/decode kernel)."""
    if scalar == 0:
        return
    if scalar == 1:
        np.bitwise_xor(acc, buf, out=acc)
    else:
        np.bitwise_xor(acc, _mul_table(scalar)[buf], out=acc)


def gf_matrix_vector(matrix: Sequence[Sequence[int]],
                     shards: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Multiply a coefficient matrix by a vector of byte buffers."""
    width = len(shards[0])
    out: List[np.ndarray] = []
    for row in matrix:
        acc = np.zeros(width, dtype=np.uint8)
        for coef, shard in zip(row, shards):
            gf_addmul_buffer(acc, coef, shard)
        out.append(acc)
    return out


def gf_matrix_invert(matrix: Sequence[Sequence[int]]) -> List[List[int]]:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination."""
    n = len(matrix)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in aug):
        raise ValueError("matrix is not square")
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular over GF(256)")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(v, inv_p) for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v ^ gf_mul(factor, p)
                          for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
