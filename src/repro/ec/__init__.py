"""Erasure coding: GF(256), Reed-Solomon, XOR array codes, block stripes."""

from .gf256 import gf_inv, gf_mul
from .rs import ReedSolomon
from .stripe import (
    RSStripeCodec,
    StripeCodec,
    StripeLayout,
    XorStripeCodec,
    make_codec,
)
from .xorcode import RDP, XCode, XorArrayCode, is_prime

__all__ = [
    "gf_inv",
    "gf_mul",
    "ReedSolomon",
    "RSStripeCodec",
    "StripeCodec",
    "StripeLayout",
    "XorStripeCodec",
    "make_codec",
    "RDP",
    "XCode",
    "XorArrayCode",
    "is_prime",
]
