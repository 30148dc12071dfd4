"""Pluggable compression for checkpoint deltas.

The paper uses LZ4 for its speed and notes the algorithm is orthogonal to
the design.  Here zlib at level 1 plays that role (fast byte-stream
compression of a mostly-zero XOR delta) on every host, so the checkpoint
bytes of a run do not depend on which optional packages are installed.
A null compressor is provided for the no-compression ablation.
"""

from __future__ import annotations

import abc
import zlib

from ..errors import ConfigError

__all__ = ["Compressor", "ZlibCompressor", "NullCompressor",
           "make_compressor"]


class Compressor(abc.ABC):
    """Byte-stream compressor interface."""

    name: str

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        ...

    @abc.abstractmethod
    def decompress(self, data: bytes) -> bytes:
        ...


class ZlibCompressor(Compressor):
    """zlib at level 1, its fastest (LZ4 stand-in; see DESIGN.md)."""

    name = "zlib1"

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, 1)

    def decompress(self, data: bytes) -> bytes:
        return zlib.decompress(data)


class NullCompressor(Compressor):
    """Identity "compression" — the no-compression ablation."""

    name = "none"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, data: bytes) -> bytes:
        return bytes(data)


def make_compressor(name: str) -> Compressor:
    """The compressor a ``CheckpointConfig.compression`` value names."""
    if name == "zlib":
        return ZlibCompressor()
    if name == "none":
        return NullCompressor()
    raise ConfigError(f"unknown compressor {name!r}")
