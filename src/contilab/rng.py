"""Seeded, splittable random streams.

Streams are keyed by a (seed, stream_id) pair feeding a counter-based Philox
generator, so any stream can be reproduced bit-for-bit in isolation and child
streams can be derived on any worker without coordination. Children are
obtained by hashing the parent stream_id together with role tags such as
"env-noise", "agent-noise", or "tie-break".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

DRAW_BLOCK = 512


def reset_blocks(generator: np.random.Generator):
    """The draws a :class:`DrawBuffer` makes at construction, in its order:
    ``standard_normal(DRAW_BLOCK)``, then ``random(DRAW_BLOCK)``.

    Every later draw of the buffer refills one block of its own kind, so a
    trial kernel that calls this first and then reads ``standard_normal`` (or
    ``random``) in bulk sees the buffer's normals (or uniforms) in order.
    """
    return generator.standard_normal(DRAW_BLOCK), generator.random(DRAW_BLOCK)


def _mix(stream_id: int, tags) -> int:
    """Stable 64-bit hash of a parent stream id and a tuple of int/str tags."""
    h = hashlib.blake2b(digest_size=8)
    h.update((stream_id & _MASK64).to_bytes(8, "little"))
    for tag in tags:
        if isinstance(tag, str):
            data = tag.encode("utf-8")
            h.update(b"s")
        elif isinstance(tag, (int, np.integer)):
            data = (int(tag) & _MASK64).to_bytes(8, "little")
            h.update(b"i")
        else:
            raise TypeError(f"stream tags must be int or str, got {type(tag).__name__}")
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible random stream.

    Identical (seed, stream_id) pairs reproduce bit-identical draw sequences;
    distinct pairs give statistically independent Philox keys.
    """

    seed: int
    stream_id: int = 0

    def child(self, *tags) -> "RngStream":
        return RngStream(self.seed, _mix(self.stream_id, tags))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def buffer(self) -> "DrawBuffer":
        return DrawBuffer(self.generator())


class DrawBuffer:
    """Scalar normal/uniform draws served from pre-filled blocks.

    Wraps a Generator so tight simulation loops pay one vectorized draw per
    ``DRAW_BLOCK`` scalars instead of one Generator call each. The underlying
    generator stays accessible for bulk draws (gamma rows, arrays); blocks are
    refilled at fixed points, so consumption order is deterministic.

    Draw layout on the generator: construction draws :func:`reset_blocks`;
    after that each exhausted block is refilled with one draw of its own kind.
    """

    __slots__ = ("generator", "_norm", "_ni", "_unif", "_ui")

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        norm, unif = reset_blocks(generator)
        self._norm = norm.tolist()
        self._ni = 0
        self._unif = unif.tolist()
        self._ui = 0

    def normal(self) -> float:
        i = self._ni
        if i == DRAW_BLOCK:
            self._norm = self.generator.standard_normal(DRAW_BLOCK).tolist()
            i = 0
        self._ni = i + 1
        return self._norm[i]

    def uniform(self) -> float:
        i = self._ui
        if i == DRAW_BLOCK:
            self._unif = self.generator.random(DRAW_BLOCK).tolist()
            i = 0
        self._ui = i + 1
        return self._unif[i]

    def index(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        i = int(self.uniform() * n)
        return n - 1 if i >= n else i
