"""Seeded randomness for deterministic simulations.

Every stochastic choice in the simulator goes through a :class:`SimRandom`
so that a run is fully reproducible from its seed, and independent
subsystems can derive decorrelated child streams by name.
"""

from __future__ import annotations

import random
import zlib
from itertools import repeat, starmap
from typing import Sequence


class SimRandom:
    """A named, seedable random stream."""

    def __init__(self, seed: int = 0, name: str = "root"):
        self.seed = int(seed)
        self.name = name
        self._rng = random.Random(self.seed)

    def child(self, name: str) -> "SimRandom":
        """Derive an independent stream keyed by ``name``.

        The child seed mixes the parent seed with a CRC of the name, so the
        same (seed, name) pair always yields the same stream regardless of
        creation order.
        """
        mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) % (2**63)
        return SimRandom(mixed, name=f"{self.name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def random(self) -> float:
        return self._rng.random()

    def batch(self, n: int) -> list:
        """``n`` sequential uniform [0, 1) draws in one call.

        Consumes exactly the same underlying stream as ``n`` calls to
        :meth:`random`, so replacing a per-item loop with one batch draw
        replays identically from the same seed.
        """
        if n < 0:
            raise ValueError(f"batch size must be >= 0, got {n}")
        return list(starmap(self._rng.random, repeat((), n)))

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def choice(self, seq: Sequence):
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._rng.random() < probability

    def __repr__(self) -> str:
        return f"<SimRandom {self.name} seed={self.seed}>"
