"""Deterministic random streams keyed by (master seed, stream index).

Every Monte Carlo replicate derives its own stream, so results are independent
of scheduling and worker count. PCG64 seeded through SeedSequence gives the
same byte sequence on every platform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RandomStream"]


@dataclass(frozen=True)
class RandomStream:
    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
            if not 0 <= int(v) < 2**64:
                raise ValueError(f"{name} must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(self.master_seed), int(self.stream_index)]))
        )
