"""Deterministic random streams keyed by (master seed, stream index).

Every Monte Carlo replicate derives its own stream, so results are independent
of scheduling and worker count. Stream (s, i) is PCG64 seeded with the words
`SeedSequence([s, i]).generate_state(4, np.uint64)`, which give the same byte
sequence on every platform.

`stream.block(rows)` computes those words for a whole range of indices in one
vectorised pass: a NumPy port of SeedSequence's entropy mixing for the two
entropy values (seed, index). It gives the same words, so a stream from a
block draws the same bytes as the stream built alone; a test against the
installed NumPy guards this.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RandomStream"]

_MASK32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)


def _powers(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, init * mult**2, ... mod 2**32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx). The hash
# constant is multiplied on every call, so call t uses powers t and t + 1:
# 4 calls fill the pool and 12 mix it; generate_state(4, uint64) makes 8.
_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 17)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one call per column of `value` (broadcast):
    column j uses consts[j] and consts[j + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def _seed_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Row i - start is `SeedSequence([master_seed, i]).generate_state(4, np.uint64)`
    for i in start ... stop - 1: a (stop - start, 4) uint64 array."""
    index = np.arange(stop - start, dtype=np.uint64)
    if index.size:  # only an empty block starts at 2**64, which uint64 cannot hold
        index += np.uint64(start)
    # The entropy [seed words, index words] zero-padded to the pool size 4.
    # A seed below 2**64 is one or two words (`_coerce_to_uint32_array`); an
    # index below 2**32 is one word, and the padding supplies its zero high word.
    seed = [master_seed & _MASK32, master_seed >> 32] if master_seed >> 32 else [master_seed]
    pool = np.zeros((index.size, 4), dtype=np.uint32)
    pool[:, :len(seed)] = seed
    pool[:, len(seed)] = index & np.uint64(_MASK32)
    pool[:, len(seed) + 1] = index >> np.uint64(32)
    pool = _hash(pool, _HASH_A[:5])
    # mix_entropy: each source word is hashed into the three other words. The
    # source does not change within its pass, so the pass is one array step.
    t = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hash(pool[:, src:src + 1], _HASH_A[t:t + 4]))
        t += 3
    # generate_state(4, uint64): 8 words cycling the pool, paired low word first.
    state = _hash(np.tile(pool, 2), _HASH_B).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _as_int(name: str, v) -> int:
    if not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    return int(v)


class _SeedWords(ISeedSequence):
    """Hands PCG64 its precomputed seed words.

    Only PCG64's request, generate_state(4, uint64), is served: if NumPy ever
    seeds it another way, this raises instead of drawing other bytes.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"seed words serve generate_state(4, uint64), "
                             f"not ({n_words}, {np.dtype(dtype)})")
        return self.words


@dataclass(frozen=True)
class RandomStream:
    master_seed: int
    stream_index: int = 0
    # PCG64 seed words computed by `block`; None: SeedSequence computes them.
    _words: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            if not 0 <= _as_int(name, getattr(self, name)) < 2**64:
                raise ValueError(f"{name} must fit in 64 bits")

    def block(self, rows: int) -> list[RandomStream]:
        """Streams stream_index ... stream_index + rows - 1 of this stream's seed,
        their seed words computed in one pass. Each equals, and draws the same
        bytes as, RandomStream(master_seed, i)."""
        start = int(self.stream_index)
        stop = start + _as_int("rows", rows)
        if not start <= stop <= 2**64:
            raise ValueError("a block needs rows >= 0 and stream_index + rows <= 2**64")
        words = _seed_words(int(self.master_seed), start, stop)
        words.flags.writeable = False
        streams = []
        for index, row in zip(range(start, stop), words):
            # Bypasses __init__: this stream's seed is valid and the range is checked above.
            stream = object.__new__(type(self))
            stream.__dict__.update(master_seed=self.master_seed, stream_index=index, _words=row)
            streams.append(stream)
        return streams

    def generator(self) -> np.random.Generator:
        if self._words is None:
            seed = np.random.SeedSequence([int(self.master_seed), int(self.stream_index)])
        else:
            seed = _SeedWords(self._words)
        return np.random.Generator(np.random.PCG64(seed))
