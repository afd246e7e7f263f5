"""Deterministic sampling for audits and sweeps.

A splitmix64 stream drives every sampler, so identical seeds give identical
instances on any platform.  The family scheme is: each subset of [n] is
included independently with probability 1/2 (one bit per subset, low masks
first).  Antichains are the minimal elements of a uniformly drawn mask list;
patterns are supports cut by fresh random masks.
"""

from __future__ import annotations

from .errors import ShatterlabError
from .families import SetFamily, masks_of_bits

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator; tiny, fast, and identical everywhere."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ShatterlabError(f"splitmix64 seed must be in [0, 2^64), got {seed}")
        self.state = seed

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, k: int) -> int:
        """k random bits, assembled from 64-bit words, low word first."""
        out = 0
        filled = 0
        while filled < k:
            out |= self.next64() << filled
            filled += 64
        return out & ((1 << k) - 1)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; the bound must be at least 1."""
        if bound < 1:
            raise ShatterlabError(f"bound {bound} is below 1")
        k = (bound - 1).bit_length() if bound > 1 else 1
        while True:
            r = self.bits(k)
            if r < bound:
                return r


def random_mask(rng: SplitMix64, n: int) -> int:
    return rng.bits(n) if n else 0


def random_family(rng: SplitMix64, n: int) -> tuple[int, ...]:
    """Masks of a random family: one inclusion bit per subset of [n]."""
    return masks_of_bits(rng.bits(1 << n))


def random_antichain(rng: SplitMix64, n: int, max_members: int) -> tuple[int, ...]:
    """Minimal elements of 1..max_members uniform masks (ascending, deduplicated)."""
    count = 1 + rng.below(max_members)
    drawn = [random_mask(rng, n) for _ in range(count)]
    return SetFamily.of(n, drawn).minimal_elements().masks


def random_system(rng: SplitMix64, n: int, max_members: int):
    """A random antichain with an independent random pattern per member."""
    from .sperner import SpernerSystem
    supports = random_antichain(rng, n, max_members)
    pairs = [(s, s & random_mask(rng, n)) for s in supports]
    return SpernerSystem.of(n, pairs)
