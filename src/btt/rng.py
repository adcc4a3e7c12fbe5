"""Seeded randomness helpers.

All randomized algorithms in the package draw from a 64-bit seeded
counter-based generator (Philox) so that runs are reproducible and trial
batches can fan out over independent streams derived by a splittable
scheme (SeedSequence spawning).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise InputError(f"{name} must be nonnegative, got {value}")


def make_rng(seed: int) -> np.random.Generator:
    _check_nonnegative("seed", seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def spawn_seeds(seed: int, count: int) -> list[int]:
    """Derive ``count`` independent child seeds from a root seed."""
    _check_nonnegative("seed", seed)
    _check_nonnegative("count", count)
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
