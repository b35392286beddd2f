"""Deterministic per-task seed derivation.

Every task of a seeded scan derives its own RNG seed from the master seed
and its task index with a splitmix64-style mix, so a task's result does not
depend on the tasks run before it.  The derivation is a pure function of
(master, index); tasks never share RNG state.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling step on a 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def derive_seed(master: int, index: int) -> int:
    """Seed for task number ``index`` under a 64-bit master seed."""
    if not 0 <= master <= _MASK:
        raise ValueError(f"master seed must fit in 64 bits, got {master}")
    if index < 0:
        raise ValueError(f"task index must be >= 0, got {index}")
    return splitmix64(splitmix64(master) ^ splitmix64(index))


def task_rng(master: int, index: int) -> np.random.Generator:
    """Independent generator for one task of a seeded run."""
    return np.random.default_rng(derive_seed(master, index))
