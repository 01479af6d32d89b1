"""Random-number-generator plumbing.

All stochastic code in the library accepts either a :class:`numpy.random.Generator`,
an integer seed, or ``None`` and normalises it through :func:`ensure_rng` so
simulations are reproducible.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given seed-or-generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn(rng: np.random.Generator, count: int) -> list:
    """Spawn ``count`` statistically independent child generators."""
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]
