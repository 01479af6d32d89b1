"""Haar-random pure states and random density matrices.

Used by the adversarial soundness search (random restarts of the seesaw
optimisation) and by the property-based tests.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.utils.rng import RngLike, ensure_rng


def haar_random_state(dim: int, rng: RngLike = None) -> np.ndarray:
    """A Haar-random pure state of the given dimension."""
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    generator = ensure_rng(rng)
    real = generator.normal(size=dim)
    imag = generator.normal(size=dim)
    vec = real + 1j * imag
    return vec / np.linalg.norm(vec)


def random_density_matrix(dim: int, rank: int | None = None, rng: RngLike = None) -> np.ndarray:
    """A random density matrix of the given dimension and rank (default: full rank)."""
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    generator = ensure_rng(rng)
    if rank is None:
        rank = dim
    if rank <= 0 or rank > dim:
        raise DimensionMismatchError(f"rank must be in [1, {dim}], got {rank}")
    ginibre = generator.normal(size=(dim, rank)) + 1j * generator.normal(size=(dim, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real
