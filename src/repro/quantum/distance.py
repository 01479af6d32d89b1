"""Distance measures between quantum states.

Implements the trace distance and fidelity exactly as defined in Section 2.1
of the paper, together with the Fuchs-van de Graaf inequalities (Fact 1) used
in the lower-bound arguments of Section 8.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.quantum.states import density_matrix


def trace_norm(matrix: np.ndarray) -> float:
    """The trace norm ``||A||_1 = tr sqrt(A^dagger A)`` (sum of singular values)."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2:
        raise DimensionMismatchError("trace norm is defined for matrices")
    singular_values = np.linalg.svd(mat, compute_uv=False)
    return float(np.sum(singular_values))


def trace_distance(rho, sigma) -> float:
    """``D(rho, sigma) = ||rho - sigma||_1 / 2`` (Section 2.1).

    Accepts kets or density matrices for either argument.
    """
    rho_m = density_matrix(rho)
    sigma_m = density_matrix(sigma)
    if rho_m.shape != sigma_m.shape:
        raise DimensionMismatchError(
            f"states have different dimensions: {rho_m.shape} vs {sigma_m.shape}"
        )
    return 0.5 * trace_norm(rho_m - sigma_m)


def fidelity(rho, sigma) -> float:
    """``F(rho, sigma) = tr sqrt(sqrt(rho) sigma sqrt(rho))`` (Section 2.1)."""
    rho_m = density_matrix(rho)
    sigma_m = density_matrix(sigma)
    if rho_m.shape != sigma_m.shape:
        raise DimensionMismatchError(
            f"states have different dimensions: {rho_m.shape} vs {sigma_m.shape}"
        )
    sqrt_rho = _matrix_sqrt(rho_m)
    inner = sqrt_rho @ sigma_m @ sqrt_rho
    value = np.trace(_matrix_sqrt(inner)).real
    return float(min(max(value, 0.0), 1.0 + 1e-9))


def purity(rho) -> float:
    """``tr(rho^2)``; equals 1 exactly for pure states."""
    rho_m = density_matrix(rho)
    return float(np.real(np.trace(rho_m @ rho_m)))


def fuchs_van_de_graaf_bounds(rho, sigma) -> Tuple[float, float]:
    """The lower/upper bounds of Fact 1: ``1 - F <= D <= sqrt(1 - F^2)``.

    Returns the tuple ``(1 - F, sqrt(1 - F^2))`` so callers can check that the
    trace distance lies in between.
    """
    f = fidelity(rho, sigma)
    lower = 1.0 - f
    upper = float(np.sqrt(max(0.0, 1.0 - f * f)))
    return lower, upper


def pure_state_overlap(psi: np.ndarray, phi: np.ndarray) -> float:
    """``|<psi|phi>|`` for two kets."""
    psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
    phi = np.asarray(phi, dtype=np.complex128).reshape(-1)
    if psi.shape != phi.shape:
        raise DimensionMismatchError("kets have different dimensions")
    return float(abs(np.vdot(psi, phi)))


def _matrix_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix."""
    hermitian = (matrix + matrix.conj().T) / 2
    eigenvalues, eigenvectors = np.linalg.eigh(hermitian)
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.conj().T
