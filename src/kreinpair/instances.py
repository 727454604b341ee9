"""Generators for random and engineered operator instances.

A matrix T is dissipative in the Krein space with symmetry J exactly when
J T is dissipative in the Euclidean sense, so random instances are built
as J (H + i Q) with H Hermitian and Q positive semidefinite; the kernel of
Q is then the symmetric domain.  Engineered variants control the real
point spectrum and the degeneration rate of the defect block.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, checked_integer, checked_real
from .krein import KreinSpace, OperatorWithDomain
from .subspaces import orthonormal_span
from .tolerances import WEAK_DEFECT_TOL

__all__ = [
    "random_unitary",
    "random_canonical_symmetry",
    "random_dissipative",
    "real_spectrum_instance",
    "scaled_defect_instance",
]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_canonical_symmetry(n: int, rng: np.random.Generator,
                              definite: bool = False) -> np.ndarray:
    """Random Hermitian involution; ``definite`` forces the identity signature."""
    if definite:
        signs = np.ones(n)
    else:
        signs = rng.choice([-1.0, 1.0], size=n)
        if np.all(signs == -1.0):
            signs[rng.integers(n)] = 1.0
    u = random_unitary(n, rng)
    j = (u * signs) @ u.conj().T
    return 0.5 * (j + j.conj().T)


def _random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def _random_psd(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Positive semidefinite with the given rank and eigenvalues in [0.1, 10],
    so rank decisions stay far away from the tolerance band."""
    u = random_unitary(n, rng)
    eigs = np.zeros(n)
    eigs[:rank] = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=rank))
    q = (u * eigs) @ u.conj().T
    return 0.5 * (q + q.conj().T)


def random_dissipative(n: int, rng: np.random.Generator, *,
                       defect: int | None = None,
                       domain_dim: int | None = None,
                       definite: bool = False) -> OperatorWithDomain:
    """Random dissipative operator with a controlled defect rank.

    ``defect`` is the rank of the dissipation form (default: random in
    [1, n]); ``domain_dim`` restricts the operator to a random subspace.
    A size that is no integer, or out of range, raises
    :class:`DimensionMismatch` before any draw.
    """
    n = checked_integer(n, "n", 1)
    if defect is not None and checked_integer(defect, "defect", 0) > n:
        raise DimensionMismatch(f"defect must be at most n = {n}, got {defect!r}")
    if domain_dim is not None and checked_integer(domain_dim, "domain_dim", 0) > n:
        raise DimensionMismatch(f"domain_dim must be at most n = {n}, got {domain_dim!r}")
    if defect is None:
        defect = int(rng.integers(1, n + 1))
    j = random_canonical_symmetry(n, rng, definite=definite)
    a = _random_hermitian(n, rng) + 1j * _random_psd(n, defect, rng)
    space = KreinSpace(j)
    matrix = j @ a
    domain = None
    if domain_dim is not None:
        raw = rng.standard_normal((n, domain_dim)) + 1j * rng.standard_normal(
            (n, domain_dim)
        )
        domain = orthonormal_span(raw)
    return OperatorWithDomain(space, matrix, domain)


def real_spectrum_instance(n: int, rng: np.random.Generator,
                           n_real: int):
    """Dissipative operator with an engineered real point spectrum.

    Block construction in a random unitary frame: a real diagonal block
    commuting with a diagonal symmetry (hence symmetric with real
    eigenvalues) plus a strictly dissipative block, which cannot carry real
    eigenvalues.  Returns the operator, the planted real eigenvalues and
    the planted symmetric domain.  Sizes other than integers with
    ``1 <= n_real < n`` raise :class:`DimensionMismatch` before any draw.
    """
    n_real = checked_integer(n_real, "n_real", 1)
    if checked_integer(n, "n", 2) <= n_real:
        raise DimensionMismatch(f"need 1 <= n_real < n, got n_real = {n_real}, n = {n}")
    frame = random_unitary(n, rng)
    k = n - n_real
    reals = np.sort(rng.uniform(-3.0, 3.0, size=n_real))
    # keep planted eigenvalues separated so eigenspaces stay one-dimensional
    reals += 0.5 * np.arange(n_real)
    signs_sym = rng.choice([-1.0, 1.0], size=n_real)
    j_block = rng.choice([-1.0, 1.0], size=k)
    a_block = _random_hermitian(k, rng) + 1j * _random_psd(k, k, rng)
    matrix = np.zeros((n, n), dtype=np.complex128)
    matrix[:n_real, :n_real] = np.diag(reals)
    matrix[n_real:, n_real:] = np.diag(j_block) @ a_block
    j = np.zeros((n, n))
    j[:n_real, :n_real] = np.diag(signs_sym)
    j[n_real:, n_real:] = np.diag(j_block)
    matrix = frame @ matrix @ frame.conj().T
    j = frame @ j @ frame.conj().T
    space = KreinSpace(0.5 * (j + j.conj().T))
    op = OperatorWithDomain(space, matrix)
    sym_domain = orthonormal_span(frame[:, :n_real])
    return op, [complex(v) for v in reals], sym_domain


def scaled_defect_instance(eps: float) -> OperatorWithDomain:
    """Two strictly dissipative directions with defect scales 1 and eps.

    As eps decreases, the trace image degenerates: its smallest Gram
    eigenvalue shrinks like eps while the contraction norm climbs to 1.
    The rank tolerance is :data:`~kreinpair.tolerances.WEAK_DEFECT_TOL`,
    below the default so the weak direction is not silently absorbed into
    the symmetric part before the completeness criteria, which work at
    their own shared threshold, can see it.  An ``eps`` that is no positive
    real number raises :class:`DimensionMismatch`.
    """
    if checked_real(eps, "eps") <= 0:
        raise DimensionMismatch(f"eps must be positive, got {eps!r}")
    space = KreinSpace(np.eye(2), tol=WEAK_DEFECT_TOL)
    matrix = np.diag([1j, 1j * eps])
    return OperatorWithDomain(space, matrix)
