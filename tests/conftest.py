import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain


@pytest.fixture
def scalar_i():
    """Multiplication by i on C^1, Euclidean metric."""
    return OperatorWithDomain(KreinSpace(np.eye(1)), np.array([[1j]]))


@pytest.fixture
def mixed_diag():
    """diag(1, i) on C^2, Euclidean metric: one symmetric, one defect direction."""
    return OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1.0, 1j]))


@pytest.fixture
def krein_pm():
    """diag(i, -i) with the indefinite symmetry diag(1, -1); dissipative in
    the Krein sense although half the spectrum sits in the lower half plane."""
    return OperatorWithDomain(
        KreinSpace(np.diag([1.0, -1.0])), np.diag([1j, -1j])
    )


@pytest.fixture
def hermitian_full():
    """A full-domain Hermitian matrix: symmetric with zero defect."""
    return OperatorWithDomain(KreinSpace(np.eye(3)), np.diag([1.0, 2.0, -0.5]))


def e(n, k):
    v = np.zeros(n, dtype=np.complex128)
    v[k] = 1.0
    return v


def random_domain_samples(op, count, rng):
    """Random vectors in the operator domain, as columns."""
    b = op.domain.basis
    d = b.shape[1]
    coeffs = rng.standard_normal((d, count)) + 1j * rng.standard_normal((d, count))
    return b @ coeffs
