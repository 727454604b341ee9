import numpy as np
import pytest

from kreinpair import DimensionMismatch, gap_distance, split
from kreinpair.instances import (
    random_canonical_symmetry,
    random_dissipative,
    random_unitary,
    real_spectrum_instance,
    scaled_defect_instance,
)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(0)
    u = random_unitary(5, rng)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)


def test_random_symmetry_is_hermitian_involution():
    rng = np.random.default_rng(1)
    for _ in range(5):
        j = random_canonical_symmetry(int(rng.integers(1, 9)), rng)
        assert np.allclose(j, j.conj().T, atol=1e-12)
        assert np.allclose(j @ j, np.eye(j.shape[0]), atol=1e-12)


def test_random_dissipative_classifies_and_controls_defect():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        defect = int(rng.integers(1, n + 1))
        op = random_dissipative(n, rng, defect=defect)
        assert op.classify() == "dissipative"
        s = split(op)
        assert s.defect.domain.dim == defect


def test_real_spectrum_instance_plants_symmetric_domain():
    rng = np.random.default_rng(3)
    op, reals, sym_domain = real_spectrum_instance(7, rng, 3)
    assert op.classify() == "dissipative"
    s = split(op)
    assert gap_distance(s.symmetric.domain, sym_domain) < 1e-8
    assert len(reals) == 3


def test_scaled_defect_instance_validates():
    with pytest.raises(DimensionMismatch):
        scaled_defect_instance(0.0)
    op = scaled_defect_instance(0.5)
    assert op.classify() == "dissipative"
