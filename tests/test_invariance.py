"""Verdicts depend only on the mathematics: the classification, every
dimension and every check of a report stay the same when T is scaled, when
the frame changes unitarily and when the domain basis changes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kreinpair import KreinSpace, OperatorWithDomain, Subspace
from kreinpair.analysis import analyze_operator
from kreinpair.instances import random_dissipative, random_unitary

INVARIANCE = settings(max_examples=40, derandomize=True, deadline=None)
DIMS = st.integers(2, 8)
SEEDS = st.integers(0, 2**32 - 1)


def _instance(n, seed, restricted):
    """Random dissipative operator with a random J, on a random domain when
    ``restricted``; also returns the generator for further draws."""
    rng = np.random.default_rng(seed)
    domain_dim = int(rng.integers(1, n + 1)) if restricted else None
    return random_dissipative(n, rng, domain_dim=domain_dim), rng


def _verdicts(op):
    report = analyze_operator(op)
    return report["classification"], report["dims"], report["checks"]


@INVARIANCE
@given(n=DIMS, seed=SEEDS, restricted=st.booleans(),
       log_c=st.floats(-8.0, 8.0))
def test_scaling_keeps_verdicts(n, seed, restricted, log_c):
    op, _ = _instance(n, seed, restricted)
    scaled = OperatorWithDomain(op.space, 10.0**log_c * op.matrix, op.domain)
    assert _verdicts(scaled) == _verdicts(op)


@INVARIANCE
@given(n=DIMS, seed=SEEDS, restricted=st.booleans())
def test_unitary_frame_keeps_verdicts(n, seed, restricted):
    op, rng = _instance(n, seed, restricted)
    u = random_unitary(n, rng)
    moved = OperatorWithDomain(
        KreinSpace(u @ op.space.J @ u.conj().T),
        u @ op.matrix @ u.conj().T,
        Subspace(n, u @ op.domain.basis),
    )
    assert _verdicts(moved) == _verdicts(op)


@INVARIANCE
@given(n=DIMS, seed=SEEDS, restricted=st.booleans())
def test_domain_basis_keeps_verdicts(n, seed, restricted):
    op, rng = _instance(n, seed, restricted)
    w = random_unitary(op.domain.dim, rng)
    rebased = OperatorWithDomain(op.space, op.matrix,
                                 Subspace(n, op.domain.basis @ w))
    assert _verdicts(rebased) == _verdicts(op)


@pytest.mark.parametrize("c", [1e8, 1e-8])
def test_scaled_probe_passes_every_check(c):
    op = random_dissipative(8, np.random.default_rng(11))
    report = analyze_operator(OperatorWithDomain(op.space, c * op.matrix))
    assert all(report["checks"].values()), report["checks"]


def test_weak_defect_direction_is_not_a_real_eigenvalue():
    # the 1e-9 direction is dissipative at the rank cut, so its eigenvalue
    # 1e-9 i must not count as real either
    op = OperatorWithDomain(KreinSpace(np.eye(3)), np.diag([1j, 1e-9j, 0.5]))
    report = analyze_operator(op)
    assert report["dims"]["defect_part"] == 2
    assert report["real_spectrum"]["real_eigenvalues_op"] == [[0.5, 0.0]]
    assert all(report["checks"].values()), report["checks"]
