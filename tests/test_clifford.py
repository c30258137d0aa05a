"""Exactness of the representation and the two contraction identities."""

import re

import numpy as np
import pytest

from diracbound import (DimensionError, NotSymmetric, ParameterRange,
                        ShapeError, build_rep, run_identity_batch,
                        verify_lemma15, verify_ricci_trace)


@pytest.mark.parametrize("n", range(2, 9))
def test_anticommutation_bit_exact(n):
    rep = build_rep(n)
    size = 2 ** (n // 2)
    assert all(g.shape == (size, size) for g in rep.generators)
    eye = np.eye(size)
    for i, gi in enumerate(rep.generators):
        for j, gj in enumerate(rep.generators):
            anti = gi @ gj + gj @ gi
            want = -2.0 * eye if i == j else np.zeros_like(eye)
            # entries are exact units, so no tolerance at all
            assert np.array_equal(anti, want), (n, i, j)


def test_dimension_gate():
    for n in (1, 9):
        with pytest.raises(DimensionError):
            build_rep(n)


def test_trace_identity_exact_on_identity():
    res = verify_ricci_trace(build_rep(4), np.eye(4))
    assert res.residual_full == 0.0
    assert res.residual_traceless == 0.0


def test_trace_identity_random_symmetric():
    rng = np.random.default_rng(21)
    rep = build_rep(5)
    for _ in range(100):
        S = rng.standard_normal((5, 5))
        res = verify_ricci_trace(rep, (S + S.T) / 2)
        assert res.residual_full <= 1e-12
        assert res.residual_traceless <= 1e-12


def test_symmetry_gate_and_override():
    rep = build_rep(3)
    S = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotSymmetric):
        verify_ricci_trace(rep, S)
    res = verify_ricci_trace(rep, S, enforce_symmetry=False)
    assert res.residual_full > 0.1


def test_antisymmetric_residual_scales_linearly():
    rep = build_rep(4)
    residuals = []
    for eps in (1e-3, 1e-2, 1e-1):
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = eps / np.sqrt(2), -eps / np.sqrt(2)  # Frobenius eps
        res = verify_ricci_trace(rep, A, enforce_symmetry=False)
        residuals.append(res.residual_full)
    assert residuals[1] == pytest.approx(10 * residuals[0], rel=1e-9)
    assert residuals[2] == pytest.approx(10 * residuals[1], rel=1e-9)
    # unit perturbation leaves a residual of sqrt(2), far above 0.1
    assert 10 * residuals[2] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_shape_gates():
    rep = build_rep(4)
    with pytest.raises(ShapeError):
        verify_ricci_trace(rep, np.eye(3))
    with pytest.raises(ShapeError):
        verify_lemma15(rep, np.zeros((3, 3, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        verify_lemma15(rep, np.zeros((4, 4, 4)), np.zeros(5))
    lopsided = np.zeros((4, 4, 4))
    lopsided[0, 1, 2] = 1.0  # not symmetric in the last two slots
    with pytest.raises(ShapeError, match="slots"):
        verify_lemma15(rep, lopsided, np.zeros(4))


def test_lemma_zero_tensor():
    assert verify_lemma15(build_rep(4), np.zeros((4, 4, 4)), np.ones(4)) == 0.0


def _totally_symmetric(rng, n):
    T = rng.standard_normal((n, n, n))
    out = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(T, perm)
    return out / 6.0


def test_lemma_vanishes_on_totally_symmetric():
    rng = np.random.default_rng(22)
    rep = build_rep(4)
    for _ in range(100):
        T = _totally_symmetric(rng, 4)
        Y = rng.standard_normal(4)
        assert verify_lemma15(rep, T, Y) <= 1e-12


def test_lemma_invariant_under_symmetric_shift():
    rng = np.random.default_rng(23)
    rep = build_rep(5)
    T = rng.standard_normal((5, 5, 5))
    T = (T + np.swapaxes(T, 1, 2)) / 2  # slot-symmetric but generic
    Y = rng.standard_normal(5)
    base = verify_lemma15(rep, T, Y)
    assert base > 0.1
    shifted = verify_lemma15(rep, T + 3.0 * _totally_symmetric(rng, 5), Y)
    assert shifted == pytest.approx(base, abs=1e-11)


def test_lemma_unit_counterexample():
    # T(0, 2, 1) = T(0, 1, 2) = 1 with Y = e3 contracts to B = e1 (x) e2,
    # whose commutator sum is exactly -2 g1 g2: operator norm 2
    rep = build_rep(4)
    T = np.zeros((4, 4, 4))
    T[0, 2, 1] = T[0, 1, 2] = 1.0
    Y = np.zeros(4)
    Y[2] = 1.0
    assert verify_lemma15(rep, T, Y) == pytest.approx(2.0, rel=1e-12)


def test_batch_summary_deterministic():
    a = run_identity_batch(4, 40, 99)
    b = run_identity_batch(4, 40, 99)
    assert a == b
    c = run_identity_batch(4, 40, 100)
    assert c != a


def test_batch_rejects_empty():
    with pytest.raises(ValueError):
        run_identity_batch(4, 0, 1)


def test_batch_trials_capped_before_allocating(monkeypatch):
    class Unspawnable:
        def __init__(self, seed):
            pass

        def spawn(self, count):
            raise AssertionError("streams spawned")

    def no_empty(*args, **kwargs):
        raise AssertionError("batch arrays allocated")

    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    monkeypatch.setattr(np, "empty", no_empty)
    with pytest.raises(ParameterRange, match="1024 MiB") as refused:
        run_identity_batch(8, 10**18, 0)
    limit = int(re.search(r"at most (\d+) at n = 8 ", str(refused.value)).group(1))
    assert 10 * 2000 <= limit  # a 2000-trial batch at n = 8 stays far inside
    with pytest.raises(ParameterRange, match=f"at most {limit} "):
        run_identity_batch(8, limit + 1, 0)
    with pytest.raises(AssertionError, match="streams spawned"):
        run_identity_batch(8, limit, 0)  # the largest batch passes the cap


def test_batch_residuals_small_every_dimension():
    for n in range(2, 9):
        s = run_identity_batch(n, 50, 7)
        assert s.trace_residual_full <= 1e-12
        assert s.trace_residual_traceless <= 1e-12
        assert s.lemma_residual <= 1e-12
