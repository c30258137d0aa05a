"""Exactness of the representation and the two contraction identities."""

import math
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracbound import (DimensionError, NotSymmetric, ParameterRange,
                        ShapeError, build_rep, clifford, run_identity_batch,
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


def test_symmetry_gates_do_not_depend_on_units():
    # both gates are relative to the largest entry: an absolute 1e-14 once
    # refused this S, whose round-off asymmetry is 4.3e-14, and passed S / 1e3
    rep = build_rep(4)
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
    S = q @ np.diag([1e3, 2e3, -5e2, 7.0]) @ q.T
    T = 1e5 * np.stack([q @ np.diag(np.arange(4.0) + k) @ q.T for k in range(4)])
    lopsided_S = S.copy()
    lopsided_S[0, 1] += 1.0
    lopsided_T = T.copy()
    lopsided_T[0, 1, 2] += 1e3
    Y = np.ones(4)
    for k in range(-500, 501):
        verify_ricci_trace(rep, np.ldexp(S, k))
        verify_lemma15(rep, np.ldexp(T, k), Y)
        with pytest.raises(NotSymmetric):
            verify_ricci_trace(rep, np.ldexp(lopsided_S, k))
        with pytest.raises(ShapeError, match="slots"):
            verify_lemma15(rep, np.ldexp(lopsided_T, k), Y)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["S", "T", "Y"])
def test_single_checks_reject_non_finite_input(name, bad):
    # once they went on to a RuntimeWarning and svd's LinAlgError
    args = {"S": np.eye(4), "T": np.zeros((4, 4, 4)), "Y": np.ones(4)}
    args[name][(1,) * args[name].ndim] = bad
    rep = build_rep(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for enforce in (True, False):
            with pytest.raises(ParameterRange, match=f"^{name} must have finite entries$"):
                if name == "S":
                    verify_ricci_trace(rep, args["S"], enforce_symmetry=enforce)
                else:
                    verify_lemma15(rep, args["T"], args["Y"])


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
    with pytest.raises(ParameterRange):
        run_identity_batch(4, 0, 1)


@pytest.mark.parametrize("trials, seed, name", [(0, 1, "trials"), (10, -1, "seed")])
def test_batch_rejects_bad_input_before_spawning(monkeypatch, trials, seed, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("streams spawned")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    with pytest.raises(ParameterRange, match=f"^{name} must be"):
        run_identity_batch(4, trials, seed)


@pytest.mark.parametrize("n, trials, seed, error, name", [
    (8.5, 10, 3, DimensionError, "n"),     # run_identity_batch checks n in build_rep
    ("8", 10, 3, DimensionError, "n"),
    (8, 10, 3.0, ParameterRange, "seed"),
    (8, 2.5, 3, ParameterRange, "trials"),
    (8, 10, math.nan, ParameterRange, "seed"),
    (8, "10", 3, ParameterRange, "trials"),
    (8, 10, "3", ParameterRange, "seed"),
])
def test_batch_rejects_non_integer_arguments(monkeypatch, n, trials, seed, error, name):
    def forbidden(*args, **kwargs):
        raise AssertionError("streams spawned")

    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    with pytest.raises(error, match=f"^{name} must be an integer, got "):
        run_identity_batch(n, trials, seed)


def test_batch_takes_integer_types():
    expected = run_identity_batch(4, 20, 1)
    for n, trials, seed in ((np.int64(4), np.int32(20), np.uint64(1)), (4, 20, True)):
        got = run_identity_batch(n, trials, seed)
        assert got == expected and type(got.seed) is int


def test_batch_trials_capped_before_allocating(monkeypatch):
    class Unspawnable:
        def __init__(self, seed):
            pass

        def spawn(self, count):
            raise AssertionError("streams spawned")

        @property
        def pool(self):     # the stream states are derived from the pool
            raise AssertionError("streams spawned")

    def no_empty(*args, **kwargs):
        raise AssertionError("batch arrays allocated")

    monkeypatch.setattr(np.random, "SeedSequence", Unspawnable)
    monkeypatch.setattr(np, "empty", no_empty)
    with pytest.raises(ParameterRange, match="bounds the run time") as refused:
        run_identity_batch(8, 10**18, 0)
    limit = int(re.search(r"at most (\d+),", str(refused.value)).group(1))
    # every count the old per-n memory caps accepted (27191 at n = 8 up
    # to 808540 at n = 2) stays accepted
    assert limit == clifford.MAX_TRIALS >= 808540
    for n in (2, 8):
        with pytest.raises(ParameterRange, match=f"at most {limit}, "):
            run_identity_batch(n, limit + 1, 0)
        with pytest.raises(AssertionError, match="streams spawned"):
            run_identity_batch(n, limit, 0)  # the largest batch passes the cap


def test_batch_residuals_small_every_dimension():
    for n in range(2, 9):
        s = run_identity_batch(n, 50, 7)
        assert s.trace_residual_full <= 1e-12
        assert s.trace_residual_traceless <= 1e-12
        assert s.lemma_residual <= 1e-12


def _trial_inputs(n, trials, seed):
    """Each trial's (S, T, Y), drawn by three calls to its spawned stream."""
    for stream in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(stream)
        S = rng.standard_normal((n, n))
        yield (S + S.T) / 2.0, _totally_symmetric(rng, n), rng.standard_normal(n)


def _reference_batch(n, trials, seed):
    """The whole-batch computation: three draws per trial, einsum with an
    optimized path, svd of every matrix. From 64 trials at n = 8 (16 at
    n = 4) the path's products are the ones run_identity_batch uses."""
    gam = np.stack(build_rep(n).generators)

    def contract(coeffs):
        return np.einsum("...kl,kab,lbc->...ac", coeffs, gam, gam, optimize=True)

    S, T, Y = map(np.array, zip(*_trial_inputs(n, trials, seed)))
    trace = np.einsum("tkk->t", S)
    full = contract(S) + trace[:, None, None] * np.eye(gam.shape[1])
    traceless = contract(S - (trace / n)[:, None, None] * np.eye(n))
    B = np.einsum("tkil,ti->tkl", T, Y)
    lemma = contract(np.swapaxes(B, 1, 2)) - contract(B)
    worst = [float(np.max(np.linalg.svd(m, compute_uv=False)[..., 0]))
             for m in (full, traceless, lemma)]
    return clifford.BatchSummary(n, trials, seed, *worst)


@pytest.mark.parametrize("n", range(2, 9))
def test_batch_matches_whole_batch_reference(n):
    for trials, seed in ((64, 3), (300, 12345)):
        assert run_identity_batch(n, trials, seed) == _reference_batch(n, trials, seed)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("trials, seed", [(300, 5), (100, 2**100 + 7)])
def test_single_checks_agree_with_the_batch(n, trials, seed):
    # one kernel computes both; the single checks once took the trace with
    # np.trace and the batch with einsum, which differ at n = 8
    rep = build_rep(n)
    full, traceless, lemma = [], [], []
    for S, T, Y in _trial_inputs(n, trials, seed):
        res = verify_ricci_trace(rep, S)
        full.append(res.residual_full)
        traceless.append(res.residual_traceless)
        lemma.append(verify_lemma15(rep, T, Y))
    assert run_identity_batch(n, trials, seed) == clifford.BatchSummary(
        n, trials, seed, max(full), max(traceless), max(lemma))


@settings(max_examples=8)
@given(st.sampled_from([4, 8]), st.integers(64, 300), st.integers(0, 2**300))
@example(8, 257, 2**128 + 1)    # the drawn seeds stay below four words
@example(4, 300, 2**300)
def test_batch_matches_whole_batch_reference_on_drawn_seeds(n, trials, seed):
    assert run_identity_batch(n, trials, seed) == _reference_batch(n, trials, seed)


@given(st.integers(0, 2**400),
       st.sampled_from([0, 255, 256, clifford.MAX_TRIALS - clifford.CHUNK]),
       st.sampled_from([1, 3, clifford.CHUNK]))
@example(0, 0, 3)
@example(2**32 - 1, 255, 3)
@example(2**32, 256, 3)
@example(2**128 - 1, clifford.MAX_TRIALS - clifford.CHUNK, clifford.CHUNK)
@example(2**128, 0, clifford.CHUNK)
def test_stream_states_are_the_spawned_childrens(seed, lo, k):
    # the i-th spawned child is SeedSequence(seed, spawn_key=(i,)), built
    # here directly rather than by spawning up to a million children
    root = np.random.SeedSequence(seed)
    states = clifford._stream_states(root.pool, seed, lo, k)
    assert len(states) == k
    children = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(lo, lo + k)]
    if lo == 0:
        assert [c.state for c in map(np.random.PCG64, root.spawn(k))] == [
            c.state for c in map(np.random.PCG64, children)]
    for i, (got, child) in enumerate(zip(states, children), lo):
        want = np.random.PCG64(child).state["state"]
        assert got == (want["state"], want["inc"]), i


def test_batch_sends_few_matrices_to_svd(monkeypatch):
    sent = []

    def counting(mats):
        sent.append(len(mats))
        return np.linalg.svd(mats, compute_uv=False)[..., 0]

    monkeypatch.setattr(clifford, "_opnorms", counting)
    run_identity_batch(8, 2000, 5)
    # the bounds, not svd, clear all but a few of the 3 x 2000 residuals
    assert 3 <= sum(sent) <= 150, sent
    # in few calls, each about 0.1 ms of numpy's wrapper: an svd call per
    # chunk and stack made 66
    assert len(sent) <= 30, sent


@pytest.mark.parametrize("n", (5, 8))
def test_batch_summary_does_not_depend_on_chunk(monkeypatch, n):
    # 300 trials leave a last chunk of 44 at the default size
    expected = run_identity_batch(n, 300, 11)
    for size in (1, 7, 256, 4096):
        monkeypatch.setattr(clifford, "CHUNK", size)
        assert run_identity_batch(n, 300, 11) == expected, size


@st.composite
def block_batches(draw):
    """(block stacks, index sets, cut points): c stacks of complex
    block-diagonal matrices, nb = 1 or 2 diagonal m x m blocks each, on
    the index sets of a shuffled range(nb m). The blocks are of round-off
    size, with all-zero matrices, exact and one-ulp ties, one outlier, and
    matrices scaled by 2^e for e up to +-500, into the subnormals (e from
    -1070, mostly zeros and one-ulp entries, to -1000, subnormal with
    about 24 bits) and near overflow (e = 1000, 1060); cuts split the
    stacks into chunks."""
    c = draw(st.sampled_from([1, 3]))
    nb = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2, 4, 8]))
    count = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (c * count, nb, m, m)
    mats = 1e-15 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    index = st.integers(0, c * count - 1)
    for i in draw(st.lists(index, max_size=5)):
        mats[i] = 0.0
    for i, j in draw(st.lists(st.tuples(index, index), max_size=5)):
        mats[j] = mats[i]
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3)):
        mats[j] = mats[i]
        mats[j, 0, 0, 0] = (np.nextafter(mats[i, 0, 0, 0].real, np.inf)
                            + 1j * mats[i, 0, 0, 0].imag)
    if draw(st.booleans()):
        mats[draw(index)] *= 1e3
    if draw(st.booleans()):
        scales = draw(st.lists(st.sampled_from([-1070, -1030, -1000, -500, -499, -1,
                                                0, 1, 499, 500, 1000, 1060]),
                               min_size=c * count, max_size=c * count))
        exps = np.array(scales)[:, None, None, None]
        mats = np.ldexp(mats.real, exps) + 1j * np.ldexp(mats.imag, exps)
    blocks = rng.permutation(nb * m).reshape(nb, m)
    cuts = sorted(draw(st.lists(st.integers(1, count), max_size=6)))
    return mats.reshape(c, count, nb, m, m), blocks, cuts


@given(block_batches())
def test_pruned_max_is_the_svd_max(batch):
    stacks, blocks, cuts = batch
    acc = clifford._PrunedMax(blocks, len(stacks))
    for part in np.split(stacks, cuts, axis=1):
        if part.shape[1]:
            acc.add(part)
    full = clifford._expand(blocks, stacks)
    assert acc.values == [float(np.max(np.linalg.svd(m, compute_uv=False)[..., 0]))
                          for m in full]


@pytest.mark.parametrize("n", range(2, 9))
def test_products_vanish_outside_the_chirality_blocks(n):
    rep = build_rep(n)
    gam = np.stack(rep.generators)
    d = gam.shape[1]
    full = (gam[:, None] @ gam[None, :]).reshape(n * n, d, d)
    blocks = clifford._chirality_blocks(rep)
    # two d/2 x d/2 blocks for even n, one d x d block for odd n
    assert blocks.shape == ((2, d // 2) if n % 2 == 0 else (1, d))
    assert sorted(blocks.ravel().tolist()) == list(range(d))
    # every product is its blocks, scattered back, bit for bit
    assert np.array_equal(clifford._expand(blocks, clifford._products(rep, blocks)), full)


@pytest.mark.parametrize("n", range(2, 9))
def test_block_residuals_equal_the_full_contraction(n):
    # one chunk's residuals, expanded, are the (4k, n^2) coefficients times
    # all d^2 columns of the products, trace-corrected, bit for bit
    rep = build_rep(n)
    k = clifford.CHUNK
    kernel = clifford._Kernel(rep, k)
    states = clifford._stream_states(np.random.SeedSequence(9).pool, 9, 0, k)
    kernel.draw(np.random.Generator(np.random.PCG64(0)), states)
    got = clifford._expand(kernel.blocks, kernel.residuals(k))
    coeffs = kernel.coeffs(k)       # all four rows, now filled in
    gam = np.stack(rep.generators)
    d = gam.shape[1]
    products = (gam[:, None] @ gam[None, :]).reshape(n * n, d * d)
    want = (coeffs.reshape(4 * k, n * n) @ products.view(float)).view(complex)
    want = want.reshape(4, k, d, d)
    want[0] += np.einsum("tkk->t", coeffs[0])[:, None, None] * np.eye(d)
    want[2] -= want[3]
    assert np.array_equal(got.view(np.uint64), want[:3].view(np.uint64))


def _batch_peak(trials):
    tracemalloc.start()
    try:
        run_identity_batch(8, trials, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_trials():
    small = _batch_peak(2000)
    large = _batch_peak(20000)
    # one chunk is held, not the batch: well under 4 MiB more
    assert large - small < 4 * 2**20, (small, large)
    # and only one chunk's buffers, of 64 trials: about 1.8 MiB at n = 8.
    # 128-trial chunks allocated afresh each time peaked at 3.9 MiB
    assert small < 3 * 2**20, small


_FAULT_PROBE = """
import resource
from diracbound import run_identity_batch
run_identity_batch(8, 2000, 3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_identity_batch(8, 20000, 3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_batch_reuses_its_buffers():
    # the chunk buffers are reused, not returned to the system and faulted
    # in again on every chunk: that cost about 10^5 faults at 20000 trials.
    # A fresh interpreter, since earlier tests raise glibc's mmap threshold
    # in this one, which hides the faults
    proc = subprocess.run([sys.executable, "-c", _FAULT_PROBE],
                          capture_output=True, text=True, check=True)
    faults = int(proc.stdout)
    assert faults < 10000, faults
