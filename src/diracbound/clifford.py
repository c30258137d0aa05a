"""Finite-dimensional checks of the Clifford contraction identities.

Generators follow the negative-definite convention

    g_i g_j + g_j g_i = -2 delta_ij Id

realized as i times Hermitian Pauli tensor products, so every entry is
an exact unit and the anticommutation relations hold bit-exactly. Two
identities used by the eigenvalue estimates are verified numerically:
the trace contraction sum_k g_k g(S e_k) = -trace(S) Id for symmetric
S, and the vanishing of sum_k (g(v_k) g_k - g_k g(v_k)) when the
tensor behind v_k = T(k, Y, .) is totally symmetric. Residuals are
operator norms (largest singular value).

run_identity_batch streams its trials in chunks of CHUNK: one draw per
trial from its own spawned stream, one matmul of the chunk's
coefficients against the exact products g_k g_l, and rigorous bounds
on every residual's norm, so that svd runs only on the few matrices
that can hold the batch maximum. Memory does not grow with the number
of trials, and the summary does not depend on how the batch is split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the module, not inside the first batch

from .errors import DimensionError, NotSymmetric, ParameterRange, ShapeError

MAX_DIM = 8                     # matrix size caps at 2^4 = 16
MAX_TRIALS = 10**6              # bounds the run time; memory does not grow with trials
CHUNK = 256                     # trials drawn and contracted together
PRUNE_RTOL = 1e-6               # slack on the singular value bounds
SYMMETRY_ATOL = 1e-14
SLOT_SYMMETRY_ATOL = 1e-12

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class CliffordRep:
    n: int
    generators: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class TraceResiduals:
    residual_full: float
    residual_traceless: float


@dataclass(frozen=True)
class BatchSummary:
    """Worst residuals over a batch of random well-formed inputs."""

    n: int
    trials: int
    seed: int
    trace_residual_full: float
    trace_residual_traceless: float
    lemma_residual: float


def _hermitian_generators(n):
    # iterated tensor products; entries stay exact units at every step
    gens = [_SIGMA1, _SIGMA2]
    while len(gens) < 2 * (n // 2):
        eye = np.eye(gens[0].shape[0], dtype=complex)
        gens = [np.kron(e, _SIGMA3) for e in gens]
        gens += [np.kron(eye, _SIGMA1), np.kron(eye, _SIGMA2)]
    if n % 2:
        k = len(gens) // 2
        chi = gens[0]
        for e in gens[1:]:
            chi = chi @ e
        gens.append((-1j) ** k * chi)
    return gens


def build_rep(n):
    """Generators of the rank-n Clifford algebra, size 2^floor(n/2)."""
    n = int(n)
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"representation is built for 2 <= n <= {MAX_DIM}, "
                             f"got n = {n}")
    gammas = []
    for e in _hermitian_generators(n):
        g = 1j * e
        g.setflags(write=False)
        gammas.append(g)
    return CliffordRep(n, tuple(gammas))


def _products(rep):
    """The exact products g_k g_l as an (n^2, d^2) matrix, row k n + l."""
    gam = np.stack(rep.generators)
    # each generator has one nonzero entry per row, so every entry of a
    # product is a single exact term
    return (gam[:, None] @ gam[None, :]).reshape(rep.n**2, -1)


def _opnorms(mats):
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _contract(products, *coeffs):
    """sum_{k,l} c[k, l] g_k g_l for every matrix c of each stack.

    All the stacks go through one matmul, and callers pass at least two
    matrices in all: numpy takes gemv for a single row, which rounds
    differently, while with two rows or more gemm sums each row alike
    whatever else shares the call.
    """
    d = math.isqrt(products.shape[1])
    rows = [c.reshape(-1, products.shape[0]) for c in coeffs]
    out = (np.concatenate(rows) @ products).reshape(-1, d, d)
    parts = np.split(out, np.cumsum([len(r) for r in rows[:-1]]))
    return [p.reshape(c.shape[:-2] + (d, d)) for p, c in zip(parts, coeffs)]


def verify_ricci_trace(rep, S, *, enforce_symmetry=True):
    """Residuals of sum_k g_k g(S e_k) + trace(S) Id.

    residual_full uses S itself, residual_traceless its trace-free part;
    both vanish to round-off for symmetric S because the symmetric part
    of g_k g_l contracts to -delta_kl. Pass enforce_symmetry=False to
    probe how the identity fails on non-symmetric input.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (rep.n, rep.n):
        raise ShapeError(f"S must be {rep.n}x{rep.n}, got shape {S.shape}")
    if enforce_symmetry and np.max(np.abs(S - S.T)) > SYMMETRY_ATOL:
        raise NotSymmetric("S is not symmetric within 1e-14")
    full, traceless = _contract(_products(rep), S,
                                S - np.trace(S) / rep.n * np.eye(rep.n))
    full += np.trace(S) * np.eye(len(full))
    return TraceResiduals(float(_opnorms(full)), float(_opnorms(traceless)))


def verify_lemma15(rep, T, Y):
    """Operator norm of sum_k (g(v_k) g_k - g_k g(v_k)), v_k = T(k, Y, .).

    T must be an n^3 tensor symmetric in its last two slots. Only the
    part of T(., Y, .) antisymmetric in the outer slots survives the
    commutators, so the residual vanishes for totally symmetric T and
    is invariant under adding one.
    """
    T = np.asarray(T, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = rep.n
    if T.shape != (n, n, n):
        raise ShapeError(f"T must be {n}x{n}x{n}, got shape {T.shape}")
    if Y.shape != (n,):
        raise ShapeError(f"Y must be a vector of length {n}, got shape {Y.shape}")
    if np.max(np.abs(T - np.swapaxes(T, 1, 2))) > SLOT_SYMMETRY_ATOL:
        raise ShapeError("T must be symmetric in its last two slots")
    B = np.einsum("kil,i->kl", T, Y)
    # sum_k (g(v_k) g_k - g_k g(v_k)) with (v_k)_l = B[k, l]
    swapped, straight = _contract(_products(rep), B.T, B)
    return float(_opnorms(swapped - straight))


def _opnorm_bounds(mats):
    """Rigorous (lower, upper) bounds on log sigma, the natural log of the
    largest singular value, of each matrix of a stack.

    With s the largest entry modulus and M = (A/s)^H (A/s), whose top
    eigenvalue is (sigma/s)^2, every column of M^8 has norm at most
    (sigma/s)^16, and the Frobenius norm of M^8 is at least that. So
    1/32 of the logs of the largest squared column norm and of the
    squared Frobenius norm, plus log s, bracket log sigma, to within
    log(d)/32 for d x d matrices. Scaling keeps sigma/s near [1, d], so
    no power overflows or loses the top eigenvalue to underflow, and
    logs keep the bounds accurate where s is subnormal; rounding moves
    either bound by far less than PRUNE_RTOL. A zero matrix gets -inf.
    """
    s = np.max(np.abs(mats), axis=(-2, -1))
    # real and imaginary parts are divided as reals: numpy's complex
    # division by a subnormal s overflows
    parts = np.ascontiguousarray(mats).view(float)
    a = (parts / np.where(s > 0.0, s, 1.0)[:, None, None]).view(complex)
    m = np.conj(np.swapaxes(a, -1, -2)) @ a
    for _ in range(3):
        m = m @ m
    col = np.sum(m.real**2 + m.imag**2, axis=-2)
    with np.errstate(divide="ignore"):
        log_s = np.log(s)
        return (np.log(np.max(col, axis=-1)) / 32.0 + log_s,
                np.log(np.sum(col, axis=-1)) / 32.0 + log_s)


class _PrunedMax:
    """Largest singular value from np.linalg.svd over stacks of matrices.

    Each stack added raises the floor to its largest lower bound; only
    the matrices whose upper bound reaches the floor, within PRUNE_RTOL
    relative either side, go through svd. Any other matrix has a smaller
    singular value than one already seen, so the running value is the
    exact maximum over every matrix added, as np.max of svd over all.
    """

    def __init__(self):
        self.floor = -np.inf
        self.value = 0.0

    def add(self, mats):
        lower, upper = _opnorm_bounds(mats)
        self.floor = max(self.floor, float(np.max(lower)))
        keep = upper >= self.floor - 2.0 * PRUNE_RTOL
        if keep.any():
            self.value = max(self.value, float(np.max(_opnorms(mats[keep]))))


def _chunk_residuals(products, n, streams):
    """The three residual stacks of one chunk of trials, one per stream."""
    k = len(streams)
    draws = np.empty((k, n * n + n**3 + n))
    for row, stream in zip(draws, streams):
        # one call draws S, T and Y in the order of three separate calls
        np.random.Generator(np.random.PCG64(stream)).standard_normal(out=row)
    S = draws[:, :n * n].reshape(k, n, n)
    S = (S + np.swapaxes(S, 1, 2)) / 2.0
    T = draws[:, n * n:-n].reshape(k, n, n, n)
    sym = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += np.transpose(T, (0, *(p + 1 for p in perm)))
    T = sym / 6.0
    Y = draws[:, -n:]

    trace = np.einsum("tkk->t", S)
    centered = S - (trace / n)[:, None, None] * np.eye(n)
    B = np.einsum("tkil,ti->tkl", T, Y)
    full, traceless, swapped, straight = _contract(
        products, S, centered, np.swapaxes(B, 1, 2), B)
    full += trace[:, None, None] * np.eye(full.shape[-1])
    return full, traceless, swapped - straight


def run_identity_batch(n, trials, seed):
    """Worst-case residuals over random well-formed inputs.

    Trial i draws S, T and Y from its own generator, the i-th child
    spawned off SeedSequence(seed), so the summary is reproducible.
    Trials run CHUNK at a time, children spawned chunk by chunk (which
    gives the same children as one spawn), so memory does not grow with
    trials, and every matrix is computed alike in any chunk: the summary
    does not depend on how the batch is split. Each residual is the
    largest singular value from np.linalg.svd, maximized over the
    trials exactly; cheap bounds spare svd every matrix that cannot hold
    the maximum (see _PrunedMax). trials < 1, a negative seed and more
    than MAX_TRIALS trials raise ParameterRange before any stream is
    spawned.
    """
    rep = build_rep(n)
    if trials < 1:
        raise ParameterRange(f"trials must be positive, got {trials}")
    if seed < 0:
        raise ParameterRange(f"seed must be non-negative, got {seed}")
    if trials > MAX_TRIALS:
        raise ParameterRange(f"trials must be at most {MAX_TRIALS}, which bounds "
                             f"the run time, got {trials}")
    products = _products(rep)
    root = np.random.SeedSequence(seed)
    worst = [_PrunedMax() for _ in range(3)]
    for lo in range(0, trials, CHUNK):
        streams = root.spawn(min(CHUNK, trials - lo))
        for acc, mats in zip(worst, _chunk_residuals(products, n, streams)):
            acc.add(mats)
    return BatchSummary(n, trials, int(seed), *(acc.value for acc in worst))
