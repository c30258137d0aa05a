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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the module, not inside the first batch

from .errors import DimensionError, NotSymmetric, ParameterRange, ShapeError

MAX_DIM = 8                     # matrix size caps at 2^4 = 16
BATCH_BYTES = 2**30             # memory one identity batch may hold
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


def _stack(rep):
    return np.stack(rep.generators)


def _opnorms(mats):
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _contract(gam, coeffs):
    # sum_{k,l} coeffs[k, l] g_k g_l, batched over a leading axis
    return np.einsum("...kl,kab,lbc->...ac", coeffs, gam, gam, optimize=True)


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
    gam = _stack(rep)
    eye = np.eye(gam.shape[1])
    full = _contract(gam, S) + np.trace(S) * eye
    traceless = _contract(gam, S - np.trace(S) / rep.n * np.eye(rep.n))
    return TraceResiduals(float(_opnorms(full)), float(_opnorms(traceless)))


def _lemma_operator(gam, B):
    # sum_k (g(v_k) g_k - g_k g(v_k)) with (v_k)_l = B[k, l]
    return _contract(gam, np.swapaxes(B, -1, -2)) - _contract(gam, B)


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
    return float(_opnorms(_lemma_operator(_stack(rep), B)))


def run_identity_batch(n, trials, seed):
    """Worst-case residuals over random well-formed inputs.

    Instance inputs are drawn from per-instance generators spawned off
    the root seed, so the summary is reproducible and independent of
    any batch splitting. A batch over BATCH_BYTES raises ParameterRange.
    """
    rep = build_rep(n)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    # peak bytes per trial: S, T and Y, the widest contraction, the stream
    limit = BATCH_BYTES // (8 * (n**3 + 3 * n * n + n) + 16 * n * 4 ** (n // 2) + 1024)
    if trials > limit:
        raise ParameterRange(f"trials must be at most {limit} at n = {n} (the "
                             f"batch budget is {BATCH_BYTES >> 20} MiB), got {trials}")
    gam = _stack(rep)
    eye = np.eye(gam.shape[1])
    streams = np.random.SeedSequence(seed).spawn(trials)

    S_batch = np.empty((trials, n, n))
    T_batch = np.empty((trials, n, n, n))
    Y_batch = np.empty((trials, n))
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        S = rng.standard_normal((n, n))
        S_batch[i] = (S + S.T) / 2.0
        T = rng.standard_normal((n, n, n))
        sym = np.zeros_like(T)
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            sym += np.transpose(T, perm)
        T_batch[i] = sym / 6.0
        Y_batch[i] = rng.standard_normal(n)

    trace_full = _contract(gam, S_batch) + np.einsum("tkk->t", S_batch)[:, None, None] * eye
    centered = S_batch - (np.einsum("tkk->t", S_batch) / n)[:, None, None] * np.eye(n)
    trace_traceless = _contract(gam, centered)
    B = np.einsum("tkil,ti->tkl", T_batch, Y_batch)
    lemma = _lemma_operator(gam, B)
    return BatchSummary(n, trials, int(seed),
                        float(np.max(_opnorms(trace_full))),
                        float(np.max(_opnorms(trace_traceless))),
                        float(np.max(_opnorms(lemma))))
