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
trial from its own stream, one real matmul of the chunk's coefficients
against the exact products g_k g_l (_residuals, which the single checks
run on a stack of one, so they agree with the batch bit for bit), and
one-sided bounds on each residual's norm, so that svd runs only on the
few matrices that can raise the running maximum. Only one chunk's
buffers are alive at a time, so memory does not grow with the number of
trials, and the summary does not depend on how the batch is split.
Trial i's stream is the PCG64 of the i-th child spawned off
SeedSequence(seed), but no child is built: _stream_states hashes a whole
chunk's states out of the parent's pool with numpy's own constants, so
they, and every draw, equal the spawned children's bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the module, not inside the first batch

from .errors import DimensionError, NotSymmetric, ParameterRange, ShapeError

MAX_DIM = 8                     # matrix size caps at 2^4 = 16
MAX_TRIALS = 10**6              # bounds the run time; memory does not grow with trials
CHUNK = 128                     # trials drawn and contracted together
PRUNE_RTOL = 1e-6               # slack on the singular value bounds
SYMMETRY_ATOL = 1e-14
SLOT_SYMMETRY_ATOL = 1e-12

# numpy's SeedSequence hash constants and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715       # MIX_MULT_L, MIX_MULT_R
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

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


def _integer(value, name, error):
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def build_rep(n):
    """Generators of the rank-n Clifford algebra, size 2^floor(n/2)."""
    n = _integer(n, "n", DimensionError)
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


def _residuals(products, S, B):
    """The full, traceless and commutator residuals of (k, n, n) stacks S
    and B, (v_k)_l = B[k, l], as views of one buffer. S, its trace-free
    part, B^T and B go through one dgemm, (4k, n^2) real rows times the
    products as (re, im) float pairs: each product entry is 0, +-1 or +-i,
    so that is the complex product's bits. gemv, taken for one row, rounds
    otherwise; with 4k >= 4 rows gemm sums each row alike in any chunk."""
    k, n = S.shape[:2]
    d = math.isqrt(products.shape[1])
    trace = np.einsum("tkk->t", S)
    coeffs = np.concatenate((S, S - (trace / n)[:, None, None] * np.eye(n),
                             np.swapaxes(B, 1, 2), B)).reshape(4 * k, n * n)
    full, traceless, swapped, straight = (
        coeffs @ products.view(float)).view(complex).reshape(4, k, d, d)
    del coeffs      # freed before the correction below allocates its temporary
    full += trace[:, None, None] * np.eye(d)
    return full, traceless, np.subtract(swapped, straight, out=swapped)


def verify_ricci_trace(rep, S, *, enforce_symmetry=True):
    """Residuals of sum_k g_k g(S e_k) + trace(S) Id.

    residual_full uses S itself, residual_traceless its trace-free part;
    both vanish to round-off for symmetric S because the symmetric part
    of g_k g_l contracts to -delta_kl. Pass enforce_symmetry=False to
    probe how the identity fails on non-symmetric input. A non-finite
    entry raises ParameterRange. Both equal the batch's on the same S.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (rep.n, rep.n):
        raise ShapeError(f"S must be {rep.n}x{rep.n}, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ParameterRange("S must have finite entries")
    if enforce_symmetry and np.max(np.abs(S - S.T)) > SYMMETRY_ATOL:
        raise NotSymmetric("S is not symmetric within 1e-14")
    full, traceless, _ = _residuals(_products(rep), S[None], np.zeros_like(S[None]))
    return TraceResiduals(float(_opnorms(full)[0]), float(_opnorms(traceless)[0]))


def verify_lemma15(rep, T, Y):
    """Operator norm of sum_k (g(v_k) g_k - g_k g(v_k)), v_k = T(k, Y, .).

    T must be an n^3 tensor symmetric in its last two slots. Only the
    part of T(., Y, .) antisymmetric in the outer slots survives the
    commutators, so the residual vanishes for totally symmetric T and
    is invariant under adding one. A non-finite entry raises
    ParameterRange. It equals the batch's on the same T and Y.
    """
    T = np.asarray(T, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = rep.n
    if T.shape != (n, n, n):
        raise ShapeError(f"T must be {n}x{n}x{n}, got shape {T.shape}")
    if Y.shape != (n,):
        raise ShapeError(f"Y must be a vector of length {n}, got shape {Y.shape}")
    for name, x in (("T", T), ("Y", Y)):
        if not np.isfinite(x).all():
            raise ParameterRange(f"{name} must have finite entries")
    if np.max(np.abs(T - np.swapaxes(T, 1, 2))) > SLOT_SYMMETRY_ATOL:
        raise ShapeError("T must be symmetric in its last two slots")
    B = np.einsum("tkil,ti->tkl", T[None], Y[None])
    return float(_opnorms(_residuals(_products(rep), np.zeros_like(B), B)[2])[0])


class _PrunedMax:
    """Largest singular value from np.linalg.svd over stacks of matrices.

    Each matrix A is scaled by 2^-e, exactly, so that its largest real or
    imaginary part lies in [1/2, 1): a nonzero A has sigma >= 1/2. The
    matrix of largest Frobenius norm goes through svd, and its value joins
    the running value v. The others go on only while their bounds reach
    (1 - PRUNE_RTOL) v 2^-e: the l2, l4 and l8 norms of A's singular values,
    ||A||_F, ||M||_F^(1/2) and ||M^2||_F^(1/4) with M = A^H A, one matmul
    each, which lie between sigma and d^(1/2), d^(1/4), d^(1/8) sigma for
    d x d matrices. Those that pass all three go through svd; any other
    has a smaller singular value than one seen already. So the running
    value is np.max of svd over every matrix added.

    Rounding: in these units no power overflows, and the entries that
    underflow move a bound by at most d 2^-1075 absolute. Each bound of a
    nonzero A is at least 1/2 and off by about d^2 eps relative, far below
    PRUNE_RTOL, which also covers svd's own rounding. v 2^-e is exact, or
    overflows to inf, which rightly prunes, or is below 2^-1022, under
    every such bound. Bounds are never scaled back by 2^e, nor norms taken
    of unscaled parts: both round or underflow on subnormal entries.
    """

    def __init__(self):
        self.value = 0.0

    def _reach(self, bounds, e):
        with np.errstate(over="ignore"):
            return bounds >= np.ldexp(self.value * (1.0 - PRUNE_RTOL), -e)

    def add(self, mats):
        x = np.ascontiguousarray(mats).view(float)
        # max |x| as max(max x, -min x): the same float, with no |x| copy
        e = np.frexp(np.maximum(x.max(axis=(-2, -1)), -x.min(axis=(-2, -1))))[1]
        x = np.ldexp(x, -e[:, None, None])
        fro = np.sqrt(np.einsum("kij,kij->k", x, x))
        top = np.argmax(np.ldexp(fro, e - np.max(e)))
        self.value = max(self.value, float(_opnorms(mats[top:top + 1])[0]))
        keep = self._reach(fro, e) & (np.arange(len(mats)) != top)
        x = x[keep].view(complex)
        for power in (0.25, 0.125):     # sigma's l4, then l8 norm
            x = np.conj(np.swapaxes(x, -1, -2)) @ x
            f = x.view(float)
            passed = self._reach(np.einsum("kij,kij->k", f, f) ** power, e[keep])
            keep[keep] = passed
            x = x[passed]
        if keep.any():
            self.value = max(self.value, float(np.max(_opnorms(mats[keep]))))


def _stream_states(pool, seed, lo, k):
    """PCG64 (state, inc) int pairs of the children lo .. lo+k-1 spawned
    off SeedSequence(seed), whose pool is pool.

    A child's entropy is the seed, padded to at least 4 uint32 words, then
    its index, so mix_entropy's last step hashes the index into each word
    of the parent's pool, its hash constant past 16 + 4 (words - 4) steps.
    generate_state(4, uint64) follows, then PCG64's two seeding steps. All
    operands are np.uint32, so the array products wrap mod 2^32.
    """
    u32 = np.uint32
    skip = 16 + 4 * (max(4, (seed.bit_length() + 31) // 32) - 4)
    hash_a = np.array([_INIT_A * pow(_MULT_A, skip + j, 2**32) % 2**32 for j in range(5)], u32)
    hash_b = np.array([_INIT_B * pow(_MULT_B, j, 2**32) % 2**32 for j in range(9)], u32)
    key = (np.arange(lo, lo + k, dtype=u32) ^ hash_a[:4, None]) * hash_a[1:, None]
    mixed = pool[:, None] * u32(_MIX_L) - (key ^ key >> u32(16)) * u32(_MIX_R)
    mixed ^= mixed >> u32(16)
    words = (np.tile(mixed, (2, 1)) ^ hash_b[:8, None]) * hash_b[1:, None]
    words ^= words >> u32(16)
    states = []
    for a, b, c, d in words.T.astype("<u4", order="C").view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) % 2**128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) % 2**128, inc))
    return states


def _chunk_residuals(products, n, gen, states):
    """The three residual stacks of one chunk of trials, one per PCG64
    (state, inc), drawn by setting gen to each state in turn. All three
    are views of one buffer, which lives as long as any of them."""
    k = len(states)
    draws = np.empty((k, n * n + n**3 + n))
    for row, (state, inc) in zip(draws, states):
        gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
        # one call draws S, T and Y in the order of three separate calls
        gen.standard_normal(out=row)
    S = draws[:, :n * n].reshape(k, n, n)
    S = (S + np.swapaxes(S, 1, 2)) / 2.0
    T = draws[:, n * n:-n].reshape(k, n, n, n)
    sym = np.zeros_like(T)
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += np.transpose(T, (0, *(p + 1 for p in perm)))
    sym /= 6.0                  # T, totally symmetric
    return _residuals(products, S, np.einsum("tkil,ti->tkl", sym, draws[:, -n:]))


def run_identity_batch(n, trials, seed):
    """Worst-case residuals over random well-formed inputs.

    Trial i draws S, T and Y from the PCG64 of the i-th child spawned
    off SeedSequence(seed), so the summary is reproducible; its state is
    derived by _stream_states, equal to the child's. Trials run CHUNK at
    a time, and a chunk's buffers are freed before the next chunk is
    drawn, so memory does not grow with trials. Every matrix is
    computed alike in any chunk: the summary does not depend on how the
    batch is split. Each residual is the largest singular value from
    np.linalg.svd, maximized over the trials exactly; cheap bounds spare
    svd every matrix that cannot hold the maximum (see _PrunedMax).
    A non-integer n (ints, bools and numpy integers pass) raises
    DimensionError, as build_rep does; a non-integer trials or seed,
    trials < 1, a negative seed and more than MAX_TRIALS trials raise
    ParameterRange, all before any stream state is derived.
    """
    rep = build_rep(n)
    trials = _integer(trials, "trials", ParameterRange)
    seed = _integer(seed, "seed", ParameterRange)
    if trials < 1:
        raise ParameterRange(f"trials must be positive, got {trials}")
    if seed < 0:
        raise ParameterRange(f"seed must be non-negative, got {seed}")
    if trials > MAX_TRIALS:
        raise ParameterRange(f"trials must be at most {MAX_TRIALS}, which bounds "
                             f"the run time, got {trials}")
    products = _products(rep)
    pool = np.random.SeedSequence(seed).pool
    gen = np.random.Generator(np.random.PCG64(0))
    worst = [_PrunedMax() for _ in range(3)]
    for lo in range(0, trials, CHUNK):
        states = _stream_states(pool, seed, lo, min(CHUNK, trials - lo))
        for acc, mats in zip(worst, _chunk_residuals(products, rep.n, gen, states)):
            acc.add(mats)
        del mats    # it holds the chunk's whole buffer; free that before the next draw
    return BatchSummary(rep.n, trials, int(seed), *(acc.value for acc in worst))
