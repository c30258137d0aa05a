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

Every residual is a combination of the products g_k g_l, so it commutes
with the volume element g_1 ... g_n. That element is diagonal in this
representation, with two values for even n and one for odd n, so every
residual is block-diagonal on its eigenspaces: two d/2 x d/2 blocks for
even n, one d x d block for odd n (_chirality_blocks). Residuals are
computed, and bounded, block by block; svd sees them scattered back to
d x d matrices.

run_identity_batch streams its trials in chunks of CHUNK: one draw per
trial from its own stream, one real matmul of the chunk's coefficients
against the blocks of the exact products g_k g_l (_Kernel, which the
single checks run on a stack of one, so they agree with the batch bit
for bit), and one-sided bounds on each residual's norm, so that svd runs
only on the few matrices that can raise the running maximum. The
chunk's buffers are allocated once per batch and reused by every chunk,
so memory does not grow with the number of trials, and the summary does
not depend on how the batch is split.
Trial i's stream is the PCG64 of the i-th child spawned off
SeedSequence(seed), but no child is built: _stream_states hashes a whole
chunk's states out of the parent's pool with numpy's own constants, so
they, and every draw, equal the spawned children's bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded with the module, not inside the first batch

from .errors import DimensionError, NotSymmetric, ParameterRange, ShapeError
from .profile import as_integer

MAX_DIM = 8                     # matrix size caps at 2^4 = 16
MAX_TRIALS = 10**6              # bounds the run time; memory does not grow with trials
CHUNK = 64                      # trials drawn and contracted together
PRUNE_RTOL = 1e-6               # slack on the singular value bounds
SYMMETRY_ATOL = 1e-14           # on max |S - S^T|, relative to max |S|
SLOT_SYMMETRY_ATOL = 1e-12      # on T's last two slots, relative to max |T|

# numpy's SeedSequence hash constants and PCG64's LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715       # MIX_MULT_L, MIX_MULT_R
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# mix_entropy's hash constants 16 steps on, and generate_state's: built once
_HASH_A = np.array([_INIT_A * _MULT_A**(16 + j) % 2**32 for j in range(5)], np.uint32)
_HASH_B = np.array([_INIT_B * _MULT_B**j % 2**32 for j in range(9)], np.uint32)

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
    n = as_integer(n, "n", DimensionError)
    if not 2 <= n <= MAX_DIM:
        raise DimensionError(f"representation is built for 2 <= n <= {MAX_DIM}, "
                             f"got n = {n}")
    gammas = []
    for e in _hermitian_generators(n):
        g = 1j * e
        g.setflags(write=False)
        gammas.append(g)
    return CliffordRep(n, tuple(gammas))


def _chirality_blocks(rep):
    """Index sets of the residuals' diagonal blocks, an (nb, d / nb) array.

    They are the eigenspaces of the volume element g_1 ... g_n, which is
    diagonal here: two for even n, one (the element is a multiple of Id)
    for odd n. It commutes with every g_k g_l, so every product vanishes
    outside the blocks.
    """
    vol = functools.reduce(np.matmul, rep.generators).diagonal()
    # dict.fromkeys, not np.unique, whose first call takes about 15 ms
    return np.stack([np.flatnonzero(vol == v) for v in dict.fromkeys(vol.tolist())])


def _products(rep, blocks):
    """The exact products g_k g_l on the diagonal blocks, an (n^2, nb, m, m)
    array, row k n + l."""
    gam = np.stack(rep.generators)
    # each generator has one nonzero entry per row, so every entry of a
    # product is a single exact term
    prods = (gam[:, None] @ gam[None, :]).reshape(rep.n**2, *gam.shape[1:])
    return np.ascontiguousarray(prods[:, blocks[:, :, None], blocks[:, None, :]])


def _expand(blocks, mats):
    """(..., nb, m, m) diagonal blocks as (..., d, d) matrices, zero elsewhere."""
    d = blocks.size
    out = np.zeros(mats.shape[:-3] + (d, d), mats.dtype)
    out[..., blocks[:, :, None], blocks[:, None, :]] = mats
    return out


def _opnorms(mats):
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


class _Kernel:
    """The residual kernel, with its buffers for up to size trials.

    A batch allocates one and reuses its buffers for every chunk: chunk
    buffers freed and allocated again would go back to the system and be
    faulted in again, page by page, on every chunk.
    """

    def __init__(self, rep, size):
        n = self.n = rep.n
        self.blocks = _chirality_blocks(rep)
        self.products = _products(rep, self.blocks).reshape(n * n, -1).view(float)
        self._coeffs = np.empty(4 * size * n * n)
        self._out = np.empty(4 * size * self.products.shape[1])
        self._draws = np.empty(size * (n * n + n**3 + n))
        self._sym = np.empty(size * n**3)

    def coeffs(self, k):
        """The rows S, S's trace-free part, B^T and B of k trials, with
        (v_k)_l = B[k, l], as a (4, k, n, n) view; S and B are filled in
        by the caller."""
        n = self.n
        return self._coeffs[:4 * k * n * n].reshape(4, k, n, n)

    def residuals(self, k):
        """The blocks of the full, traceless and commutator residuals of the
        k trials in coeffs(k), a (3, k, nb, m, m) view of one buffer that
        the next call overwrites. The four rows of coefficients go through
        one dgemm, (4k, n^2) real rows times the products' blocks as (re,
        im) float pairs: each product entry is 0, +-1 or +-i, so that is the
        complex product's bits. gemv, taken for one row, rounds otherwise;
        with 4k >= 4 rows gemm sums each row alike in any chunk."""
        n, cols = self.n, self.products.shape[1]
        coeffs = self.coeffs(k)
        S, traceless, swapped, B = coeffs
        trace = np.einsum("tkk->t", S)
        np.subtract(S, (trace / n)[:, None, None] * np.eye(n), out=traceless)
        np.copyto(swapped, np.swapaxes(B, 1, 2))
        out = self._out[:4 * k * cols].reshape(4 * k, cols)
        np.matmul(coeffs.reshape(4 * k, n * n), self.products, out=out)
        nb, m = self.blocks.shape
        res = out.view(complex).reshape(4, k, nb, m, m)
        res[0] += trace[:, None, None, None] * np.eye(m)
        np.subtract(res[2], res[3], out=res[2])
        return res[:3]

    def draw(self, gen, states):
        """Fill coeffs(k) with the S and B of k trials, one per PCG64
        (state, inc), drawn by setting gen to each state in turn."""
        n, k = self.n, len(states)
        draws = self._draws[:k * (n * n + n**3 + n)].reshape(k, -1)
        for row, (state, inc) in zip(draws, states):
            gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                       "state": {"state": state, "inc": inc}}
            # one call draws S, T and Y in the order of three separate calls
            gen.standard_normal(out=row)
        coeffs = self.coeffs(k)
        S = draws[:, :n * n].reshape(k, n, n)
        np.add(S, np.swapaxes(S, 1, 2), out=coeffs[0])
        coeffs[0] /= 2.0
        T = draws[:, n * n:-n].reshape(k, n, n, n)
        sym = self._sym[:k * n**3].reshape(k, n, n, n)
        sym.fill(0.0)           # the sum starts at 0.0, so a -0.0 draw adds as +0.0
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            sym += np.transpose(T, (0, *(p + 1 for p in perm)))
        sym /= 6.0              # T, totally symmetric
        np.einsum("tkil,ti->tkl", sym, draws[:, -n:], out=coeffs[3])


def _single_check(rep, S, B):
    """The full, traceless and commutator residuals of one S and B, as
    (1, d, d) stacks, by the batch's kernel."""
    kernel = _Kernel(rep, 1)
    coeffs = kernel.coeffs(1)
    coeffs[0], coeffs[3] = S, B
    return [_expand(kernel.blocks, r) for r in kernel.residuals(1)]


def verify_ricci_trace(rep, S, *, enforce_symmetry=True):
    """Residuals of sum_k g_k g(S e_k) + trace(S) Id.

    residual_full uses S itself, residual_traceless its trace-free part;
    both vanish to round-off for symmetric S because the symmetric part
    of g_k g_l contracts to -delta_kl. Pass enforce_symmetry=False to
    probe how the identity fails on non-symmetric input; the symmetry
    gate is relative, max |S - S^T| <= SYMMETRY_ATOL max |S|, so it does
    not depend on the units of S. A non-finite entry raises
    ParameterRange. Both equal the batch's on the same S.
    """
    S = np.asarray(S, dtype=float)
    if S.shape != (rep.n, rep.n):
        raise ShapeError(f"S must be {rep.n}x{rep.n}, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise ParameterRange("S must have finite entries")
    if enforce_symmetry and np.max(np.abs(S - S.T)) > SYMMETRY_ATOL * np.max(np.abs(S)):
        raise NotSymmetric("S is not symmetric within 1e-14 of its largest entry")
    full, traceless, _ = _single_check(rep, S, 0.0)
    return TraceResiduals(float(_opnorms(full)[0]), float(_opnorms(traceless)[0]))


def verify_lemma15(rep, T, Y):
    """Operator norm of sum_k (g(v_k) g_k - g_k g(v_k)), v_k = T(k, Y, .).

    T must be an n^3 tensor symmetric in its last two slots, within
    SLOT_SYMMETRY_ATOL of its largest entry. Only the part of T(., Y, .)
    antisymmetric in the outer slots survives the commutators, so the
    residual vanishes for totally symmetric T and is invariant under
    adding one. A non-finite entry raises ParameterRange. It equals the
    batch's on the same T and Y.
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
    if np.max(np.abs(T - np.swapaxes(T, 1, 2))) > SLOT_SYMMETRY_ATOL * np.max(np.abs(T)):
        raise ShapeError("T must be symmetric in its last two slots")
    B = np.einsum("tkil,ti->tkl", T[None], Y[None])
    return float(_opnorms(_single_check(rep, 0.0, B)[2])[0])


class _PrunedMax:
    """Largest singular values from np.linalg.svd over stacks of
    block-diagonal matrices, one running value per stack.

    add takes c stacks of k matrices A as their nb diagonal m x m blocks
    A_b, so sigma(A) = max_b sigma(A_b). While a stack's running value v
    is 0, its matrix of largest l2 bound goes through svd first. The
    others go on only while their bounds reach (1 - PRUNE_RTOL) v: the
    largest over the blocks of the l2, l4 and l8 norms of A_b's singular
    values, ||A_b||_F, ||M_b||_F^(1/2) and ||M_b^2||_F^(1/4) with M_b =
    A_b^H A_b, one matmul each, which lie between sigma(A) and m^(1/2),
    m^(1/4), m^(1/8) sigma(A). Those that pass all three are scattered back
    to d x d matrices and go through svd, every stack's in one call; any
    other has a smaller singular value than one seen already. So each
    running value is np.max of svd over every matrix added to its stack.

    Rounding: the l2 bound is squared, in A's own units, and prunes only
    where ||A_b||_F^2 lies in [2^-900, 2^900]: there no square overflows,
    those that underflow move it by at most m^2 2^-1074 absolute, and
    (1 - PRUNE_RTOL)^2 v^2 is exact to rounding, or overflows to inf,
    above every such A's sigma^2, or lies below 2^-900. For the other two
    bounds each A is scaled by 2^-e, exactly, so that its largest real or
    imaginary part lies in [1/2, 1): a nonzero A has sigma >= 1/2, no
    power overflows, and the entries that underflow move a bound by at
    most m 2^-1075 absolute. So each bound of a nonzero A is at least 1/2
    and off by about m^2 eps relative, far below PRUNE_RTOL, which also
    covers svd's own rounding. v 2^-e is exact, or overflows to inf, which
    rightly prunes, or is below 2^-1022, under every such bound. These
    bounds are never scaled back by 2^e, nor norms taken of unscaled
    parts: both round or underflow on subnormal entries.
    """

    def __init__(self, blocks, count):
        self.blocks = blocks
        self.values = [0.0] * count

    def _svd(self, mats, rows, k):
        # row r of the flattened stacks belongs to stack r // k
        for i, v in zip(np.asarray(rows) // k, _opnorms(_expand(self.blocks, mats[rows])).tolist()):
            self.values[i] = max(self.values[i], v)

    def add(self, stacks):
        c, k = stacks.shape[:2]
        mats = np.ascontiguousarray(stacks).reshape(c * k, *stacks.shape[2:])
        x = mats.view(float)
        with np.errstate(over="ignore"):
            fro2 = np.einsum("sbij,sbij->sb", x, x).max(axis=1)
            tops = [i * k + int(np.argmax(fro2[i * k:(i + 1) * k]))
                    for i, v in enumerate(self.values) if v == 0.0]
            if tops:
                self._svd(mats, tops, k)
            limit = np.repeat(np.array(self.values) * (1.0 - PRUNE_RTOL), k)
            keep = (fro2 >= limit * limit) | ~((2.0**-900 <= fro2) & (fro2 <= 2.0**900))
            keep[tops] = False
            rows = np.flatnonzero(keep)
            x = x[rows]
            # max |x| as max(max x, -min x): the same float, with no |x| copy
            e = np.frexp(np.maximum(x.max(axis=(1, 2, 3)), -x.min(axis=(1, 2, 3))))[1]
            y = np.ldexp(x, -e[:, None, None, None]).view(complex)
            limit = np.ldexp(limit[rows], -e)
        for power in (0.25, 0.125):     # sigma's l4, then l8 norm
            # a contiguous y^H: matmul of a conjugated transposed view is
            # about three times slower
            y = np.conjugate(np.swapaxes(y, -1, -2), out=np.empty_like(y)) @ y
            f = y.view(float)
            passed = np.einsum("sbij,sbij->sb", f, f).max(axis=1) ** power >= limit
            rows, y, limit = rows[passed], y[passed], limit[passed]
        if len(rows):
            self._svd(mats, rows, k)


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
    skip = 4 * (max(4, (seed.bit_length() + 31) // 32) - 4)    # steps past the first 16
    hash_a = _HASH_A * u32(pow(_MULT_A, skip, 2**32))
    key = (np.arange(lo, lo + k, dtype=u32) ^ hash_a[:4, None]) * hash_a[1:, None]
    mixed = pool[:, None] * u32(_MIX_L) - (key ^ key >> u32(16)) * u32(_MIX_R)
    mixed ^= mixed >> u32(16)
    words = (np.tile(mixed, (2, 1)) ^ _HASH_B[:8, None]) * _HASH_B[1:, None]
    words ^= words >> u32(16)
    states = []
    for a, b, c, d in words.T.astype("<u4", order="C").view("<u8").tolist():
        inc = ((c << 64 | d) << 1 | 1) % 2**128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) % 2**128, inc))
    return states


def run_identity_batch(n, trials, seed):
    """Worst-case residuals over random well-formed inputs.

    Trial i draws S, T and Y from the PCG64 of the i-th child spawned
    off SeedSequence(seed), so the summary is reproducible; its state is
    derived by _stream_states, equal to the child's. Trials run CHUNK at
    a time in buffers allocated once per batch, so memory does not grow
    with trials. Every matrix is
    computed alike in any chunk: the summary does not depend on how the
    batch is split. Each residual is the largest singular value from
    np.linalg.svd, maximized over the trials exactly; cheap bounds spare
    svd every matrix that cannot hold the maximum (see _PrunedMax).
    A non-integer n (see profile.as_integer) raises DimensionError, as
    build_rep does; a non-integer trials or seed, trials < 1, a negative
    seed and more than MAX_TRIALS trials raise ParameterRange, all before
    any stream state is derived.
    """
    rep = build_rep(n)
    trials = as_integer(trials, "trials", ParameterRange)
    seed = as_integer(seed, "seed", ParameterRange)
    if trials < 1:
        raise ParameterRange(f"trials must be positive, got {trials}")
    if seed < 0:
        raise ParameterRange(f"seed must be non-negative, got {seed}")
    if trials > MAX_TRIALS:
        raise ParameterRange(f"trials must be at most {MAX_TRIALS}, which bounds "
                             f"the run time, got {trials}")
    pool = np.random.SeedSequence(seed).pool
    gen = np.random.Generator(np.random.PCG64(0))
    kernel = _Kernel(rep, min(CHUNK, trials))
    worst = _PrunedMax(kernel.blocks, 3)
    for lo in range(0, trials, CHUNK):
        states = _stream_states(pool, seed, lo, min(CHUNK, trials - lo))
        kernel.draw(gen, states)
        worst.add(kernel.residuals(len(states)))
    return BatchSummary(rep.n, trials, seed, *worst.values)
