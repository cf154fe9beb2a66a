"""Numerical fixed-point, ergodicity and attractor checks.

The three stationarity conditions for the engineered dynamics, per Fourier
component a_k of each local Pauli (hbar = 1, transition energy 2*eps_k):

    p0 * a_k rho   - p1 * rho a_k     = 0      (lowering, eps_k > 0)
    p1 * a_k^+ rho - p0 * rho a_k^+   = 0      (raising, eps_k > 0)
    [T, rho]                          = 0      (translation, the zero mode)

with p1/p0 = exp(-2*beta*eps_k). They hold exactly on the Gibbs state of any
commuting Pauli Hamiltonian and fail on anything else; residuals are
reported as Frobenius norms.

Ergodicity is decided from the commutant of {H} + jumps + jump adjoints:
the commutant is trivial iff the semigroup has a unique attracting steady
state (given a faithful stationary state). The commutant dimension is the
nullity of M = sum_O ad_O^dag ad_O. On the adjoint-closed set M = -L, L the
Lindbladian of the ops as unit-rate jumps with no Hamiltonian, so M takes its
terms from lindblad's one builder (dense ops stay dense) and goes through its
block engine and kernel solver: written in the Pauli basis (or the matrix
units), cut into invariant blocks and diagonalized block by block, exactly,
with Hermitian eigensolvers since M is Hermitian.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse
# Not called here, but the benchmark's tracer (perfbench/tracing.py) wraps
# verify.lobpcg when it installs, so the name stays bound.
from scipy.sparse.linalg import lobpcg  # noqa: F401

from .errors import CapacityError, ParameterError
from .lindblad import (
    ROUNDOFF,
    SUPEROP_DIM_LIMIT,
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    _block_form,
    _kernel_diagnostics,
    _sandwich_terms,
    steady_states,
    trajectories,
)
from .pauli import PauliString, PauliSum, _number
from .toric import EigenoperatorDecomposition, StabilizerHamiltonian

#: Eigenspaces above this dimension get no projected-commutant detail.
EIGENSPACE_DIM_CAP = 64
#: Longest balanced jump word in the ground-space span.
BALANCED_WORD_LENGTH = 4
#: Words up to this length are all enumerated; longer ones are sampled.
SYSTEMATIC_WORD_LENGTH = 3
#: Seed of the word samples in the ergodicity check.
ERGODICITY_SEED = 7
#: Commutant eigenvalues below COMMUTANT_TOL times the ops' scale count as zero.
COMMUTANT_TOL = 1e-7


# ---------------------------------------------------------------------------
# fixed-point conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    beta: float
    residuals: dict  # (site, axis) -> {"lowering": r, "raising": r, "translation": r}

    def max_residual(self, kind: str | None = None) -> float:
        kinds = ("lowering", "raising", "translation") if kind is None else (kind,)
        return max(r[k] for r in self.residuals.values() for k in kinds)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "residuals": {
                f"{site}:{axis}": vals
                for (site, axis), vals in sorted(self.residuals.items())
            },
        }


def check_fixed_point_conditions(
    rho: DensityMatrix | np.ndarray,
    decomps: list[EigenoperatorDecomposition],
    beta: float,
) -> FixedPointReport:
    """Evaluate the three stationarity conditions on a given state, keyed by
    the (site, axis) of each decomposition: each residual is the largest over
    that decomposition's components (0.0 where no component has the kind)."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    residuals = {}
    for dec in decomps:
        if mat.shape != (1 << dec.n_qubits,) * 2:
            raise ParameterError("state dimension does not match the operators")
        r = residuals[(dec.site, dec.axis)] = dict.fromkeys(
            ("lowering", "raising", "translation"), 0.0)
        for c in dec.components:
            if c.is_zero_mode:
                T = c.translation.to_dense()
                r["translation"] = max(r["translation"],
                                       float(np.linalg.norm(T @ mat - mat @ T)))
                continue
            w = np.exp(-2.0 * beta * c.epsilon)
            p0 = 1.0 / (1.0 + w)
            p1 = w / (1.0 + w)
            a = c.lowering.to_dense()
            ad = c.raising.to_dense()
            r["lowering"] = max(r["lowering"],
                                float(np.linalg.norm(p0 * (a @ mat) - p1 * (mat @ a))))
            r["raising"] = max(r["raising"],
                               float(np.linalg.norm(p1 * (ad @ mat) - p0 * (mat @ ad))))
    return FixedPointReport(beta=beta, residuals=residuals)


# ---------------------------------------------------------------------------
# commutant machinery
# ---------------------------------------------------------------------------

def _as_operators(ops, dim: int) -> list:
    """Each op as a dim x dim matrix in the form it arrives in: a PauliSum or
    PauliString as csr, another sparse matrix as csr, anything else as a
    complex ndarray. An op of another shape raises ParameterError."""
    mats = [o.to_sparse() if isinstance(o, (PauliSum, PauliString))
            else o.tocsr() if sparse.issparse(o) else np.asarray(o, dtype=complex)
            for o in ops]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ParameterError(f"operator {i} has shape {m.shape}, expected {(dim, dim)}")
    return mats


def commutant_dimension(ops, dim: int, max_dim: int = 8) -> tuple[int, np.ndarray, dict]:
    """Nullity of X -> sum_O ||[X, O]||^2 over dim x dim matrices: the
    dimension of the commutant of the ops and their adjoints. The ops
    (PauliSums, PauliStrings, sparse or dense matrices, each dim x dim) stay
    in the form they come in (``_as_operators``), dense ops dense.

    On that adjoint-closed set M X = sum_O [O^dag, [O, X]] = G X + X G -
    2 sum_O O X O^dag, G = sum_O O^dag O: -L X for the ops as rate-1 jumps
    with no Hamiltonian. So lindblad's ``_sandwich_terms`` and block engine
    write L in the Pauli basis (dim = 2^n) or the matrix units, negated to M,
    and its kernel solver (``_BlockForm.kernel``) solves the
    invariant blocks: eigvalsh per dense block, the max_dim + 1 smallest
    eigenvalues from shift-invert ARPACK above DENSE_BLOCK_LIMIT. Eigenvalues
    below COMMUTANT_TOL * scale, with scale the largest |O_ij|^2 times the
    number of ops with adjoints, count as zero; one within a factor 100 of
    that threshold on either side makes the count ambiguous and raises
    NumericalError. An all-zero set commutes with every matrix.

    Returns (count, eigenvalues, diagnostics): count = min(nullity, max_dim),
    so count == max_dim means "at least max_dim"; the max_dim + 1 smallest
    eigenvalues; and the kernel solver's diagnostics (``bounded`` and
    ``refined`` are 0, as no block needs bounds or eigvals) plus seconds and
    nullity (exact, except above max_dim when a block went to ARPACK). The
    identity is always in the commutant, so a max_dim that is not an
    integer >= 1 raises ParameterError.
    """
    start = time.perf_counter()
    max_dim = _number("max_dim", max_dim, True)
    if max_dim < 1:
        raise ParameterError(f"max_dim must be at least 1, got {max_dim}")
    mats = _as_operators(ops, dim)
    mats = mats + [m.conj().T for m in mats]
    scale = max((float(abs(m).max()) for m in mats), default=0.0) ** 2 * len(mats)
    thresh = COMMUTANT_TOL * scale
    if thresh == 0:
        n = dim * dim
        return min(n, max_dim), np.zeros(min(n, max_dim + 1)), {
            **_kernel_diagnostics(None, n, 1, 0), "seconds": time.perf_counter() - start,
            "nullity": n}

    form = _block_form(_sandwich_terms(dim, None, [JumpOp(O, 1.0) for O in mats]), dim,
                       hermitian=True)
    # M = -L: rounding is symmetric, so negating T's weights gives the bits of
    # the form of negated terms, without a sparse copy per op
    np.negative(form.weights, out=form.weights)
    vals, nullity, _, diagnostics = form.kernel(thresh, scale, max_dim + 1, max_dim + 1)
    diagnostics = {**diagnostics, "seconds": time.perf_counter() - start, "nullity": nullity}
    return min(nullity, max_dim), vals[:max_dim + 1], diagnostics


def _sector_basis(V: np.ndarray, S) -> np.ndarray:
    """V rotated by the eigenvectors of V^dag S V, S a weighted sum of the
    stabilizers, so that each column lies in one syndrome sector (or in
    several whose weighted syndromes collide)."""
    _, R = np.linalg.eigh(V.conj().T @ (S @ V))
    return V @ R


@dataclass(frozen=True)
class EigenspaceDetail:
    energy: float
    dimension: int
    commutant_dim: int | None  # None when skipped for size
    note: str = ""


@dataclass(frozen=True)
class ErgodicityReport:
    ergodic: bool
    commutant_dim: int            # == max_dim means "at least"
    commutant_eigenvalues: np.ndarray
    eigenspaces: tuple[EigenspaceDetail, ...]
    conserved_loop_checks: dict   # loop label -> max commutator norm with the op set
    ground_word_span_dim: int | None = None
    ground_block_commutant_dim: int | None = None  # 1 <=> words fix the sector
    diagnostics: dict | None = None  # of the full-set commutant (commutant_dimension)

    def to_json(self) -> dict:
        return {
            "ergodic": self.ergodic,
            "commutant_dim": self.commutant_dim,
            "eigenspaces": [
                {"energy": e.energy, "dim": e.dimension,
                 "commutant_dim": e.commutant_dim, "note": e.note}
                for e in self.eigenspaces
            ],
            "conserved_loop_checks": {k: float(v) for k, v in self.conserved_loop_checks.items()},
            "ground_word_span_dim": self.ground_word_span_dim,
            "ground_block_commutant_dim": self.ground_block_commutant_dim,
            "diagnostics": self.diagnostics,
        }


def ergodicity_check(
    H: StabilizerHamiltonian,
    jump_ops,
    loop_ops: dict | None = None,
    max_commutant: int = 8,
) -> ErgodicityReport:
    """Commutant-based ergodicity verdict with per-eigenspace detail.

    ``jump_ops`` may be PauliSums, dense or sparse matrices, each kept in
    its form (``_as_operators``). ``loop_ops`` (label -> PauliString or
    matrix, also through ``_as_operators``) are checked against the op set:
    a loop operator in the commutant would be a conserved topological charge.
    ``max_commutant`` is ``commutant_dimension``'s max_dim (an integer >= 1).

    Inside each eigenspace of H the reachable generators at depth <= 2 are
    the projected jumps (translations survive, pair creators project to ~0)
    plus the number-type words K^dag K. Each eigenspace basis is first split
    into syndrome sectors (``_sector_basis``), which the projected ops map
    to one another, so their commutant form falls into small blocks; projected
    entries below ROUNDOFF times the largest entry of the unprojected ops are
    rounding residue and are zeroed.
    """
    dim = 1 << H.n_qubits
    if dim > SUPEROP_DIM_LIMIT:
        raise CapacityError("ergodicity_check is a dense desk-scale verification")
    mats = _as_operators(jump_ops, dim)
    full_set = [H.as_sum().to_sparse()] + mats

    cdim, cvals, diagnostics = commutant_dimension(full_set, dim, max_dim=max_commutant)

    evals, evecs = np.linalg.eigh(H.to_dense())
    rounded = np.round(evals, 9)
    # integer eigenvalues, so distinct weighted syndromes are at least 2 apart
    S = sum(((t + 1) * term.stabilizer.to_sparse() for t, term in enumerate(H.terms)),
            sparse.csr_matrix((dim, dim), dtype=complex))
    sources = mats + [M.conj().T @ M for M in mats]
    floor = ROUNDOFF * max((float(abs(M).max()) for M in sources), default=0.0)
    energies = np.unique(rounded)
    bases = [evecs[:, rounded == energy] for energy in energies]
    bases = [_sector_basis(V, S) if V.shape[1] <= EIGENSPACE_DIM_CAP else V for V in bases]
    details = []
    for energy, V in zip(energies, bases):
        m = V.shape[1]
        if m > EIGENSPACE_DIM_CAP:
            details.append(EigenspaceDetail(float(energy), m, None,
                                            f"skipped (dim > {EIGENSPACE_DIM_CAP})"))
            continue
        projected = [V.conj().T @ (M @ V) for M in sources]
        for P in projected:
            P[np.abs(P) < floor] = 0
        sub_dim = commutant_dimension(projected, m, max_dim=max_commutant)[0]
        details.append(EigenspaceDetail(float(energy), m, sub_dim))

    loop_checks = {}
    if loop_ops:
        for label, wd in zip(loop_ops, _as_operators(loop_ops.values(), dim)):
            loop_checks[label] = max(float(abs(wd @ M - M @ wd).max()) for M in full_set)

    ground_span, ground_comm = _ground_word_span(mats, bases[0], floor)

    return ErgodicityReport(
        ergodic=(cdim == 1),
        commutant_dim=cdim,
        commutant_eigenvalues=cvals,
        eigenspaces=tuple(details),
        conserved_loop_checks=loop_checks,
        ground_word_span_dim=ground_span,
        ground_block_commutant_dim=ground_comm,
        diagnostics=diagnostics,
    )


def _ground_word_span(mats, V0: np.ndarray, floor: float) -> tuple[int | None, int | None]:
    """Dimension of the span of ground-space blocks of balanced jump words.

    String operators decompose as pair creation, translations, then pair
    annihilation, so the systematic enumeration runs over all words
    V0^dag A_l ... A_r V0 of up to SYSTEMATIC_WORD_LENGTH letters (balance
    holds whenever the block is nonzero), plus a seeded random sample of 800
    at each longer length up to BALANCED_WORD_LENGTH. The words of one length
    are stacked and the span grows by one SVD, stopping once it is all of
    M_m. Ends A V0 and V0^dag A with entries below ``floor`` are rounding
    residue and are zeroed, and words through a zero end are skipped.
    Reported, not asserted: records whether local words alone reconstruct the
    topological block algebra (span m^2) or leave sector freedom; with no
    jumps the span is the identity's. Returns
    (span dimension, commutant dimension of the blocks), or (None, None) above
    an 8-dimensional ground space.
    """
    m = V0.shape[1]
    if m > 8:
        return None, None
    span = np.eye(m, dtype=complex).reshape(1, -1) / np.sqrt(m)
    alphabet = mats + [M.conj().T for M in mats]
    if alphabet:
        span = _grow_span(span, alphabet, V0, floor)
    comm = commutant_dimension(list(span.reshape(-1, m, m)), m, max_dim=min(8, m * m))[0]
    return len(span), comm


def _grow_span(span: np.ndarray, alphabet, V0: np.ndarray, floor: float) -> np.ndarray:
    """``span`` (orthonormal rows of flattened m x m blocks) grown by the
    ground-space blocks of the words over a nonempty ``alphabet``, one SVD
    per word length (see ``_ground_word_span``)."""
    m = V0.shape[1]
    n = len(alphabet)
    right = np.stack([A @ V0 for A in alphabet])                       # A V0
    left = np.stack([(A.conj().T @ V0).conj().T for A in alphabet])   # V0^dag A
    right[np.abs(right) < floor] = 0
    left[np.abs(left) < floor] = 0
    live_right, live_left = right.any(axis=(1, 2)), left.any(axis=(1, 2))
    rng = np.random.default_rng(ERGODICITY_SEED)
    for length in range(1, BALANCED_WORD_LENGTH + 1):
        if len(span) == m * m:
            break
        if length <= SYSTEMATIC_WORD_LENGTH:
            idx = np.indices((n,) * length).reshape(length, -1).T
        else:
            idx = rng.integers(0, n, size=(min(800, n ** length), length))
        idx = idx[live_right[idx[:, 0]] & live_left[idx[:, -1]]]
        words = (np.einsum("da,ndb->nab", V0.conj(), right[idx[:, 0]]) if length == 1
                 else _word_blocks(left, alphabet, right, idx))
        words = words.reshape(len(words), m * m)
        norms = np.linalg.norm(words, axis=1)
        words = words[norms >= 1e-12] / norms[norms >= 1e-12, None]
        _, s, vh = np.linalg.svd(np.concatenate([span, words]), full_matrices=False)
        span = vh[s > 1e-8]
    return span


def _word_blocks(left: np.ndarray, alphabet, right: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """V0^dag A_(idx[-1]) ... A_(idx[0]) V0 for each row of idx (two letters
    or more), from the ends left[l] = V0^dag A_l and right[r] = A_r V0: per
    run of middle letters, one product over all the left and right ends."""
    n, m, d = left.shape
    out = np.empty((len(idx), m, m), complex)
    key = idx[:, 1:-1] @ n ** np.arange(idx.shape[1] - 2)
    for k in np.unique(key):
        rows = np.flatnonzero(key == k)
        ls, li = np.unique(idx[rows, -1], return_inverse=True)
        rs, ri = np.unique(idx[rows, 0], return_inverse=True)
        Y = right[rs].transpose(1, 0, 2).reshape(d, -1)
        for j in idx[rows[0], 1:-1]:
            Y = alphabet[j] @ Y
        W = (left[ls].reshape(-1, d) @ Y).reshape(len(ls), m, len(rs), m)
        out[rows] = W.transpose(0, 2, 1, 3)[li, ri]
    return out


# ---------------------------------------------------------------------------
# uniqueness / attractor probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractorReport:
    kernel_dim: int
    t_max: float
    final_distances: tuple[float, ...]  # per trial, to the unique steady state
    max_pairwise_distance: float

    @property
    def max_distance(self) -> float:
        return max(self.final_distances, default=0.0)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Ginibre-ensemble random full-rank state."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = G @ G.conj().T
    return DensityMatrix(m / np.trace(m).real)


def uniqueness_and_attractor_probe(
    gen: LindbladGenerator,
    trials: int,
    t_max: float,
    seed: int = 0,
) -> AttractorReport:
    """Kernel dimension plus convergence of random initial states, evolved
    together by ``trajectories``."""
    ss = steady_states(gen)
    rng = np.random.default_rng(seed)
    starts = [random_density_matrix(gen.n_levels, rng) for _ in range(trials)]
    finals = [states[-1] for states in trajectories(gen, starts, t_max, 2)]
    if ss.unique:
        dists = tuple(f.distance(ss.state) for f in finals)
    else:
        dists = tuple(np.nan for _ in finals)
    pairwise = 0.0
    for a, b in itertools.combinations(finals, 2):
        pairwise = max(pairwise, a.distance(b))
    return AttractorReport(
        kernel_dim=ss.kernel_dim,
        t_max=t_max,
        final_distances=dists,
        max_pairwise_distance=pairwise,
    )
