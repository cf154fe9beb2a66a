"""Numerical fixed-point, ergodicity and attractor checks.

The three stationarity conditions for the engineered dynamics, per link and
sector (hbar = 1, pair transition energy 2*Delta):

    p0 * E rho   - p1 * rho E     = 0      (lowering)
    p1 * E^+ rho - p0 * rho E^+   = 0      (raising)
    [T, rho]                      = 0      (translation)

with p1/p0 = exp(-2*beta*Delta). They hold exactly on the Gibbs state and
fail on anything else; residuals are reported as Frobenius norms.

Ergodicity is decided from the commutant of {H} + jumps + jump adjoints:
the commutant is trivial iff the semigroup has a unique attracting steady
state (given a faithful stationary state). The commutant dimension is the
nullity of M = sum_O ad_O^dag ad_O, computed densely for small problems and
matrix-free (LOBPCG) at dimension 256.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, lobpcg

from .errors import CapacityError, ParameterError
from .lindblad import (
    DensityMatrix,
    LindbladGenerator,
    evolve,
    steady_states,
)
from .pauli import PauliSum
from .toric import ExcitationOps, StabilizerHamiltonian

#: Eigenspaces above this dimension get no projected-commutant detail.
EIGENSPACE_DIM_CAP = 64
#: Longest balanced jump word enumerated in the ground-space span.
BALANCED_WORD_LENGTH = 4
#: Seed of the random starts and word samples in the ergodicity check.
ERGODICITY_SEED = 7


# ---------------------------------------------------------------------------
# fixed-point conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    beta: float
    residuals: dict  # (link, sector) -> {"lowering": r, "raising": r, "translation": r}
    kernel_dim: int | None = None
    trace_distance_to_gibbs: float | None = None
    ergodic: bool | None = None

    def max_residual(self, kind: str | None = None) -> float:
        kinds = ("lowering", "raising", "translation") if kind is None else (kind,)
        return max(r[k] for r in self.residuals.values() for k in kinds)

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "residuals": {
                f"{link}:{sector}": vals
                for (link, sector), vals in sorted(self.residuals.items())
            },
            "kernel_dim": self.kernel_dim,
            "trace_distance_to_gibbs": self.trace_distance_to_gibbs,
            "ergodic": self.ergodic,
        }


def check_fixed_point_conditions(
    rho: DensityMatrix | np.ndarray,
    ops: list[ExcitationOps],
    beta: float,
) -> FixedPointReport:
    """Evaluate the three stationarity conditions on a given state."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    residuals = {}
    for o in ops:
        w = np.exp(-2.0 * beta * o.delta)  # pair energy 2*Delta
        p0 = 1.0 / (1.0 + w)
        p1 = w / (1.0 + w)
        E = o.E.to_dense()
        Ed = o.E_dag.to_dense()
        T = o.T.to_dense()
        if E.shape != mat.shape:
            raise ParameterError("state dimension does not match the operators")
        residuals[(o.link, o.sector)] = {
            "lowering": float(np.linalg.norm(p0 * (E @ mat) - p1 * (mat @ E))),
            "raising": float(np.linalg.norm(p1 * (Ed @ mat) - p0 * (mat @ Ed))),
            "translation": float(np.linalg.norm(T @ mat - mat @ T)),
        }
    return FixedPointReport(beta=beta, residuals=residuals)


# ---------------------------------------------------------------------------
# commutant machinery
# ---------------------------------------------------------------------------

def _as_sparse_list(ops) -> list[sparse.csr_matrix]:
    out = []
    for o in ops:
        if isinstance(o, PauliSum):
            out.append(o.to_sparse())
        elif sparse.issparse(o):
            out.append(o.tocsr())
        else:
            out.append(sparse.csr_matrix(np.asarray(o, dtype=complex)))
    return out


def commutant_dimension(
    ops,
    dim: int,
    max_dim: int = 8,
    tol: float = 1e-7,
) -> tuple[int, np.ndarray]:
    """Nullity of X -> sum_O ||[X, O]||^2 over dim x dim matrices.

    Includes adjoints automatically. Returns (count, inspected eigenvalues);
    count == max_dim means "at least max_dim". Eigenvalues of
    M = sum_O ad_O^dag ad_O below tol * scale count as zero: all of them
    from a dense eigvalsh up to dim 32, the lowest max_dim from matrix-free
    LOBPCG above.
    """
    mats = _as_sparse_list(ops)
    mats = mats + [m.conj().T.tocsr() for m in mats]
    scale = max(abs(m).max() ** 2 for m in mats) * len(mats)
    thresh = tol * scale

    if dim <= 32:
        eye = sparse.identity(dim, format="csr")
        M = sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
        for m in mats:
            C = sparse.kron(eye, m, format="csr") - sparse.kron(m.T, eye, format="csr")
            M = M + C.conj().T @ C
        vals = np.linalg.eigvalsh(M.toarray())
        return min(int(np.sum(vals < thresh)), max_dim), vals[:max_dim]

    matsH = [m.conj().T.tocsr() for m in mats]

    def mv(x):
        X = x.reshape(dim, dim)
        out = np.zeros_like(X)
        for O, Od in zip(mats, matsH):
            C = O @ X - X @ O
            out += Od @ C - C @ Od
        return out.reshape(-1)

    n2 = dim * dim
    Mop = LinearOperator((n2, n2), matvec=mv, dtype=complex)
    rng = np.random.default_rng(ERGODICITY_SEED)
    k = min(max_dim, n2 - 1)
    X0 = rng.normal(size=(n2, k)) + 1j * rng.normal(size=(n2, k))
    X0[:, 0] = np.eye(dim).reshape(-1)  # the identity is always in the commutant
    # the zero cluster sits an O(1) spectral gap below the rest, so a loose
    # residual tolerance already classifies eigenvalues unambiguously
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        vals, _ = lobpcg(Mop, X0, largest=False, tol=1e-5, maxiter=300)
    vals = np.sort(np.real(vals))
    count = int(np.sum(vals < thresh))
    return count, vals


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
        }


def ergodicity_check(
    H: StabilizerHamiltonian,
    jump_ops,
    loop_ops: dict | None = None,
    max_commutant: int = 8,
) -> ErgodicityReport:
    """Commutant-based ergodicity verdict with per-eigenspace detail.

    ``jump_ops`` may be PauliSums, dense or sparse matrices. ``loop_ops``
    (label -> PauliString) are checked against the op set: a loop operator in
    the commutant would be a conserved topological charge.
    """
    dim = 1 << H.n_qubits
    if dim > 256:
        raise CapacityError("ergodicity_check is a dense desk-scale verification")
    mats = _as_sparse_list(jump_ops)
    full_set = [H.as_sum().to_sparse()] + mats

    cdim, cvals = commutant_dimension(full_set, dim, max_dim=max_commutant)

    # eigenspace detail from the dense spectrum: inside each eigenspace the
    # reachable generators at depth <= 2 are the projected jumps (translations
    # survive, pair creators project to ~0) plus the number-type words K^dag K.
    Hd = H.to_dense()
    evals, evecs = np.linalg.eigh(Hd)
    rounded = np.round(evals, 9)
    number_words = [(M.conj().T @ M).tocsr() for M in mats]
    details = []
    for energy in np.unique(rounded):
        sel = rounded == energy
        V = evecs[:, sel]
        m = V.shape[1]
        if m > EIGENSPACE_DIM_CAP:
            details.append(EigenspaceDetail(float(energy), m, None,
                                            f"skipped (dim > {EIGENSPACE_DIM_CAP})"))
            continue
        projected = [V.conj().T @ (M @ V) for M in mats + number_words]
        sub_dim, _ = commutant_dimension(projected, m, max_dim=max_commutant)
        details.append(EigenspaceDetail(float(energy), m, sub_dim))

    loop_checks = {}
    if loop_ops:
        for label, w in loop_ops.items():
            wd = w.to_sparse() if hasattr(w, "to_sparse") else sparse.csr_matrix(w)
            worst = 0.0
            for M in full_set:
                c = (wd @ M - M @ wd)
                worst = max(worst, float(abs(c).max()) if c.nnz else 0.0)
            loop_checks[label] = worst

    ground_span, ground_comm = _ground_word_span(mats, evecs, rounded)

    return ErgodicityReport(
        ergodic=(cdim == 1),
        commutant_dim=cdim,
        commutant_eigenvalues=cvals,
        eigenspaces=tuple(details),
        conserved_loop_checks=loop_checks,
        ground_word_span_dim=ground_span,
        ground_block_commutant_dim=ground_comm,
    )


def _ground_word_span(mats, evecs, rounded) -> tuple[int | None, int | None]:
    """Dimension of the span of ground-space blocks of balanced jump words.

    String operators decompose as pair creation, translations, then pair
    annihilation, so the systematic enumeration runs over words
    K_a (K_t)^r K_b with r + 2 <= BALANCED_WORD_LENGTH (balance holds whenever
    the block is nonzero), plus a seeded random sample at full length.
    Reported, not asserted: records whether local words alone reconstruct the
    topological block algebra (span m^2) or leave sector freedom. Returns
    (span dimension, commutant dimension of the blocks), or (None, None) above
    an 8-dimensional ground space.
    """
    g_energy = rounded.min()
    V0 = evecs[:, rounded == g_energy]
    m = V0.shape[1]
    if m > 8:
        return None, None
    alphabet = mats + [M.conj().T.tocsr() for M in mats]
    rng = np.random.default_rng(ERGODICITY_SEED)
    basis: list[np.ndarray] = []
    blocks: list[np.ndarray] = []
    done = False

    def add(block: np.ndarray) -> bool:
        v = block.reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return False
        v = v / nrm
        for b in basis:
            v = v - np.vdot(b, v) * b
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
            blocks.append(block / nrm)
        return len(basis) == m * m

    add(np.eye(m, dtype=complex))
    lifted = [M @ V0 for M in alphabet]        # op applied to the ground basis
    for right in lifted:
        done = done or add(V0.conj().T @ right)
    if BALANCED_WORD_LENGTH >= 2 and not done:
        for right in lifted:
            for Ml in alphabet:
                if add(V0.conj().T @ (Ml @ right)):
                    done = True
                    break
            if done:
                break
    if BALANCED_WORD_LENGTH >= 3 and not done:
        for right in lifted:
            for Mm in alphabet:
                mid = Mm @ right
                for Ml in alphabet:
                    if add(V0.conj().T @ (Ml @ mid)):
                        done = True
                        break
                if done:
                    break
            if done:
                break
    n_ops = len(alphabet)
    for length in range(4, BALANCED_WORD_LENGTH + 1):
        if done:
            break
        for _ in range(min(800, n_ops ** length)):
            idx = rng.integers(0, n_ops, size=length)
            W = alphabet[idx[0]] @ V0
            for i in idx[1:]:
                W = alphabet[i] @ W
            if add(V0.conj().T @ W):
                done = True
                break

    span = len(basis)
    comm, _ = commutant_dimension(blocks, m, max_dim=min(8, m * m))
    return span, comm


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
    """Kernel dimension plus convergence of random initial states, each
    evolved by ``evolve``'s automatic method choice."""
    ss = steady_states(gen)
    rng = np.random.default_rng(seed)
    finals = []
    for _ in range(trials):
        rho0 = random_density_matrix(gen.n_levels, rng)
        rho_t = evolve(gen, rho0, t_max)
        finals.append(rho_t)
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
