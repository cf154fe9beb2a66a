"""Lindblad generators on vectorized density matrices: exact time evolution
(dense exponential of each block, or Krylov above a block size), steady-state
kernels and Gibbs states. SciPy is imported on first use, by the functions
that call it: importing this module loads none of it.

Evolution and steady states work on the superoperator written in an
orthonormal operator basis: the Hermitian Pauli basis on n qubits (where the
matrix is real), the matrix units otherwise. The connected components of
that matrix are exact invariant blocks; for a stabilizer Hamiltonian with
Pauli jumps dressed by syndrome projectors each lies in a coset of the
stabilizer group. One term builder, ``_sandwich_terms``, writes the map as
sandwich terms A rho B, and one kernel solver, ``_BlockForm.kernel``,
decides the kernel block by block; steady states, evolution and ``verify``'s
commutant dimension (minus the Lindbladian of unit-rate jumps) share them.

A non-Hermitian dense block is screened, bounded, then refined: by
Bendixson's theorem no eigenvalue of a block B has |lambda| below
-lambda_max(B + B^dag)/2, and by Gershgorin's that bound is at least the
screen, the least -(S_ii + sum_{j != i} |S_ij|)/2 over the block's rows of
S = T + T^dag, read from the entries of T. eigvalsh gives the bound only of
the blocks whose screen can reach the kernel, the ambiguity band or the
reported smallest |lambda|, and eigvals runs only on those whose bound can;
the diagnostics count them as ``bounded`` and ``refined``.

Steady states split the generator into commuting classes first (for the
toric Davies generator, the x-jumps with the plaquettes and the z-jumps with
the vertices): each coset's spectrum is a Kronecker sum of class spectra,
and the joint form is assembled only on the cosets that hold kernel.

The basis matrix is assembled in one batched pass over the sandwich terms'
operators, with no sparse matrix per term. Pauli sums (``bath`` keeps H and
the jumps of the Davies and composite generators as PauliSums, and so G) give
their coefficients as they are, matrices by one Walsh-Hadamard transform; the
product rule writes the entries (no d x d matrix). Every Pauli-basis entry
moves a basis element by a shift, an XOR of two terms' Pauli labels, so the
map is kept as its shift diagonals, T = sum_s P_s diag(v_s) (the matrix
units' one csr product is padded to that layout), with no csr matrix below
DENSE_BLOCK_LIMIT, coset by coset of the span of the shifts (each invariant).
Evolution seeds the assembly with the basis elements its initial states have
weight on and writes the map, bit for bit, on their cosets alone: from I/d on
the L=2 torus, 64 elements and 639 nonzeros instead of 65536 and 714,751.
Steady states and commutants assemble every block.

Those 64 elements are the stabilizer group, an abelian Pauli group: a state
on it is a function of the syndrome, and ``Sectors`` reads its spectrum, one
eigenvalue per syndrome sector, by one Walsh transform of its coefficients.
So ``sector_trajectory`` evolves I/d with no d x d matrix and no dense
eigensolver; ``trajectories`` returns d x d states for any initial state.

Conventions (fixed package-wide):

* hbar = 1; energies are quoted in units of the stabilizer coupling lambda
  and times in 1/lambda;
* the dissipator is the factor-2 form
      D[A] rho = 2 A rho A^dag - A^dag A rho - rho A^dag A,
  twice the more common 1/2-convention, so e.g. a damped qubit prepared in
  the excited state decays as p1(t) = exp(-2*gamma*t);
* vectorization is column-stacking: vec(rho) = rho.reshape(-1, order="F"),
  so vec(A rho B) = kron(B.T, A) vec(rho).
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import CapacityError, NumericalError, ParameterError
from .pauli import DENSE_LIMIT, PauliString, PauliSum, _number

if TYPE_CHECKING:
    from scipy import sparse

#: Hilbert-space dimension above which superoperators (either basis) are refused.
SUPEROP_DIM_LIMIT = 256
#: Largest invariant block that the kernel solver diagonalizes, and evolution
#: exponentiates, densely.
DENSE_BLOCK_LIMIT = 1024
#: steady_states counts |lambda| < KERNEL_TOL * ||L|| as kernel.
KERNEL_TOL = 1e-10
#: Largest kernel steady_states accepts.
MAX_KERNEL = 64
#: Smallest eigenvalue count steady_states reports (and first asks ARPACK for).
STEADY_EIGENVALUES = 6
#: Assembled Pauli coefficients below this fraction of their source count as
#: exact zeros, so rounding noise cannot join two invariant blocks; dropping
#: them moves eigenvalues far less than the kernel threshold.
ROUNDOFF = 1e-13
#: Dense entries per stack of equal-sized blocks (bounds a batch's memory).
_STACK_ENTRIES = 1 << 22
#: Dense entries per batch of the eigvalsh bounds (whose temporaries are
#: twice the batch) and of evolution: 64 blocks of 64.
_BOUND_ENTRIES = 1 << 18
#: A block's Bendixson bound may exceed its computed smallest |lambda| by
#: rounding (by up to 2.8e-14 at L=2), so blocks are refined up to this
#: fraction of ||L|| past a limit.
BOUND_SLACK = 1e-12
_I_POWERS = np.array([1, 1j, -1, -1j])
#: An evolved state with an eigenvalue below -POSITIVITY_TOL raises a warning.
POSITIVITY_TOL = 1e-6
#: DensityMatrix refuses, and evolution clips, an eigenvalue below -CLIP_TOL.
CLIP_TOL = 1e-8


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape((d, d), order="F")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) ||a - b||_1 via the eigenvalues of the Hermitian difference."""
    diff = np.asarray(a) - np.asarray(b)
    diff = (diff + diff.conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def _issparse(o) -> bool:
    """scipy.sparse.issparse(o), true only once scipy.sparse is loaded."""
    return "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(o)


def trace_product(A, B: np.ndarray) -> complex:
    """Tr(A B) from the entries, without forming the product: A dense or sparse."""
    if _issparse(A):
        return complex(A.multiply(np.asarray(B).T).sum())
    return complex(np.einsum("ij,ji->", A, B))


def _check_temperature(beta: float, omega: float, error: type[Exception]) -> None:
    """Raise ``error`` unless beta and omega are finite with beta*omega >= 0,
    so that the Boltzmann ratio e^{-beta*omega} is at most 1."""
    if not (math.isfinite(beta) and math.isfinite(omega)):
        raise error("beta and omega must be finite")
    if beta * omega < 0:
        raise error("negative temperature requested (beta*omega < 0)")


def _check_beta(beta: float) -> None:
    """Raise ParameterError unless beta is finite and nonnegative."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ParameterError(f"beta must be finite and nonnegative, got {beta}")


def thermal_qubit(beta: float, omega: float) -> np.ndarray:
    """diag(p0, p1) with p1/p0 = exp(-beta*omega) (hbar = 1)."""
    _check_temperature(beta, omega, ParameterError)
    w = np.exp(-beta * omega)
    return np.diag([1.0 / (1.0 + w), w / (1.0 + w)]).astype(complex)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated Hermitian, unit-trace, (numerically) positive matrix: its
    Hermitian part plus CLIP_TOL * I has a Cholesky factor."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError("density matrix must be square")
        if not np.isfinite(m).all():
            raise ParameterError("density matrix has non-finite entries")
        if np.linalg.norm(m - m.conj().T) > 1e-8 * max(1.0, np.linalg.norm(m)):
            raise ParameterError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-10:
            raise ParameterError(f"trace is {np.trace(m)}, expected 1")
        try:  # succeeds iff the smallest eigenvalue is above -CLIP_TOL
            np.linalg.cholesky((m + m.conj().T) / 2 + CLIP_TOL * np.eye(len(m)))
        except np.linalg.LinAlgError:
            raise ParameterError("density matrix has a significantly negative eigenvalue") from None

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def pure(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    def expectation(self, op) -> float:
        return trace_product(op, self.mat).real

    def distance(self, other: "DensityMatrix | np.ndarray") -> float:
        other_mat = other.mat if isinstance(other, DensityMatrix) else other
        return trace_distance(self.mat, other_mat)


@dataclass(frozen=True)
class JumpOp:
    """One (K, gamma) dissipation channel, K a matrix or a PauliSum.

    ``reset`` optionally marks single-ancilla-qubit thermal channels for the
    compiler: a dict with keys qubit, beta, omega and direction ("minus"/"plus").
    """

    op: sparse.spmatrix | PauliSum
    rate: float
    label: str = ""
    reset: dict | None = None

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ParameterError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class LindbladGenerator:
    """d rho/dt = -i [H, rho] + sum_k gamma_k D[K_k] rho.

    H and each jump's K are kept as PauliSums (on log2(n_levels) qubits) or
    converted to complex csr matrices. The gate compiler reads H's Pauli
    terms, so ``trotterize`` needs H as a PauliSum.
    """

    n_levels: int
    H: sparse.spmatrix | PauliSum
    jumps: tuple[JumpOp, ...]

    def __post_init__(self):
        given = (self.H, *(j.op for j in self.jumps))
        if not all(isinstance(o, PauliSum) for o in given):
            from scipy import sparse  # matrix ops only: Pauli sums need no SciPy
        h, *ops = [o if isinstance(o, PauliSum) else sparse.csr_matrix(o, dtype=complex, copy=True)
                   for o in given]
        for what, m in zip(["H", *(f"jump {j.label!r}" for j in self.jumps)], [h, *ops]):
            if ((1 << m.n,) * 2 if isinstance(m, PauliSum) else m.shape) != (self.n_levels,) * 2:
                raise ParameterError(f"{what} has the wrong shape")
        defect, size = (((h - h.adjoint()).norm_coeffs(), h.norm_coeffs())
                        if isinstance(h, PauliSum) else (abs(h - h.conj().T).max(), abs(h).max()))
        if defect > 1e-12 * max(1.0, size):
            raise ParameterError(f"H is not Hermitian (defect {defect:.2e})")
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "jumps", tuple(
            JumpOp(k, j.rate, j.label, j.reset) for k, j in zip(ops, self.jumps)))


def _check_capacity(d: int) -> None:
    """Refuse a superoperator (in any basis) for Hilbert dimension d >
    SUPEROP_DIM_LIMIT."""
    if d > SUPEROP_DIM_LIMIT:
        raise CapacityError(
            f"superoperator for dim {d} exceeds the configured limit {SUPEROP_DIM_LIMIT}"
        )


def _sandwich_terms(d: int, H, jumps) -> list:
    """Pairs (A, B) with L rho = sum A rho B for the d x d Lindbladian of H
    (None for none) and the ``JumpOp``s: (-iH - G, I), (I, iH - G) and
    (2 rate K, K^dag) per jump, with G = sum rate K^dag K. When H and every
    K are PauliSums (as ``bath`` builds them) so is every operator, G by Pauli
    algebra. Otherwise PauliSums are realized as csr, each K stays sparse or
    dense, and G is one product of the jumps stacked once as csr (dense if
    every K is), each row scaled by its rate."""
    ops = [j.op for j in jumps]
    given = ops if H is None else [H, *ops]
    if given and all(isinstance(o, PauliSum) for o in given):
        eye = PauliSum.from_string(PauliString.identity(given[0].n))
        adjoints = [K.adjoint() for K in ops]
        G = sum((Kd * K * j.rate for K, Kd, j in zip(ops, adjoints, jumps)), PauliSum(eye.n))
    else:
        from scipy import sparse
        H, *ops = [o.to_sparse() if isinstance(o, PauliSum) else o for o in [H, *ops]]
        eye = sparse.identity(d, dtype=complex, format="csr")
        G = sparse.csr_matrix((d, d), dtype=complex)
        if ops:
            S = (sparse.vstack([sparse.csr_matrix(o) for o in ops], format="csr")
                 if any(map(sparse.issparse, ops)) else np.concatenate(ops))
            G = S.conj().T @ (sparse.diags(np.repeat([j.rate for j in jumps], d)) @ S)
        adjoints = [K.conj().T for K in ops]
    terms = [(-G, eye), (eye, -G)] if H is None else [(-1j * H - G, eye), (eye, 1j * H - G)]
    return terms + [(2 * j.rate * K, Kd) for j, K, Kd in zip(jumps, ops, adjoints) if j.rate]


def _gershgorin_screen(rows, weights, transposed, labels: np.ndarray) -> np.ndarray:
    """For each block label of T, the minimum over the block's columns i of
    -(S_ii + sum_{j != i} |S_ij|) / 2, S = T + T^dag: weights + conj(transposed)
    at (rows, column) on the slots of a ``_BlockForm``. S is Hermitian (its
    column sums are its row sums) and block-diagonal like T, so by
    Gershgorin's theorem every eigenvalue of a block S_B is at most the
    largest of those sums: the screen is at most the block's Bendixson bound
    -lambda_max(S_B) / 2, read from the entries alone."""
    reach, cols = np.zeros(rows.shape[1]), np.arange(rows.shape[1])
    for r, w, t in zip(rows, weights, transposed):  # a diagonal slot adds S_ii, not |S_ii|
        S, on = w + t.conj(), r == cols  # on a Pauli form, shift 0 alone
        reach += np.abs(S) + np.where(on, S.real - np.abs(S), 0) if on.any() else np.abs(S)
    screen = np.full(labels.max() + 1, np.inf)
    np.minimum.at(screen, labels, -reach / 2)
    return screen


# ---------------------------------------------------------------------------
# the superoperator in an operator basis, cut into invariant blocks
# ---------------------------------------------------------------------------

def _weight(b, n: int):
    """|x & z| of the Pauli labels b = x*2^n + z."""
    return np.bitwise_count((b >> n) & b & ((1 << n) - 1)).astype(int)


def _butterfly(m: np.ndarray) -> np.ndarray:
    """In place, sum_j (-1)^(i.j) m[..., j] along the last axis (a power of
    two long). Butterflies (not a BLAS product, which rounds a one-row
    product differently) make each row's bits independent of the batch."""
    for h in 1 << np.arange(m.shape[-1].bit_length() - 1):  # pairs (j, j + h) in blocks of 2h
        pair = m.reshape(-1, 2, h)
        diff = pair[:, 0] - pair[:, 1]
        pair[:, 0] += pair[:, 1]
        pair[:, 1] = diff
    return m


def _entries(ops):
    """(operator, row, col, value) of the entries of every matrix in ``ops``,
    in operator order: csr and csc read off their index arrays (other formats
    and duplicates through a canonical csr copy), ndarrays by np.nonzero."""
    parts = []
    for k, o in enumerate(ops):
        if _issparse(o):
            if o.format not in ("csr", "csc") or not o.has_canonical_format:
                o = o.tocsr(copy=True)
                o.sum_duplicates()
            major = np.repeat(np.arange(len(o.indptr) - 1), np.diff(o.indptr))
            rows, cols = (major, o.indices) if o.format == "csr" else (o.indices, major)
            vals = o.data
        else:
            rows, cols = np.nonzero(o)
            vals = np.asarray(o)[rows, cols]
        parts.append((np.full(len(vals), k), rows, cols, vals.astype(complex)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _term_pairs(op: np.ndarray, n_terms: int):
    """Index pairs (p, q) of every entry p of A_t with every entry q of B_t,
    over the terms (A_t, B_t), for entries labelled by ``op`` (ascending) as
    operators A_0, B_0, A_1, B_1, ...: term after term, p-major."""
    count = np.bincount(op, minlength=2 * n_terms)
    start = np.cumsum(count) - count
    nb = count[1::2]
    sizes = count[0::2] * nb
    t = np.repeat(np.arange(n_terms), sizes)
    k = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return start[2 * t] + k // nb[t], start[2 * t + 1] + k % nb[t]


def _pauli_coefficients(ops, d: int):
    """The coefficients m[x*d + z] of every d x d operator M in ``ops``, with
    M = sum m[x*d + z] X^x Z^z and X^x Z^z |i> = (-1)^(z.i) |i^x>. A PauliSum
    or PauliString holds them: its phase-0 term (x, z), the X^x Z^z of
    ``to_sparse``, is label x*d + z with the stored coefficient (``arrays``).
    A matrix gives m[x*d + z] = (1/d) sum_i (-1)^(z.i) M[i^x, i]: one Walsh-
    Hadamard transform of all matrices' (operator, x) rows with entries, in
    chunks of at most _STACK_ENTRIES entries (``_butterfly``). Returns
    (operator, b, m[b]) above ROUNDOFF of the operator's largest |m|, sorted."""
    pauli = np.array([isinstance(o, (PauliSum, PauliString)) for o in ops], dtype=bool)
    found = []
    for k in np.flatnonzero(pauli):
        b, m = (ops[k] if isinstance(ops[k], PauliSum) else PauliSum.from_string(ops[k])).arrays()
        found.append((np.full(len(b), k), b, m))
    matrices = np.flatnonzero(~pauli)
    if matrices.size:
        op, row, col, val = _entries([ops[k] for k in matrices])
        keys, inverse = np.unique(matrices[op] * d + (row ^ col), return_inverse=True)
        step = max(1, _STACK_ENTRIES // d)
        for lo in range(0, len(keys), step):
            hi = min(lo + step, len(keys))
            chunk = (inverse >= lo) & (inverse < hi)
            m = np.zeros((hi - lo, d), complex)
            m[inverse[chunk] - lo, col[chunk]] = val[chunk]
            _butterfly(m)
            m /= d
            mag = np.abs(m)
            # a superset of the final cut, as no row's largest exceeds its operator's
            r, z = np.nonzero(mag > ROUNDOFF * mag.max(axis=1)[:, None])
            found.append((keys[lo + r] // d, (keys[lo + r] % d) * d + z, m[r, z]))
    op, b, m = (np.concatenate(f) for f in zip(*found))
    peak = np.zeros(len(ops))
    np.maximum.at(peak, op, np.abs(m))
    keep = np.flatnonzero(np.abs(m) > ROUNDOFF * peak[op])
    keep = keep[np.lexsort((b[keep], op[keep]))]
    return op[keep], b[keep], m[keep]


def _echelon(V: np.ndarray) -> np.ndarray:
    """A basis of the GF(2) span of the integers along the first axis of V,
    one per trailing index, by elimination: leading bits descending, each
    vector clear of the earlier leading bits, padded with zeros. b is in the
    span iff XORing in turn each vector whose leading bit b has leaves 0."""
    tops = []
    while V.any():
        tops.append(V.max(axis=0))
        V = np.minimum(V, V ^ tops[-1])
    return np.array(tops, dtype=V.dtype).reshape((len(tops),) + V.shape[1:])


def _gf2_basis(labels) -> list[int]:
    """The ``_echelon`` basis of the span of the integers ``labels``."""
    return [int(v) for v in _echelon(np.unique(labels))]


def _coset_union(shifts: np.ndarray, seeds, d: int):
    """The cosets b ^ S of the seeds b (every label below d*d for None), S the
    GF(2) span of the ``shifts``: support[c * 2^r + t] = rep_c ^ span[t], the
    representatives (no leading bit set) and S ascending, so each coset is in
    label order (span[t] is the XOR of span[2^i] over the bits i of t). Returns
    the support, rows[k] = arange ^ sigma for shift k = span[sigma], and 2^r."""
    basis, span = _gf2_basis(shifts), np.zeros(1, dtype=int)
    for v in basis:
        span = np.concatenate([span, span ^ v])
    span = np.sort(span)
    labels = reps = np.arange(d * d) if seeds is None else np.asarray(seeds, dtype=int)
    for v in basis:  # clears each leading bit in turn
        reps = np.minimum(reps, reps ^ v)
    reps = labels[reps == labels] if seeds is None else np.unique(reps)
    support = (reps[:, None] ^ span).ravel()
    return support, np.arange(len(support)) ^ np.searchsorted(span, shifts)[:, None], len(span)


def _ranked(k: np.ndarray, v: np.ndarray, shifts: int, d: int, grid: np.ndarray):
    """Per shift k, its distinct v < d ascending after zero pads in a (shift,
    column) table; each entry's column; the counts; the signs (-1)^(v.grid)."""
    keys, at = np.unique(k * d + v, return_inverse=True)
    count = np.bincount(keys // d, minlength=shifts)
    col = np.arange(len(keys)) - np.cumsum(count)[keys // d] + count.max(initial=0)
    table = np.zeros((shifts, count.max(initial=0)), dtype=int)
    table[keys // d, col] = keys % d
    return table, col[at], count, np.where(np.bitwise_count(table[..., None] & grid) & 1,
                                           np.int8(-1), np.int8(1))


def _pauli_transfer(terms, d: int, seeds=None):
    """Real matrix of the Hermiticity-preserving map rho -> sum A rho B over
    (A, B) in ``terms``, on the Hermitian basis i^|x & z| tau_b, where
    tau_b = X^x Z^z (b = x*d + z).

    On the tau_b it follows from the product rule
    tau_a tau_b tau_c = (-1)^(za.xb + za.xc + zb.xc) tau_(a^b^c): a pair
    (a, c) of Pauli terms, w the product of their coefficients, sends every
    input b to b^a^c with weight w (-1)^(za.xc) (-1)^(za.xb + zb.xc). With
    the pairs grouped by shift a^c and summed at (za, xc), input b of a shift
    gets sum_za (-1)^(za.xb) sum_xc w (-1)^(zb.xc). The inner sums are rows
    over the z-parts of R; the outer sign depends on xb only through its
    parities with a basis of the span of the za, so the outer sum is taken
    once per pattern of those parities. All shifts go in one pass, in chunks
    of _BOUND_ENTRIES entries, the sums looping over the columns of (shift,
    za, xc): each shift's distinct za and xc ascending after zero pads, which
    add zero to zero. So every entry is summed elementwise in ascending (za,
    xc), with no BLAS product, and its bits do not depend on R.

    Every entry moves an input by a shift, so each coset of the span S of the
    shifts is invariant. The matrix is written on R, every basis element
    (default) or the cosets of the ``seeds``, in the coset coordinates of
    ``_coset_union``. Returns (R, rows, weights, 2^r), one row per shift s
    (ascending): rows[k] = arange ^ sigma_s, the index of R[j] ^ s, and the
    weight of T[rows[k, j], j], 0 where cut, with the basis phase i^(w(b) -
    w(b^s)) taken as +-Re or +-Im.
    """
    n = d.bit_length() - 1
    op, b, m = _pauli_coefficients([o for term in terms for o in term], d)
    p, q = _term_pairs(op, len(terms))
    a, c, w = b[p], b[q], m[p] * m[q]
    za, xc, shift = a & (d - 1), c >> n, a ^ c
    w = w * np.where(np.bitwise_count(za & xc) & 1, -1.0, 1.0)
    order = np.argsort(shift, kind="stable")
    shift, za, xc, w = shift[order], za[order], xc[order], w[order]
    shifts, starts, k = np.unique(shift, return_index=True, return_inverse=True)
    cut = ROUNDOFF * np.add.reduceat(np.abs(w), starts)  # of the magnitude summed per shift
    support, rows, coset = _coset_union(shifts, seeds, d)
    weights = np.zeros((len(shifts), len(support)))
    bw = _weight(support, n).astype(np.uint8)  # mod 256, as only q mod 4 is read
    # the grid of x- and z-parts: every one on the full support, where b's place is b
    (ux, ix), (uz, iz) = ((np.arange(d), p) if seeds is None else np.unique(p, return_inverse=True)
                          for p in (support >> n, support & (d - 1)))
    # each shift's za and xc, and the signs (-1)^(za.xb) and (-1)^(zb.xc) on the grid
    (va, ia, na, zsign), (vc, ic, nc, xsign) = (_ranked(k, v, len(shifts), d, grid)
                                                for v, grid in ((za, ux), (xc, uz)))
    m = np.zeros((len(shifts), va.shape[1], vc.shape[1]), complex)  # [shift, za, xc]
    np.add.at(m, (k, ia, ic), w)
    # xb's parities with the basis of the span of its shift's za fix every
    # (-1)^(za.xb): one row of the outer sums per pattern of a shift, taken at its first x
    basis = _echelon(va.T)
    code = np.tensordot(1 << np.arange(len(basis)), np.bitwise_count(basis[..., None] & ux) & 1, 1)
    keys, first, pattern = np.unique(np.arange(len(shifts))[:, None] << len(basis) | code,
                                     return_index=True, return_inverse=True)
    pattern, owner, rep = pattern.reshape(code.shape), keys >> len(basis), first % len(ux)
    step = max(1, _BOUND_ENTRIES // max(4 * len(ux) * len(uz), len(support)))  # table, index
    for lo in range(0, len(shifts), step):
        s, (u0, u1) = slice(lo, lo + step), np.searchsorted(owner, [lo, lo + step])
        a0, c0 = va.shape[1] - na[s].max(), vc.shape[1] - nc[s].max()  # the chunk's columns
        inner = np.zeros((len(va[s]), va.shape[1] - a0, len(uz)), complex)  # [shift, za, zb]
        for j in range(c0, vc.shape[1]):
            inner += m[s, a0:, j, None] * xsign[s, None, j]
        outer, own = np.zeros((u1 - u0, len(uz)), complex), owner[u0:u1]  # [pattern row, zb]
        for j in range(a0, va.shape[1]):
            outer += zsign[own, j, rep[u0:u1]][:, None] * inner[own - lo, j - a0]
        # the real part of v i^q, v = outer[row, zb], is Re v, -Im v, -Re v or
        # Im v for q = 0..3: one table of those, read at [row, zb, q]
        table = np.stack([outer.real, -outer.imag, -outer.real, outer.imag], axis=-1)
        table[np.abs(outer) <= cut[own, None]] = 0
        flat = np.take((pattern[s] - u0) * (4 * len(uz)), ix, axis=1)
        flat += 4 * iz
        flat += (bw - bw[rows[s]]) & 3
        np.take(table, flat, out=weights[s])
    return support, rows, weights, coset


@dataclass(frozen=True)
class _BlockForm:
    """The superoperator T in an orthonormal operator basis, on an invariant
    set of basis elements (``support``, their basis indices: every element,
    or the cosets of a seeded form), in k slots per column: slot (s, j) is
    weights[s, j] at (rows[s, j], j), its transposed entry slot (pair[s, j],
    rows[s, j]); a Pauli slot is a shift, an involution (pair[s] = s). Each
    run of ``coset`` elements moves within itself as the first does
    (rows[:, :coset]): a coset of the shifts (rows = arange ^ sigma), or the
    whole support of a matrix-unit form. Each element's block (connected
    component of T, numbered by smallest label) and position in it, the
    blocks' sizes, starts and order, and nnz are derived once.

    ``coefficients(rho)`` expands a d x d matrix in the basis, on the
    support, and ``vectors(C)`` maps coefficient columns on the support back
    to column-stacking vec form; for a form on every element both maps are
    unitary. ``hermitian`` records that T is a Hermitian map (the commutant
    form of ``verify``), so its blocks get Hermitian eigensolvers.
    """

    basis: str
    support: np.ndarray
    rows: np.ndarray
    weights: np.ndarray
    pair: np.ndarray
    coset: int
    coefficients: Callable[[np.ndarray], np.ndarray]
    vectors: Callable[[np.ndarray], np.ndarray]
    hermitian: bool

    def __post_init__(self):
        from scipy.sparse import csgraph, csr_matrix
        # T's blocks: weak components of T^T's pattern, no stored zeros
        # (edges), found on the distinct patterns of live slots of the cosets
        # (byte strings, a zero byte ending each) side by side
        k, m, n = len(self.rows), self.coset, len(self.support)
        live = self.weights != 0
        cosets = live.reshape(k, n // m, m).swapaxes(0, 1)  # [coset, slot, element]
        key = np.c_[np.packbits(cosets.reshape(n // m, -1), axis=1), np.zeros(n // m, np.uint8)]
        _, first, which = np.unique(key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                                    return_index=True, return_inverse=True)
        pattern, node = cosets[first], np.arange(len(first) * m).reshape(-1, 1, m)
        edges = (np.broadcast_to(node, pattern.shape)[pattern],
                 (node - node % m + self.rows[:, :m])[pattern])
        graph = csr_matrix((np.ones(len(edges[0])), edges), shape=(node.size,) * 2)
        comp = csgraph.connected_components(graph, directed=True, connection="weak")[1]
        lead = np.unique(comp, return_index=True)[1][comp].reshape(-1, m) % m  # first element
        head = self.support[lead[which] + m * np.arange(n // m)[:, None]]  # its label
        labels = np.unique(head, return_inverse=True)[1].ravel()
        sizes = np.bincount(labels)
        order, starts = np.argsort(labels, kind="stable"), np.cumsum(sizes) - sizes
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n) - np.repeat(starts, sizes)
        depth = (pattern * np.arange(1, k + 1)[:, None]).max(axis=1, initial=0)[which].ravel()
        self.__dict__.update(labels=labels, sizes=sizes, order=order, starts=starts,
                             position=position, depth=depth, nnz=int(np.count_nonzero(live)))

    def blocks(self, among=None, entries: int = _STACK_ENTRIES):
        """Member indices of the blocks labelled in ``among`` (default all),
        as arrays (n_blocks, size) of equal-sized blocks, each array holding
        at most ``entries`` dense entries (or one block)."""
        among = np.arange(len(self.sizes)) if among is None else np.asarray(among)
        for s in np.unique(self.sizes[among]):
            chosen = among[self.sizes[among] == s]
            members = self.order[self.starts[chosen][:, None] + np.arange(s)]
            step = max(1, entries // (s * s))
            for i in range(0, len(members), step):
                yield members[i:i + step]

    def restrict(self, members: np.ndarray) -> sparse.csr_matrix:
        """T on the blocks in ``members``, block after block, as csr."""
        from scipy import sparse
        flat = members.ravel()
        where = np.empty(len(self.support), dtype=np.intp)
        where[flat] = np.arange(len(flat))
        r, c = np.nonzero(self.weights[:, flat])
        return sparse.csr_matrix((self.weights[r, flat[c]], (where[self.rows[r, flat[c]]], c)),
                                 shape=(len(flat), len(flat)))

    T = property(lambda self: self.restrict(np.arange(len(self.support))[None]),
                 doc="T on the whole support as csr, built on demand.")

    def dense(self, members: np.ndarray) -> np.ndarray:
        """The blocks in ``members`` (from ``blocks``) as a dense stack
        (n_blocks, size, size): one linear-index scatter per slot."""
        nb, s = members.shape
        cols = members.ravel()
        stack = np.zeros(nb * s * s, self.weights.dtype)
        at = np.arange(nb * s) // s * (s * s) + self.position[cols]  # (block, column)
        depth = self.depth[cols].max()
        for rows, weights in zip(self.rows[:depth], self.weights[:depth]):
            w = np.take(weights, cols)
            live = np.flatnonzero(w)
            stack[at[live] + s * self.position[np.take(rows, cols[live])]] = w[live]
        return stack.reshape(nb, s, s)

    def scale(self) -> float:
        """The larger of T's maximal column and row 1-norms (kernel thresholds)."""
        mag = np.abs(self.weights)
        rows = np.bincount(self.rows.ravel(), mag.ravel(), len(self.support))
        return float(max(mag.sum(axis=0).max(), rows.max(), 1e-300))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """T x, read from the columns where x is nonzero."""
        j = np.flatnonzero(x)
        y, rows, n = self.weights[:, j] * x[j], self.rows[:, j].ravel(), len(self.support)
        return np.bincount(rows, y.real.ravel(), n) + 1j * np.bincount(rows, y.imag.ravel(), n)

    def kernel(self, thresh: float, scale: float, k: int, cap: int):
        """Kernel of T (|lambda| < thresh), solved block by block.

        Blocks of at most DENSE_BLOCK_LIMIT elements are solved densely,
        batched by size. A Hermitian form (the commutant) gets eigvalsh on
        every block and returns no kernel vectors. Any other form goes
        through ``_refine``: eigvalsh bounds on the blocks whose Gershgorin
        screen can reach the returned spectrum, eigvals only on the blocks
        whose bound can, and eig on the blocks that hold kernel. Larger
        blocks get shift-invert ARPACK about 1e-9 * scale from a fixed start
        vector: k pairs, doubled until the set reaches past 100 * thresh or
        holds ``cap`` (a Hermitian form keeps |lambda|). An eigenvalue within
        a factor 100 of thresh on either side makes the kernel ambiguous and
        raises NumericalError.

        Returns the eigenvalues computed, sorted by |lambda| (ascending for a
        Hermitian form, which is positive semidefinite here); the kernel
        dimension (the number of kernel vectors when they are returned); the
        kernel as (members, orthonormal coefficient columns) per block, empty
        for a Hermitian form; and diagnostics basis, blocks, max_block, nnz
        (of T), bounded (the dense blocks given an eigvalsh bound), refined
        (those sent through eigvals) and margin (the smallest non-kernel
        |lambda| over thresh, None if none). For a non-Hermitian form the
        eigenvalues are complex, and run up to the limit below which
        ``_refine`` has every dense eigenvalue, at least 100 * thresh: their
        first max(kernel + 4, k) are those of the sorted union of all block
        spectra, bit for bit.
        """
        spectra, kernel = [], []
        for members in self.blocks():
            if members.shape[1] > DENSE_BLOCK_LIMIT:
                for idx in members:
                    vals, v = _arpack_block(self.restrict(idx[None]), k, thresh, scale, cap)
                    if self.hermitian:
                        vals = np.abs(vals)
                    else:
                        kernel.append((idx, v[:, np.abs(vals) < thresh]))
                    spectra.append(vals)
            elif self.hermitian:
                spectra.append(np.linalg.eigvalsh(self.dense(members)).ravel())
        refined, bounded, limit = 0, 0, np.inf
        if not self.hermitian and self.sizes.min() <= DENSE_BLOCK_LIMIT:
            # dense blocks come first, as blocks() yields sizes in ascending order
            dense_spectra, dense_kernel, limit, bounded = self._refine(thresh, scale, k, spectra)
            spectra, kernel = dense_spectra + spectra, dense_kernel + kernel
            refined = len(dense_spectra)
        vals = np.concatenate(spectra)
        vals = vals[np.argsort(vals if self.hermitian else np.abs(vals), kind="stable")]
        vals = vals[np.abs(vals) <= limit]
        _check_band(np.abs(vals), thresh)
        n_kernel = (int(np.sum(vals < thresh)) if self.hermitian
                    else sum(v.shape[1] for _, v in kernel))
        margin = float(abs(vals[n_kernel]) / thresh) if n_kernel < len(vals) else None
        diagnostics = _kernel_diagnostics(self.basis, len(self.sizes), int(self.sizes.max()),
                                          self.nnz, bounded, refined, margin)
        return vals, n_kernel, kernel, diagnostics

    def _refine(self, thresh: float, scale: float, k: int, others: list):
        """Spectra and kernels of the blocks of at most DENSE_BLOCK_LIMIT
        elements of a non-Hermitian form, by screen, bound and refine.

        By Bendixson's theorem every eigenvalue of a block B has |lambda| >=
        -Re lambda >= bound_B = -lambda_max(B + B^dag) / 2, and by
        Gershgorin's bound_B >= screen_B (``_gershgorin_screen``, from the
        slots). eigvals runs on the original blocks whose bound lies
        within BOUND_SLACK * scale of a limit: first 100 * thresh (every
        kernel and ambiguous eigenvalue) together with the k lowest bounds;
        then the m-th smallest |lambda| found so far, with the ARPACK spectra
        ``others``, where m = max(kernel + 4, k). A block's bound (one
        eigvalsh, in sub-batches of _BOUND_ENTRIES entries) is computed only
        when its screen lies within twice that slack of a limit (once for the
        bound's rounding, once for the screen's), so the blocks chosen are
        those that bounds on every block would choose. So every eigenvalue
        up to the larger of the two limits is computed, bit for bit as the
        eigvals of every block would give it. eig runs on the blocks that
        hold kernel. Returns the spectra and the kernel, in block order, that
        limit, and the number of blocks bounded.
        """
        dense = np.flatnonzero(self.sizes <= DENSE_BLOCK_LIMIT)
        slack = BOUND_SLACK * scale
        # T^T on the slots, weights[pair, rows]: a Pauli slot's own row, one take a shift
        transposed = (self.weights[self.pair, self.rows] if self.pair.shape[1] > 1 else
                      np.array([np.take(w, r) for w, r in zip(self.weights, self.rows)]))
        screen = _gershgorin_screen(self.rows, self.weights, transposed, self.labels)
        bound = np.full(len(self.sizes), np.inf)  # inf until computed

        def bound_up_to(limit):
            chosen = dense[(screen[dense] <= limit + 2 * slack) & np.isinf(bound[dense])]
            for members in self.blocks(chosen, _BOUND_ENTRIES):
                B = self.dense(members)
                bound[self.labels[members[:, 0]]] = -np.linalg.eigvalsh(
                    B + B.conj().swapaxes(1, 2))[:, -1] / 2

        found = {}

        def refine(chosen):
            for members in self.blocks(np.setdiff1d(chosen, list(found))):
                found.update(zip(self.labels[members[:, 0]].tolist(),
                                 np.linalg.eigvals(self.dense(members)).astype(complex)))

        # the k lowest screens bound at least k blocks; then no block left
        # unbounded can have a bound at or below the k-th lowest one found
        kth = min(k, len(dense)) - 1
        bound_up_to(max(100 * thresh, np.sort(screen[dense])[kth]))
        bound_up_to(np.sort(bound[dense])[kth])
        refine(np.union1d(dense[bound[dense] <= 100 * thresh + slack],
                          dense[np.argsort(bound[dense], kind="stable")[:k]]))
        mags = np.abs(np.concatenate([*found.values(), *others]))
        m = max(int(np.sum(mags < thresh)) + 4, k)
        reach = np.partition(mags, m - 1)[m - 1] if m <= mags.size else np.inf
        bound_up_to(reach)
        refine(dense[bound[dense] <= reach + slack])

        order = sorted(found, key=lambda b: (self.sizes[b], b))  # the order of blocks()
        kernel = []
        hit = np.array([b for b in order if (np.abs(found[b]) < thresh).any()], dtype=int)
        for members in self.blocks(hit):
            w, v = np.linalg.eig(self.dense(members))
            kernel += [(idx, vb[:, np.abs(wb) < thresh]) for idx, wb, vb in zip(members, w, v)]
        bounded = int(np.isfinite(bound).sum())
        return [found[b] for b in order], kernel, max(reach, 100 * thresh), bounded


def _check_band(mags: np.ndarray, thresh: float) -> None:
    """Raise NumericalError, naming the smallest, if some |lambda| in ``mags``
    lies within a factor 100 of the kernel threshold on either side."""
    band = mags[(mags >= thresh / 100) & (mags < 100 * thresh)]
    if band.size:
        raise NumericalError(f"|lambda| = {band.min():.3e} lies within a factor 100 of the "
                             f"kernel threshold {thresh:.3e}: the kernel dimension is ambiguous")


def _kernel_diagnostics(basis: str | None, blocks: int, max_block: int, nnz: int,
                        bounded: int = 0, refined: int = 0, margin: float | None = None) -> dict:
    """The diagnostics of ``_BlockForm.kernel``, also written for a kernel
    decided without a block form."""
    return {"basis": basis, "blocks": blocks, "max_block": max_block, "nnz": nnz,
            "bounded": bounded, "refined": refined, "margin": margin}


def _arpack_block(B: sparse.spmatrix, k: int, thresh: float, scale: float, cap: int):
    """Smallest-|lambda| eigenpairs of one block by shift-invert ARPACK, k grown
    until the computed set reaches past 100 * thresh (or the cap)."""
    from scipy.sparse.linalg import eigs
    n = B.shape[0]
    k_req = min(max(k, 2), n - 2)
    # a fixed generic start vector (ones can be orthogonal to a kernel) makes
    # the result reproducible
    v0 = np.random.default_rng(0).standard_normal(n)
    while True:
        try:
            vals, vecs = eigs(B, k=k_req, sigma=1e-9 * scale, which="LM", v0=v0)
        except Exception as exc:  # ARPACK failure, singular factorization, ...
            raise NumericalError(f"sparse eigensolve failed: {exc}") from exc
        if np.abs(vals).max() >= 100 * thresh or k_req >= min(cap, n - 2):
            return vals, vecs
        k_req = min(2 * k_req, n - 2)


def _matrix_unit_transfer(terms, d: int) -> sparse.csr_matrix:
    """Column-stacking matrix of rho -> sum A rho B, the sum of kron(B^T, A)
    over the terms. Realigned, it is R[(rA, cA), (rB, cB)] = sum_t
    A_t[rA, cA] B_t[rB, cB]: one csr product of the A entries (d^2 x terms)
    with the B entries (terms x d^2), each entry of R then moved to its kron
    position (cB*d + rA, rB*d + cA). Cut like the Pauli transfer: operator
    entries at or below ROUNDOFF of their operator's largest, and assembled
    entries at or below ROUNDOFF of the magnitude that summed into them (the
    same product of the magnitudes, whose pattern holds R's): one sparse
    elementwise comparison."""
    from scipy import sparse
    op, row, col, val = _entries([o for term in terms for o in term])
    mag = np.abs(val)
    peak = np.zeros(2 * len(terms))
    np.maximum.at(peak, op, mag)
    keep = mag > ROUNDOFF * peak[op]
    op, flat, val, mag = op[keep], row[keep] * d + col[keep], val[keep], mag[keep]
    a, b, shape = op % 2 == 0, op % 2 == 1, (d * d, len(terms))
    R, bound = (sparse.csr_matrix((v[a], (flat[a], op[a] // 2)), shape=shape)
                @ sparse.csr_matrix((v[b], (op[b] // 2, flat[b])), shape=shape[::-1])
                for v in (val, mag))
    R = R.multiply(abs(R) > ROUNDOFF * bound).tocoo()  # one elementwise cut, no indexing
    i, j = R.row, R.col
    return sparse.csr_matrix((R.data, ((j % d) * d + i // d, (j // d) * d + i % d)),
                             shape=(d * d, d * d))


def _column_layout(T: sparse.csr_matrix):
    """T as the slots (rows, weights, pair) of a ``_BlockForm``: column j
    holds T[:, j] on the pattern of T + T^T, padded by zeros at row j."""
    from scipy import sparse
    n, A = T.shape[0], (abs(T) + abs(T.T)).tocsr()  # symmetric: row j is column j
    A.sort_indices()
    col = np.repeat(np.arange(n), np.diff(A.indptr))
    slot = np.arange(A.nnz) - A.indptr[col]
    k = slot.max(initial=-1) + 1
    rows, weights = np.tile(np.arange(n), (k, 1)), np.zeros((k, n), T.dtype)
    pair = np.tile(np.arange(k)[:, None], (1, n))  # a pad is its own transposed slot
    rows[slot, col], weights[slot, col] = A.indices, np.asarray(T[A.indices, col]).ravel()
    # the pattern is symmetric: A's transpose holds at (i, j) the slot of (j, i)
    pair[slot, col] = sparse.csr_matrix((slot, A.indices, A.indptr), shape=(n, n)).T.tocsr().data
    return rows, weights, pair


def _block_form(terms, d: int, hermitian: bool = False, seeds=None) -> _BlockForm:
    """Write rho -> sum A rho B over (A, B) in ``terms`` (d x d matrices) in
    the orthonormal Hermitian Pauli basis sigma_(x,z) = i^|x & z| X^x Z^z /
    sqrt(d) when d = 2^n, else in the matrix units, and label its invariant
    blocks. In the Pauli basis the matrix is real for a map that takes
    Hermitian operators to Hermitian ones (a Lindbladian, or the commutant
    form of ``verify``), and only the real part is kept. ``hermitian`` says
    that the map is Hermitian itself (the commutant form).

    ``seeds`` (Pauli basis indices x*d + z) restricts a Pauli-basis form to
    the cosets of the span of the map's shifts that hold a seed
    (``_pauli_transfer``): an invariant set made of whole blocks of the full
    form, every block holding a seed among them, with the full form's
    entries there. The matrix-unit form ignores them. No d x d matrix is
    formed: ``vectors`` maps coefficients back by one ``_butterfly``."""
    _check_capacity(d)
    if d & (d - 1):  # one class, the whole support: a single pattern of live slots
        rows, weights, pair = _column_layout(_matrix_unit_transfer(terms, d))
        return _BlockForm("matrix-unit", np.arange(d * d), rows, weights, pair, d * d, vec,
                          np.asarray, hermitian)
    support, rows, weights, coset = _pauli_transfer(terms, d, seeds)
    phase = _I_POWERS[_weight(support, d.bit_length() - 1) % 4] / np.sqrt(d)  # of sigma_b / tau_b

    def coefficients(rho):
        _, b, m = _pauli_coefficients([rho], d)
        at = np.minimum(np.searchsorted(b, support), len(b) - 1)
        return np.where(b[at] == support, (m[at] / phase).real, 0)

    def vectors(C):
        m = np.zeros((C.shape[1], d * d), complex)
        m[:, support] = C.T * phase
        out, i = np.zeros_like(m), np.arange(d)  # the butterfly's [k, x, i] is M[i^x, i]
        out[:, ((i ^ i[:, None]) + d * i).ravel()] = _butterfly(
            m.reshape(-1, d, d)).reshape(-1, d * d)
        return out.T

    return _BlockForm("pauli", support, rows, weights, np.arange(len(rows))[:, None], coset,
                      coefficients, vectors, hermitian)  # each shift is an involution


class Sectors:
    """The syndrome sectors of the abelian group R of Pauli labels b = x*d + z
    spanned by ``labels``: the 2^r joint eigenspaces, each of dimension
    d / 2^r, of P_i = i^|x&z| X^x Z^z over the ``_gf2_basis`` g_1..g_r of R.
    By the product rule of ``_pauli_transfer`` a Hermitian i^e X^x Z^z with
    label in R is eps prod_i P_i^k_i (eps = +-1): eps (-1)^(k.s) on sector
    s. Anticommuting elements of R raise NumericalError, n > 31 (labels
    past 62 bits) CapacityError."""

    def __init__(self, labels, d: int):
        self.n = d.bit_length() - 1
        if self.n > 31:
            raise CapacityError(f"sector labels of {self.n} qubits exceed 62 bits")
        self.basis = _gf2_basis(labels)
        self.multiplicity = d >> len(self.basis)
        g = np.array(self.basis, dtype=int)
        if ((np.bitwise_count((g[:, None] >> self.n) & g)
             + np.bitwise_count(g[:, None] & (g >> self.n))) & 1).any():
            raise NumericalError("the sector group has anticommuting elements")

    def values(self, labels, e, a) -> np.ndarray:
        """The eigenvalue on each sector (columns) of the Hermitian
        sum_b a[b, j] i^e_b X^x Z^z for each column j of ``a`` (rows): a
        ``_butterfly`` of eps a at k. Weight off R above 1e-10 raises, a
        table past 4^DENSE_LIMIT entries (a dense matrix's) CapacityError."""
        if (entries := a.shape[1] << len(self.basis)) > 4 ** DENSE_LIMIT:
            raise CapacityError(f"a sector table of {entries} entries exceeds 4^{DENSE_LIMIT}")
        b = np.asarray(labels, dtype=int)
        rest, k, e = b, np.zeros_like(b), np.asarray(e, dtype=int)
        for i, g in enumerate(self.basis):
            use = (rest ^ g) < rest
            # tau_acc tau_g = (-1)^(z_acc.x_g) tau_(acc^g) for the product so
            # far, acc = b ^ rest, and tau_g = i^-|x&z| P_g
            flip = np.bitwise_count((b ^ rest) & (g >> self.n)).astype(int)
            e = e + use * (2 * flip - _weight(g, self.n))
            rest, k = np.where(use, rest ^ g, rest), k | (use.astype(int) << i)
        if np.linalg.norm(a[rest != 0]) > 1e-10 * np.linalg.norm(a):
            raise NumericalError("weight off the sector group")
        lam = np.zeros((1 << len(self.basis), a.shape[1]))
        np.add.at(lam, k[rest == 0], ((1 - (e & 2))[:, None] * a)[rest == 0])
        return _butterfly(np.ascontiguousarray(lam.T))

    def characters(self, strings) -> np.ndarray:
        """The value of each Hermitian PauliString (rows) on each sector."""
        return self.values([(p.x << self.n) | p.z for p in strings], [p.k for p in strings],
                           np.eye(len(strings)))

    def state(self, rho: np.ndarray) -> np.ndarray:
        """The sector populations of a d x d state, one row."""
        _, b, m = _pauli_coefficients([rho], len(rho))
        w = _weight(b, self.n)
        return self.values(b, w, (m * _I_POWERS[-w % 4]).real[:, None]) * self.multiplicity


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def trajectory(g: LindbladGenerator, rho0: DensityMatrix, t: float,
               points: int) -> list[DensityMatrix]:
    """States at np.linspace(0, t, points): ``trajectories`` of one state."""
    return trajectories(g, [rho0], t, points)[0]


def trajectories(g: LindbladGenerator, states: Sequence[DensityMatrix], t: float,
                 points: int) -> list[list[DensityMatrix]]:
    """For each initial state, its states at np.linspace(0, t, points): one
    ``_propagate`` of their coefficients on the block form seeded with the
    basis elements they have weight on (from I/d on the L=2 torus one coset
    of 64 elements out of 65536), then ``_finalize_state``. Each touched
    block steps by its dense exponential up to DENSE_BLOCK_LIMIT elements,
    by expm_multiply above. A non-finite t, or points that is not an
    integer >= 2, raises ParameterError; a failed or non-finite propagation
    NumericalError."""
    d = g.n_levels
    if any(rho0.dim != d for rho0 in states):
        raise ParameterError("state dimension does not match the generator")
    points = _check_grid(t, points)
    if t == 0 or not states:
        return [[rho0] * points for rho0 in states]

    mats = [rho0.mat for rho0 in states]
    seeds = _pauli_coefficients(mats, d)[1] if d & (d - 1) == 0 else None
    form = _block_form(_sandwich_terms(d, g.H, g.jumps), d, seeds=seeds)
    c0 = np.stack([form.coefficients(m) for m in mats], axis=1)
    cs = _propagate(form, c0, t, points)[0]
    vecs = form.vectors(cs[1:].transpose(1, 0, 2).reshape(len(c0), -1))
    vecs = vecs.reshape(d * d, points - 1, len(states))
    return [[rho0] + [_finalize_state(unvec(v)) for v in vecs[:, :, i].T]
            for i, rho0 in enumerate(states)]


def _check_grid(t: float, points: int) -> int:
    """Raise ParameterError unless t and points make a trajectory; points
    comes back as an int (an integral float passes)."""
    if not (math.isfinite(t) and t >= 0):
        raise ParameterError(f"t must be finite and nonnegative, got {t}")
    points = _number("points", points, True)
    if points < 2:
        raise ParameterError(f"a trajectory needs at least 2 points, got {points}")
    return points


def _propagate(form: _BlockForm, c0: np.ndarray, t: float, points: int):
    """The columns c0 (on ``form.support``) at np.linspace(0, t, points),
    through the blocks some column has weight on, batched by size: a block
    of at most DENSE_BLOCK_LIMIT elements steps with its dense exp(L dt), a
    larger one takes one expm_multiply (Al-Mohy/Higham) per size. Also
    returns diagnostics support (its size), blocks (touched) and method, the
    steps run: "expm" (dense), "krylov" (expm_multiply) or both."""
    cs = np.zeros((points,) + c0.shape, c0.dtype)
    cs[0] = c0
    touched = np.unique(form.labels[np.flatnonzero(c0.any(axis=1))])
    used = set()
    try:
        for members in form.blocks(touched, _BOUND_ENTRIES):
            if members.shape[1] <= DENSE_BLOCK_LIMIT:
                from scipy.linalg import expm
                used.add("expm")
                U = expm(form.dense(members) * (t / (points - 1)))
                v = c0[members]
                for p in range(1, points):
                    v = np.einsum("bij,bjk->bik", U, v)
                    cs[p, members] = v
            else:
                from scipy.sparse.linalg import expm_multiply
                used.add("krylov")
                idx = members.ravel()
                cs[:, idx] = expm_multiply(form.restrict(members), c0[idx], start=0.0, stop=t,
                                           num=points, endpoint=True)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"propagation to t = {t} failed: {exc}") from exc
    return cs, {"support": len(form.support), "blocks": len(touched),
                "method": ",".join(sorted(used))}


def sector_trajectory(g: LindbladGenerator, t: float, points: int):
    """The trajectory from I/d at np.linspace(0, t, points) as ``Sectors``
    populations (rows), with no d x d matrix: the form seeded with I alone
    lives on the span of the map's shifts (for syndrome-dressed Pauli jumps
    the stabilizer group), and the sector eigenvalues get the checks of
    ``_finalize_state``. Returns the Sectors, the populations and the
    ``_propagate`` diagnostics with seconds, clipped and smallest eigenvalue."""
    start = time.perf_counter()
    points = _check_grid(t, points)
    d = g.n_levels
    if d & (d - 1):
        raise ParameterError("sector populations need a register of qubits")
    form = _block_form(_sandwich_terms(d, g.H, g.jumps), d, seeds=np.zeros(1, dtype=int))
    cs, diagnostics = _propagate(form, (form.support == 0)[:, None] / np.sqrt(d), t, points)
    sectors = Sectors(form.support, d)
    lam = sectors.values(form.support, _weight(form.support, sectors.n),
                         cs[:, :, 0].T / np.sqrt(d))
    drift = np.abs(lam.sum(axis=1) * sectors.multiplicity - 1.0).max()
    if not drift <= 1e-9:
        raise NumericalError(f"an evolved state is not finite or its trace drifted by {drift}")
    low = lam.min(axis=1)
    if low.min() < -POSITIVITY_TOL:
        warnings.warn(f"positivity violation {low.min():.2e} in an evolved state")
    clip = low < -CLIP_TOL
    clipped = int((lam[clip] < 0).sum())
    lam[clip] = np.maximum(lam[clip], 0.0)
    return sectors, lam / lam.sum(axis=1, keepdims=True), {
        **diagnostics, "clipped": clipped, "smallest": float(low.min()),
        "seconds": time.perf_counter() - start}


def evolve(g: LindbladGenerator, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Propagate rho0 for time t: the last state of a two-point trajectory."""
    return trajectory(g, rho0, t, 2)[-1]


def _finalize_state(m: np.ndarray) -> DensityMatrix:
    """An evolved state, Hermitized and normalized, checked by DensityMatrix's
    validation (no spectrum): a state it refuses (an eigenvalue below
    -CLIP_TOL) is clipped to its positive part by one eigh, with a warning
    below -POSITIVITY_TOL. Non-finite entries or trace drift raise."""
    if not np.isfinite(m).all():
        raise NumericalError("an evolved state has non-finite entries")
    m = (m + m.conj().T) / 2
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"trace drifted to {tr} during evolution")
    try:
        return DensityMatrix(m / tr)  # Hermitian, unit trace: only positivity can fail
    except ParameterError:
        lam, u = np.linalg.eigh(m)
        if lam.min() < -POSITIVITY_TOL:
            warnings.warn(f"positivity violation {lam.min():.2e} in an evolved state")
        m = (u * np.clip(lam, 0.0, None)) @ u.conj().T
        m = m / np.trace(m).real
        return DensityMatrix((m + m.conj().T) / 2)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyStateResult:
    kernel_dim: int
    kernel_basis: np.ndarray          # (dim^2, kernel_dim), orthonormal columns
    states: tuple[DensityMatrix, ...]  # Hermitized, trace-normalized candidates
    eigenvalues: np.ndarray            # the smallest |lambda| of all blocks, ascending
    residual: float                    # max ||L v|| over kernel basis vectors
    # basis, blocks, max_block, nnz (of the basis matrix), bounded and refined
    # (the dense blocks whose spectrum was bounded and computed) and margin,
    # the smallest non-kernel |lambda| over the threshold (None if none), as
    # _BlockForm.kernel gives them; classes (1: the joint path); keys (the
    # class blocks solved per class, None on the joint path); and seconds
    diagnostics: dict

    @property
    def unique(self) -> bool:
        return self.kernel_dim == 1

    @property
    def state(self) -> DensityMatrix:
        if not self.unique:
            raise NumericalError(
                f"steady state is not unique (kernel dimension {self.kernel_dim})"
            )
        return self.states[0]


def _commuting_classes(H, jumps, d: int) -> list:
    """The generator's parts, each term of H and each jump of nonzero rate,
    split into classes when all are PauliSums: (H's terms or None, jumps,
    span basis) per class. A term shifts labels by its label, a jump by the
    XORs of its terms' labels. Parts join when their shift spans meet beyond
    0 or a term of one anticommutes with a shift of the other; a class of
    span {0} (diagonal) joins another. Right products with S_j then commute
    with class i's map, so if the class spans S_i are independent the map
    on b ^ (S_1 + ... + S_k) is the Kronecker sum of the class maps on the
    b ^ S_i, up to a diagonal phase; if not, there is one class."""
    one = [(H, jumps, None)]
    live = [j for j in jumps if j.rate]
    if not all(isinstance(o, PauliSum) for o in (H, *(j.op for j in live))):
        return one
    n, (hb, hm) = d.bit_length() - 1, H.arrays()  # nonzero terms
    labels = [*hb[:, None], *(j.op.arrays()[0] for j in live)]
    T = np.zeros((max(map(len, labels), default=1), len(labels)), dtype=int)  # [term, part]
    used = np.arange(len(T))[:, None] < [len(t) for t in labels]
    T.T[used.T] = np.concatenate([hb, *labels[len(hb):]])  # pads: identities, commute with all
    first = np.where(np.arange(T.shape[1]) < len(hb), 0, T[0])
    B = _echelon(np.where(used, T ^ first, 0))  # each part's span basis, [i, part]
    rank = np.count_nonzero(B, axis=0)
    pair = _echelon(np.concatenate(np.broadcast_arrays(B[:, :, None], B[:, None])))
    anti = ((np.bitwise_count((T >> n)[:, :, None, None] & B & (d - 1))
             + np.bitwise_count(T[:, :, None, None] & (d - 1) & (B >> n))) & 1).any(axis=(0, 2))
    join = (np.count_nonzero(pair, axis=0) < rank[:, None] + rank) | anti | anti.T
    from scipy.sparse import csgraph, csr_matrix
    found, which = csgraph.connected_components(csr_matrix(join), directed=False)
    bases = [_gf2_basis(B[:, which == c]) for c in range(found)]
    kept = [c for c, b in enumerate(bases) if b]
    if len(kept) < 2 or sum(len(bases[c]) for c in kept) != len(_gf2_basis(B)):
        return one
    which = np.where(np.isin(which, kept), which, kept[0])
    h, jumps = which[:len(hb)], which[len(hb):]
    return [(PauliSum.from_arrays(n, hb[h == c], hm[h == c]) or None,
             tuple(live[p] for p in np.flatnonzero(jumps == c)), bases[c]) for c in kept]


def _class_keys(labels, terms, span, n: int) -> np.ndarray:
    """The key of each Pauli label in ``labels``: its anticommutation bits
    with a basis of the ``terms``' labels, modulo those of the ``span``'s
    basis (each leading bit cleared), so one key per coset of the span."""
    swap = [(v & ((1 << n) - 1)) << n | v >> n for v in _gf2_basis(terms)]  # x, z swapped
    key, vecs = ((np.bitwise_count(np.asarray(a)[:, None] & swap) & 1)
                 @ (1 << np.arange(len(swap))) for a in (labels, span))
    for v in _echelon(vecs):
        key = np.minimum(key, key ^ v)
    return key


def _factored_kernel(classes, d: int):
    """The kernel count and spectrum of the map split into
    ``_commuting_classes``, on the cosets of the sum S of the class spans
    (representatives: the integers with a zero bit inserted at each leading
    bit of S). On each coset, at element (t_1, ..., t_k), the spectrum is a
    Kronecker sum of the class spectra on their cosets, the diagonal is the
    sum of the class diagonals, each other slot is one class's, and the
    element's block is the product of its class blocks; so T's scale, nnz
    and blocks come from the class slots. A class map on b ^ S_c depends on
    b only through its ``_class_keys`` key (of the class's term labels and
    S_c): cosets of one key differ by a Pauli commuting with every term,
    whose right product maps one coset's map onto the other's up to signs.
    So each class form is seeded with one representative per key, which
    each coset's slots are read from. Returns the scale, the max(kernel + 4,
    STEADY_EIGENVALUES) smallest eigenvalues as a stable sort of all by
    |lambda| orders them (only those up to a partition's cut are sorted),
    the kernel count, the representatives of the cosets that hold kernel
    and ``_BlockForm.kernel``'s diagnostics (bounded = refined = blocks)
    with classes and keys (class blocks solved per class); None if a class
    block exceeds DENSE_BLOCK_LIMIT or a class form's cosets are not its
    span's."""
    n, tops = d.bit_length() - 1, sorted(v.bit_length() - 1 for v in _gf2_basis(
        np.concatenate([basis for *_, basis in classes])))
    reps = np.arange(d * d >> len(tops))
    for p in tops:  # ascending, so each inserted bit stays put
        reps = reps >> p << (p + 1) | reps & ((1 << p) - 1)
    spectra, slots, sizes, nnz, keys = [], [], [], 0, []
    for i, (H, jumps, basis) in enumerate(classes):
        key = _class_keys(reps, np.concatenate([o.arrays()[0] for o in (H, *(j.op for j in jumps))
                                                if o]), basis, n)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        keys.append(len(first))
        f = _block_form(_sandwich_terms(d, H, jumps), d, seeds=reps[first])
        if f.sizes.max() > DENSE_BLOCK_LIMIT or f.coset != 1 << len(basis):
            return None
        order, m = np.argsort(f.support), f.coset
        at = order[np.searchsorted(f.support[order], reps[first])] // m * m + np.arange(m)[:, None]
        at, grid = at.T[inverse], (len(reps),) + tuple(m if j == i else 1 for j in range(len(classes)))
        spectrum = np.empty(len(f.support), complex)
        for members in f.blocks():
            spectrum[members] = np.linalg.eigvals(f.dense(members))
        on, mag = f.rows == np.arange(len(f.support)), np.abs(f.weights)
        diag = np.where(on, f.weights, 0).sum(axis=0)
        # a class element's off-diagonal slots recur at each joint element it is part of
        nnz += np.count_nonzero(np.where(on, 0, f.weights), axis=0)[at].sum() * (d * d // at.size)
        spectra.append(spectrum[at].reshape(grid))
        slots.append(np.stack([diag, np.where(on, 0, mag).sum(axis=0), np.bincount(
            f.rows[~on], mag[~on], len(on[0]))])[:, at].reshape((3,) + grid))  # off-diagonal 1-norms
        sizes.append(f.sizes[f.labels[at]].reshape(grid))
    (diagonal, column, row), spectra, size = sum(slots), sum(spectra), math.prod(sizes)
    scale = float(max((np.abs(diagonal) + column).max(), (np.abs(diagonal) + row).max(), 1e-300))
    thresh, mags = KERNEL_TOL * scale, np.abs(spectra).ravel()
    _check_band(mags, thresh)
    n_kernel, blocks = int(np.count_nonzero(mags < thresh)), round((1 / size).sum())
    k = min(max(n_kernel + 4, STEADY_EIGENVALUES), mags.size)
    low = np.flatnonzero(mags <= np.partition(mags, k - 1)[k - 1])  # ties at the cut included
    vals = spectra.ravel()[low[np.argsort(mags[low], kind="stable")[:k]]]
    hold = (mags < thresh).reshape(len(reps), -1).any(axis=1)
    return scale, vals, n_kernel, reps[hold] if hold.any() else reps[:1], {**_kernel_diagnostics(
        "pauli", blocks, int(size.max()), int(np.count_nonzero(diagonal) + nnz), blocks, blocks,
        float(abs(vals[n_kernel]) / thresh) if n_kernel < vals.size else None),
        "classes": len(classes), "keys": keys}


def steady_states(g: LindbladGenerator) -> SteadyStateResult:
    """Kernel of the superoperator, solved on its invariant blocks.

    The superoperator is written in the Hermitian Pauli basis when n_levels
    is a power of two (the matrix units otherwise); its connected components
    are exact invariant blocks. If ``_commuting_classes`` gives k >= 2
    classes, with blocks of at most DENSE_BLOCK_LIMIT elements, each block's
    spectrum is a Kronecker sum of class spectra (``_factored_kernel``),
    exact to rounding, and the kernel vectors come from the joint form on
    the cosets with kernel alone, which must hold as many (diagnostics
    ``classes`` = k, ``keys``; ``bounded`` = ``refined`` = ``blocks``).
    Otherwise (``classes`` = 1, ``keys`` None) ``_BlockForm.kernel`` solves
    the whole form: dense up to DENSE_BLOCK_LIMIT elements, shift-invert
    ARPACK above, with k grown until the computed set reaches past the
    kernel cluster and the ambiguous band, so degenerate kernels are
    reported faithfully. A dense block gets an eigvalsh bound only when its
    Gershgorin screen can reach the reported spectrum, and eigvals only when
    that Bendixson bound can (``bounded`` and ``refined`` count them), as
    eigvals of every dense block would give.
    ``eigenvalues`` holds the max(kernel_dim + 4, STEADY_EIGENVALUES)
    smallest |lambda| of the union of the block spectra (complex, sorted by
    |lambda|).

    Eigenvalues with |lambda| < KERNEL_TOL * ||L|| count as kernel. ||L|| is
    the larger of the maximal column and row 1-norms of the basis matrix, so
    in the Pauli basis it is not the computational-basis value: for the L=2
    toric Davies generator at beta = 1, gamma0 = 0.5, lambda = 1 it is 47.7
    against 45.9. An eigenvalue within a factor 100 of the threshold on
    either side makes the decision ambiguous, and a kernel above MAX_KERNEL
    is refused; both raise NumericalError. A dimension above
    SUPEROP_DIM_LIMIT raises CapacityError first.
    """
    start = time.perf_counter()
    _check_capacity(g.n_levels)
    d, terms = g.n_levels, _sandwich_terms(g.n_levels, g.H, g.jumps)
    classes = _commuting_classes(g.H, g.jumps, d)
    split = _factored_kernel(classes, d) if len(classes) > 1 else None
    if split is None:
        form = _block_form(terms, d)
        scale = form.scale()
        vals, n_kernel, kernel, diagnostics = form.kernel(KERNEL_TOL * scale, scale,
                                                          STEADY_EIGENVALUES, MAX_KERNEL)
        diagnostics.update(classes=1, keys=None)
    else:
        scale, vals, n_kernel, seeds, diagnostics = split
    if n_kernel > MAX_KERNEL:
        raise NumericalError(f"kernel dimension {n_kernel} exceeds the cap {MAX_KERNEL}")
    if split is not None:  # the kernel vectors, from the joint form on the cosets that hold kernel
        form = _block_form(terms, d, seeds=seeds)
        count, kernel = form.kernel(KERNEL_TOL * scale, scale, STEADY_EIGENVALUES, MAX_KERNEL)[1:3]
        if count != n_kernel:
            raise NumericalError(f"the class spectra hold {n_kernel} kernel eigenvalues, "
                                 f"the joint form {count}")

    at = np.argsort(form.support)  # label order: QR and norms run in it
    coeffs = np.zeros((len(at), n_kernel), complex)
    col = 0
    for idx, v in kernel:
        coeffs[idx, col:col + v.shape[1]] = v
        col += v.shape[1]
    if n_kernel:
        coeffs[at] = np.linalg.qr(coeffs[at])[0]
    residual = float(max((np.linalg.norm(form.matvec(coeffs[:, i])[at]) for i in range(n_kernel)),
                         default=0.0)) / scale
    basis = form.vectors(coeffs)

    # when degenerate, kernel rotations may hide positive combinations; report
    # whatever states DensityMatrix accepts (its one Cholesky) without failing
    states = []
    for i in range(n_kernel):
        m = unvec(basis[:, i])
        m = (m + m.conj().T) / 2
        tr = np.trace(m).real
        if abs(tr) > 1e-8:
            with contextlib.suppress(ParameterError):
                states.append(DensityMatrix(m / tr))
    return SteadyStateResult(
        kernel_dim=n_kernel,
        kernel_basis=basis,
        states=tuple(states),
        eigenvalues=vals[: max(n_kernel + 4, min(STEADY_EIGENVALUES, d * d))],
        residual=residual,
        diagnostics={**diagnostics, "seconds": time.perf_counter() - start},
    )


def gibbs_populations(energies: np.ndarray, beta: float) -> np.ndarray:
    """e^(-beta E_s) / Z over levels E_s of one degeneracy, overflow-guarded."""
    _check_beta(beta)
    w = np.exp(-beta * (energies - energies.min()))
    return w / w.sum()


def gibbs_state(H, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z via eigendecomposition, overflow-guarded."""
    Hd = H.toarray() if _issparse(H) else np.asarray(H, dtype=complex)
    evals, evecs = np.linalg.eigh(Hd)
    rho = (evecs * gibbs_populations(evals, beta)) @ evecs.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)
