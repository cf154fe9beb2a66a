"""Lindblad generators on vectorized density matrices: exact time evolution
(dense exponential or Krylov), steady-state kernels and Gibbs states.

Evolution and steady states work on the superoperator written in an
orthonormal operator basis: the Hermitian Pauli basis on n qubits (where the
matrix is real), the matrix units otherwise. The connected components of
that matrix are exact invariant blocks; for a stabilizer Hamiltonian with
Pauli jumps dressed by syndrome projectors each lies in a coset of the
stabilizer group. One kernel solver, ``_BlockForm.kernel``, decides the
kernel block by block; ``steady_states`` and ``verify``'s commutant
dimension both call it.

A non-Hermitian dense block is screened, bounded, then refined: by
Bendixson's theorem no eigenvalue of a block B has |lambda| below
-lambda_max(B + B^dag)/2, and by Gershgorin's that bound is at least the
screen, the least -(S_ii + sum_{j != i} |S_ij|)/2 over the block's rows of
S = T + T^dag, read from the sparse matrix. eigvalsh gives the bound only of
the blocks whose screen can reach the kernel, the ambiguity band or the
reported smallest |lambda|, and eigvals runs only on those whose bound can.
For the L=2 toric Davies generator that is about 60 and 15 of 1024 blocks;
the diagnostics count them as ``bounded`` and ``refined``.

The basis matrix is assembled in one batched pass over the entries of all
the sandwich terms' operators, with no sparse matrix per term: one
Walsh-Hadamard transform for the Pauli coefficients, one COO outer product
for the matrix units, both in bounded chunks.

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

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigs as sparse_eigs, expm_multiply

from .errors import CapacityError, NumericalError, ParameterError
from .pauli import PauliString

#: Hilbert-space dimension above which superoperators (either basis) are refused.
SUPEROP_DIM_LIMIT = 256
#: Block size up to which trajectory(method="auto") uses the exact exponential.
EXACT_EXPM_LIMIT = 4096
#: Largest invariant block that the kernel solver diagonalizes densely.
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
#: Dense entries per batch of the eigvalsh bounds, whose temporaries are
#: twice the batch: 64 blocks of 64. Also the entry products per chunk of the
#: matrix-unit assembly, whose count grows as the square of dense operators'.
_BOUND_ENTRIES = 1 << 18
#: A block's Bendixson bound may exceed its computed smallest |lambda| by
#: rounding (by up to 2.8e-14 at L=2), so blocks are refined up to this
#: fraction of ||L|| past a limit.
BOUND_SLACK = 1e-12
_I_POWERS = np.array([1, 1j, -1, -1j])
#: An evolved state with an eigenvalue below -POSITIVITY_TOL raises a warning.
POSITIVITY_TOL = 1e-6


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


def trace_product(A, B: np.ndarray) -> complex:
    """Tr(A B) from the entries, without forming the product: A dense or sparse."""
    if sparse.issparse(A):
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
    """Validated Hermitian, unit-trace, (numerically) positive matrix."""

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
        if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-8:
            raise ParameterError("density matrix has a significantly negative eigenvalue")

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
    """One (K, gamma) dissipation channel, optionally tagged with reset info.

    ``reset`` marks single-ancilla-qubit thermal channels for the compiler:
    a dict with keys qubit, beta, omega and direction ("minus"/"plus").
    """

    op: sparse.spmatrix
    rate: float
    label: str = ""
    reset: dict | None = None

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0):
            raise ParameterError(f"rate must be finite and >= 0, got {self.rate}")


@dataclass(frozen=True)
class LindbladGenerator:
    """d rho/dt = -i [H, rho] + sum_k gamma_k D[K_k] rho.

    ``hamiltonian_terms`` optionally carries the symbolic Pauli term list of H
    (needed by the gate compiler); it is not used by the numerics here.
    """

    n_levels: int
    H: sparse.spmatrix
    jumps: tuple[JumpOp, ...]
    hamiltonian_terms: tuple[tuple[float, PauliString], ...] | None = None

    def __post_init__(self):
        h = self.H if sparse.issparse(self.H) else sparse.csr_matrix(np.asarray(self.H, dtype=complex))
        h = h.tocsr().astype(complex)
        object.__setattr__(self, "H", h)
        if h.shape != (self.n_levels, self.n_levels):
            raise ParameterError("H has the wrong shape")
        herm_defect = abs(h - h.conj().T).max() if h.nnz else 0.0
        if herm_defect > 1e-12 * max(1.0, abs(h).max()):
            raise ParameterError(f"H is not Hermitian (defect {herm_defect:.2e})")
        ops = []
        for j in self.jumps:
            k = j.op if sparse.issparse(j.op) else sparse.csr_matrix(np.asarray(j.op, dtype=complex))
            if k.shape != (self.n_levels, self.n_levels):
                raise ParameterError(f"jump {j.label!r} has the wrong shape")
            ops.append(JumpOp(k.tocsr().astype(complex), j.rate, j.label, j.reset))
        object.__setattr__(self, "jumps", tuple(ops))


def _check_capacity(d: int) -> None:
    """Refuse a superoperator (in any basis) for Hilbert dimension d >
    SUPEROP_DIM_LIMIT."""
    if d > SUPEROP_DIM_LIMIT:
        raise CapacityError(
            f"superoperator for dim {d} exceeds the configured limit {SUPEROP_DIM_LIMIT}"
        )


def _sandwich_terms(g: LindbladGenerator) -> list[tuple[sparse.csr_matrix, sparse.csr_matrix]]:
    """Pairs (A, B) with L rho = sum A rho B."""
    d = g.n_levels
    eye = sparse.identity(d, dtype=complex, format="csr")
    G = sparse.csr_matrix((d, d), dtype=complex)
    for j in g.jumps:
        G = G + j.rate * (j.op.conj().T @ j.op)
    terms = [(-1j * g.H - G, eye), (eye, 1j * g.H - G)]
    return terms + [(2 * j.rate * j.op, j.op.conj().T) for j in g.jumps if j.rate]


def _superop_scale(L: sparse.spmatrix) -> float:
    """Cheap norm estimate used for kernel thresholds."""
    mag = abs(L)
    return float(max(mag.sum(axis=0).max(), mag.sum(axis=1).max(), 1e-300))


def _gershgorin_screen(T: sparse.csr_matrix, labels: np.ndarray) -> np.ndarray:
    """For each block label of T, the minimum over the block's rows i of
    -(S_ii + sum_{j != i} |S_ij|) / 2, where S = T + T^dag. S is Hermitian and
    block-diagonal like T, so by Gershgorin's theorem every eigenvalue of a
    block S_B is at most the largest S_ii + sum_{j != i} |S_ij| of its rows:
    the screen is at most the block's Bendixson bound -lambda_max(S_B) / 2,
    read from the sparse entries alone."""
    S = T + T.conj().T
    diag = S.diagonal().real
    reach = diag - np.abs(diag) + np.asarray(abs(S).sum(axis=1)).ravel()
    screen = np.full(labels.max() + 1, np.inf)
    np.minimum.at(screen, labels, -reach / 2)
    return screen


# ---------------------------------------------------------------------------
# the superoperator in an operator basis, cut into invariant blocks
# ---------------------------------------------------------------------------

def _walsh(d: int) -> np.ndarray:
    """W[z, i] = (-1)^(z.i), the d x d Walsh-Hadamard sign matrix."""
    i = np.arange(d)
    return np.where(np.bitwise_count(i[:, None] & i) & 1, -1.0, 1.0)


def _entries(ops):
    """(operator, row, col, value) of the entries of every matrix in ``ops``,
    in operator order: csr and csc read off their index arrays (other formats
    and duplicates through a canonical csr copy), ndarrays by np.nonzero."""
    parts = []
    for k, o in enumerate(ops):
        if sparse.issparse(o):
            if o.format not in ("csr", "csc") or not o.has_canonical_format:
                o = sparse.csr_matrix(o, copy=True)
                o.sum_duplicates()
            major = np.repeat(np.arange(len(o.indptr) - 1), np.diff(o.indptr))
            rows, cols = (major, o.indices) if o.format == "csr" else (o.indices, major)
            vals = o.data
        else:
            rows, cols = np.nonzero(o)
            vals = np.asarray(o)[rows, cols]
        parts.append((np.full(len(vals), k), rows, cols, vals.astype(complex)))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _term_pairs(op: np.ndarray, n_terms: int, step: int | None = None):
    """Index pairs (p, q) of every entry p of A_t with every entry q of B_t,
    over the terms (A_t, B_t), for entries labelled by ``op`` (ascending) as
    operators A_0, B_0, A_1, B_1, ...: term after term, p-major, in chunks of
    at most ``step`` pairs (default one chunk)."""
    count = np.bincount(op, minlength=2 * n_terms)
    start = np.cumsum(count) - count
    nb = count[1::2]
    sizes = count[0::2] * nb
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    step = step or max(total, 1)
    for lo in range(0, max(total, 1), step):
        k = np.arange(lo, min(lo + step, total))
        t = np.searchsorted(ends, k, side="right")
        k -= ends[t] - sizes[t]
        yield start[2 * t] + k // nb[t], start[2 * t + 1] + k % nb[t]


def _pauli_coefficients(ops, d: int):
    """The coefficients m[x*d + z] of every d x d matrix M in ``ops``, with
    M = sum m[x*d + z] X^x Z^z and X^x Z^z |i> = (-1)^(z.i) |i^x>, so that
    m[x*d + z] = (1/d) sum_i (-1)^(z.i) M[i^x, i]: one Walsh-Hadamard transform
    of all (operator, x) rows with entries, in chunks of at most _STACK_ENTRIES
    entries. Butterflies (not a BLAS product, which rounds a one-row product
    differently) make each row's bits independent of the batch. Returns
    (operator, b, m[b]) above ROUNDOFF of the operator's largest |m|, sorted."""
    op, row, col, val = _entries(ops)
    keys, inverse = np.unique(op * d + (row ^ col), return_inverse=True)
    peak = np.zeros(len(ops))
    found = []
    step = max(1, _STACK_ENTRIES // d)
    for lo in range(0, len(keys), step):
        hi = min(lo + step, len(keys))
        chunk = (inverse >= lo) & (inverse < hi)
        m = np.zeros((hi - lo, d), complex)
        m[inverse[chunk] - lo, col[chunk]] = val[chunk]
        for h in 1 << np.arange(d.bit_length() - 1):  # pairs (j, j + h) in blocks of 2h
            pair = m.reshape(-1, 2, h)
            diff = pair[:, 0] - pair[:, 1]
            pair[:, 0] += pair[:, 1]
            pair[:, 1] = diff
        m /= d
        mag = np.abs(m)
        row_peak = mag.max(axis=1)
        np.maximum.at(peak, keys[lo:hi] // d, row_peak)
        # a superset of the final cut, as no row's largest exceeds its operator's
        r, z = np.nonzero(mag > ROUNDOFF * row_peak[:, None])
        found.append((keys[lo + r], z, m[r, z], mag[r, z]))
    key, z, m, mag = (np.concatenate(f) for f in zip(*found))
    keep = mag > ROUNDOFF * peak[key // d]
    key, z = key[keep], z[keep]
    return key // d, (key % d) * d + z, m[keep]


def _pauli_transfer(terms, W: np.ndarray, weight: np.ndarray) -> sparse.csr_matrix:
    """Real matrix of the Hermiticity-preserving map rho -> sum A rho B over
    (A, B) in ``terms``, on the Hermitian basis i^weight_b tau_b, where
    tau_b = X^x Z^z (b = x*d + z) and weight_b = |x & z|.

    On the tau_b it follows from the product rule
    tau_a tau_b tau_c = (-1)^(za.xb + za.xc + zb.xc) tau_(a^b^c): each pair
    (a, c) of Pauli terms shifts every input b to b^a^c, with a sign that is
    an outer product of two Walsh rows over the (xb, zb) grid, so all 4^n
    inputs of one shift come from one matrix product.
    """
    d = len(W)
    n = d.bit_length() - 1
    op, b, m = _pauli_coefficients([o for term in terms for o in term], d)
    p, q = next(_term_pairs(op, len(terms)))
    a, c, w = b[p], b[q], m[p] * m[q]
    za, xc, shift = a & (d - 1), c >> n, a ^ c
    w = w * np.where(np.bitwise_count(za & xc) & 1, -1.0, 1.0)
    order = np.argsort(shift, kind="stable")
    shift, za, xc, w = shift[order], za[order], xc[order], w[order]
    shifts, starts = np.unique(shift, return_index=True)
    if not len(shifts):  # the zero map
        return sparse.csr_matrix((d * d, d * d))
    rows, cols, vals = [], [], []
    for s, lo, hi in zip(shifts, starts, np.append(starts[1:], len(shift))):
        v = (W[za[lo:hi]].T @ (w[lo:hi, None] * W[xc[lo:hi]])).ravel()
        keep = np.flatnonzero(np.abs(v) > ROUNDOFF * np.abs(w[lo:hi]).sum())
        rows.append(keep ^ s)
        cols.append(keep)
        vals.append(v[keep])
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    vals = (vals * _I_POWERS[(weight[cols] - weight[rows]) % 4]).real
    return sparse.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))


@dataclass(frozen=True)
class _BlockForm:
    """The superoperator T in an orthonormal operator basis, and the label of
    the invariant block (connected component of T) of every basis element.

    ``coefficients(rho)`` expands a d x d matrix in the basis and
    ``vectors(C)`` maps coefficient columns back to column-stacking vec form;
    both maps are unitary. ``hermitian`` records that T is a Hermitian map
    (the commutant form of ``verify``), so its blocks get Hermitian
    eigensolvers.
    """

    basis: str
    T: sparse.csr_matrix
    labels: np.ndarray
    coefficients: Callable[[np.ndarray], np.ndarray]
    vectors: Callable[[np.ndarray], np.ndarray]
    hermitian: bool

    def blocks(self, among=None):
        """Member indices of the blocks labelled in ``among`` (default all),
        as arrays (n_blocks, size) of equal-sized blocks, each array holding
        at most _STACK_ENTRIES dense entries (or one block)."""
        order = np.argsort(self.labels, kind="stable")
        sizes = np.bincount(self.labels)
        starts = np.cumsum(sizes) - sizes
        among = np.arange(len(sizes)) if among is None else np.asarray(among)
        for s in np.unique(sizes[among]):
            chosen = among[sizes[among] == s]
            members = order[starts[chosen][:, None] + np.arange(s)]
            step = max(1, _STACK_ENTRIES // (s * s))
            for i in range(0, len(members), step):
                yield members[i:i + step]

    def restrict(self, members: np.ndarray) -> sparse.csr_matrix:
        """T restricted to the blocks in ``members``, block after block."""
        flat = members.ravel()
        return self.T[flat][:, flat]

    def dense(self, members: np.ndarray) -> np.ndarray:
        """The blocks in ``members`` as a dense stack (n_blocks, size, size)."""
        nb, s = members.shape
        sub = self.restrict(members).tocoo()
        stack = np.zeros((nb, s, s), self.T.dtype)
        stack[sub.row // s, sub.row % s, sub.col % s] = sub.data
        return stack

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
        sizes = np.bincount(self.labels)
        refined, bounded, limit = 0, 0, np.inf
        if not self.hermitian and sizes.min() <= DENSE_BLOCK_LIMIT:
            # dense blocks come first, as blocks() yields sizes in ascending order
            dense_spectra, dense_kernel, limit, bounded = self._refine(sizes, thresh, scale,
                                                                       k, spectra)
            spectra, kernel = dense_spectra + spectra, dense_kernel + kernel
            refined = len(dense_spectra)
        vals = np.concatenate(spectra)
        vals = vals[np.argsort(vals if self.hermitian else np.abs(vals), kind="stable")]
        vals = vals[np.abs(vals) <= limit]
        ambiguous = vals[(np.abs(vals) >= thresh / 100) & (np.abs(vals) < 100 * thresh)]
        if ambiguous.size:
            raise NumericalError(
                f"|lambda| = {abs(ambiguous[0]):.3e} lies within a factor 100 of the "
                f"kernel threshold {thresh:.3e}: the kernel dimension is ambiguous"
            )
        n_kernel = (int(np.sum(vals < thresh)) if self.hermitian
                    else sum(v.shape[1] for _, v in kernel))
        diagnostics = {
            "basis": self.basis,
            "blocks": len(sizes),
            "max_block": int(sizes.max()),
            "nnz": int(self.T.nnz),
            "bounded": bounded,
            "refined": refined,
            "margin": float(abs(vals[n_kernel]) / thresh) if n_kernel < len(vals) else None,
        }
        return vals, n_kernel, kernel, diagnostics

    def _refine(self, sizes: np.ndarray, thresh: float, scale: float, k: int, others: list):
        """Spectra and kernels of the blocks of at most DENSE_BLOCK_LIMIT
        elements (``sizes`` by label) of a non-Hermitian form, by screen,
        bound and refine.

        By Bendixson's theorem every eigenvalue of a block B has |lambda| >=
        -Re lambda >= bound_B = -lambda_max(B + B^dag) / 2, and by
        Gershgorin's bound_B >= screen_B (``_gershgorin_screen``, from the
        sparse form). eigvals runs on the original blocks whose bound lies
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
        dense = np.flatnonzero(sizes <= DENSE_BLOCK_LIMIT)
        slack = BOUND_SLACK * scale
        screen = _gershgorin_screen(self.T, self.labels)
        bound = np.full(len(sizes), np.inf)  # inf until computed

        def bound_up_to(limit):
            chosen = dense[(screen[dense] <= limit + 2 * slack) & np.isinf(bound[dense])]
            for members in self.blocks(chosen):
                step = max(1, _BOUND_ENTRIES // members.shape[1] ** 2)
                for part in (members[i:i + step] for i in range(0, len(members), step)):
                    B = self.dense(part)
                    bound[self.labels[part[:, 0]]] = -np.linalg.eigvalsh(
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

        order = sorted(found, key=lambda b: (sizes[b], b))  # the order of blocks()
        kernel = []
        hit = np.array([b for b in order if (np.abs(found[b]) < thresh).any()], dtype=int)
        for members in self.blocks(hit):
            w, v = np.linalg.eig(self.dense(members))
            kernel += [(idx, vb[:, np.abs(wb) < thresh]) for idx, wb, vb in zip(members, w, v)]
        bounded = int(np.isfinite(bound).sum())
        return [found[b] for b in order], kernel, max(reach, 100 * thresh), bounded


def _arpack_block(B: sparse.spmatrix, k: int, thresh: float, scale: float, cap: int):
    """Smallest-|lambda| eigenpairs of one block by shift-invert ARPACK, k grown
    until the computed set reaches past 100 * thresh (or the cap)."""
    n = B.shape[0]
    k_req = min(max(k, 2), n - 2)
    # a fixed generic start vector (ones can be orthogonal to a kernel) makes
    # the result reproducible
    v0 = np.random.default_rng(0).standard_normal(n)
    while True:
        try:
            vals, vecs = sparse_eigs(B, k=k_req, sigma=1e-9 * scale, which="LM", v0=v0)
        except Exception as exc:  # ARPACK failure, singular factorization, ...
            raise NumericalError(f"sparse eigensolve failed: {exc}") from exc
        if np.abs(vals).max() >= 100 * thresh or k_req >= min(cap, n - 2):
            return vals, vecs
        k_req = min(2 * k_req, n - 2)


def _matrix_unit_transfer(terms, d: int) -> sparse.csr_matrix:
    """Column-stacking matrix of rho -> sum A rho B, the sum of kron(B^T, A)
    over the terms, from the COO outer product of the entries of every A and
    B in chunks of at most _BOUND_ENTRIES products (duplicates summed by each
    chunk's csr conversion, chunks by csr addition). Cut like the Pauli
    transfer:
    operator entries at or below ROUNDOFF of their operator's largest, and
    assembled entries at or below ROUNDOFF of the magnitude that summed into
    them."""
    op, row, col, val = _entries([o for term in terms for o in term])
    mag = np.abs(val)
    peak = np.zeros(2 * len(terms))
    np.maximum.at(peak, op, mag)
    keep = mag > ROUNDOFF * peak[op]
    op, row, col, val, mag = op[keep], row[keep], col[keep], val[keep], mag[keep]
    shape = (d * d, d * d)
    T = bound = sparse.csr_matrix(shape)
    for p, q in _term_pairs(op, len(terms), _BOUND_ENTRIES):
        # kron(B^T, A)[cB*d + rA, rB*d + cA] = A[rA, cA] B[rB, cB]
        index = (col[q] * d + row[p], row[q] * d + col[p])
        T = T + sparse.csr_matrix((val[p] * val[q], index), shape=shape)
        bound = bound + sparse.csr_matrix((mag[p] * mag[q], index), shape=shape)
    T = T.tocoo()
    keep = np.abs(T.data) > ROUNDOFF * np.asarray(bound[T.row, T.col]).ravel()
    return sparse.csr_matrix((T.data[keep], (T.row[keep], T.col[keep])), shape=shape)


def _block_form(terms, d: int, hermitian: bool = False) -> _BlockForm:
    """Write rho -> sum A rho B over (A, B) in ``terms`` (d x d matrices) in
    the orthonormal Hermitian Pauli basis sigma_(x,z) = i^|x & z| X^x Z^z /
    sqrt(d) when d = 2^n, else in the matrix units, and label its invariant
    blocks. In the Pauli basis the matrix is real for a map that takes
    Hermitian operators to Hermitian ones (a Lindbladian, or the commutant
    form of ``verify``), and only the real part is kept. ``hermitian`` says
    that the map is Hermitian itself (the commutant form)."""
    _check_capacity(d)
    if d & (d - 1) == 0:
        n = d.bit_length() - 1
        W = _walsh(d)
        b = np.arange(d * d)
        weight = np.bitwise_count((b >> n) & b & (d - 1)).astype(int)
        phase = _I_POWERS[weight % 4] / np.sqrt(d)  # sigma_b = phase_b tau_b
        T = _pauli_transfer(terms, W, weight)
        i = np.arange(d)
        positions = ((i ^ i[:, None]) + d * i).ravel()  # vec index of M[i^x, i]

        def coefficients(rho):
            _, b, m = _pauli_coefficients([rho], d)
            c = np.zeros(d * d)
            c[b] = (m / phase[b]).real
            return c

        def vectors(C):
            m = (C * phase[:, None]).reshape(d, d, -1)
            M = np.tensordot(m, W, axes=(1, 0))  # M[x, k, i] = column k's M[i^x, i]
            out = np.zeros((d * d, C.shape[1]), complex)
            out[positions] = M.transpose(0, 2, 1).reshape(d * d, -1)
            return out

        basis = "pauli"
    else:
        T = _matrix_unit_transfer(terms, d)
        coefficients, vectors, basis = vec, np.asarray, "matrix-unit"
    _, labels = connected_components(abs(T), directed=True, connection="weak")
    return _BlockForm(basis, T, labels, coefficients, vectors, hermitian)


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def trajectory(
    g: LindbladGenerator,
    rho0: DensityMatrix,
    t: float,
    points: int,
    method: str = "auto",
) -> list[DensityMatrix]:
    """States at np.linspace(0, t, points): ``trajectories`` of one state."""
    return trajectories(g, [rho0], t, points, method)[0]


def trajectories(
    g: LindbladGenerator,
    states: Sequence[DensityMatrix],
    t: float,
    points: int,
    method: str = "auto",
) -> list[list[DensityMatrix]]:
    """For each initial state, its states at np.linspace(0, t, points). The
    superoperator is written in block form once; the coefficient vectors of
    all states propagate as the columns of one block propagation, through the
    invariant blocks that some state has weight on.

    Per block, "expm" steps with one dense exponential exp(L dt) (batched
    over blocks of one size); "krylov" makes one call to scipy's
    expm_multiply (Al-Mohy/Higham) on the blocks of one size, which returns
    the whole uniform grid; "auto" uses expm for blocks of at most
    EXACT_EXPM_LIMIT elements and krylov for larger ones. Each returned state
    is Hermitized; trace is preserved to 1e-9 and positivity is monitored.
    """
    d = g.n_levels
    if any(rho0.dim != d for rho0 in states):
        raise ParameterError("state dimension does not match the generator")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if points < 2:
        raise ParameterError(f"a trajectory needs at least 2 points, got {points}")
    if method not in ("auto", "expm", "krylov"):
        raise ParameterError(f"unknown method {method!r}")
    if t == 0 or not states:
        return [[rho0] * points for rho0 in states]

    form = _block_form(_sandwich_terms(g), g.n_levels)
    c0 = np.stack([form.coefficients(rho0.mat) for rho0 in states], axis=1)
    cs = np.zeros((points,) + c0.shape, c0.dtype)
    cs[0] = c0
    for members in form.blocks(np.unique(form.labels[np.flatnonzero(c0.any(axis=1))])):
        if method == "expm" or (method == "auto" and members.shape[1] <= EXACT_EXPM_LIMIT):
            U = expm(form.dense(members) * (t / (points - 1)))
            v = c0[members]
            for p in range(1, points):
                v = np.einsum("bij,bjk->bik", U, v)
                cs[p, members] = v
        else:
            idx = members.ravel()
            cs[:, idx] = expm_multiply(form.restrict(members), c0[idx], start=0.0, stop=t,
                                       num=points, endpoint=True)
    vecs = form.vectors(cs[1:].transpose(1, 0, 2).reshape(len(c0), -1))
    vecs = vecs.reshape(d * d, points - 1, len(states))
    return [[rho0] + [_finalize_state(unvec(v)) for v in vecs[:, :, i].T]
            for i, rho0 in enumerate(states)]


def evolve(
    g: LindbladGenerator,
    rho0: DensityMatrix,
    t: float,
    method: str = "auto",
) -> DensityMatrix:
    """Propagate rho0 for time t: the last state of a two-point trajectory."""
    return trajectory(g, rho0, t, 2, method)[-1]


def _finalize_state(m: np.ndarray) -> DensityMatrix:
    m = (m + m.conj().T) / 2
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-9:
        raise NumericalError(f"trace drifted to {tr} during evolution")
    lam, u = np.linalg.eigh(m)
    if lam.min() < -POSITIVITY_TOL:
        warnings.warn(f"positivity violation {lam.min():.2e} in an evolved state")
    if lam.min() < -1e-8:
        # clip propagation noise so the state satisfies the DensityMatrix contract
        lam = np.clip(lam, 0.0, None)
        m = (u * lam) @ u.conj().T
        m = m / np.trace(m).real
    else:
        m = m / tr
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
    # (the dense blocks whose eigvalsh bound and whose eigvals were computed)
    # and margin, the smallest non-kernel |lambda| over the threshold (None if
    # none), from _BlockForm.kernel; and seconds
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


def steady_states(g: LindbladGenerator) -> SteadyStateResult:
    """Kernel of the superoperator, solved on its invariant blocks.

    The superoperator is written in the Hermitian Pauli basis when n_levels
    is a power of two (the matrix units otherwise); its connected components
    are exact invariant blocks, and ``_BlockForm.kernel`` solves them: dense
    up to DENSE_BLOCK_LIMIT elements, shift-invert ARPACK above, with k grown
    until the computed set reaches past the kernel cluster and the ambiguous
    band, so degenerate kernels are reported faithfully. A dense block gets
    an eigvalsh bound only when its Gershgorin screen can reach the reported
    spectrum, and eigvals only when that Bendixson bound can (diagnostics
    ``bounded`` and ``refined`` count them). ``eigenvalues`` holds the
    max(kernel_dim + 4, STEADY_EIGENVALUES) smallest |lambda| of the union
    of the block spectra (complex, sorted by |lambda|), the same as eigvals
    of every dense block would give.

    Eigenvalues with |lambda| < KERNEL_TOL * ||L|| count as kernel. ||L|| is
    the larger of the maximal column and row 1-norms of the basis matrix, so
    in the Pauli basis it is not the computational-basis value: for the L=2
    toric Davies generator at beta = 1, gamma0 = 0.5, lambda = 1 it is 47.7
    against 45.9. An eigenvalue within a factor 100 of the threshold on
    either side makes the decision ambiguous, and a kernel above MAX_KERNEL
    is refused; both raise NumericalError.
    """
    start = time.perf_counter()
    form = _block_form(_sandwich_terms(g), g.n_levels)
    T = form.T
    n = T.shape[0]
    scale = _superop_scale(T)
    vals, n_kernel, kernel, diagnostics = form.kernel(KERNEL_TOL * scale, scale,
                                                      STEADY_EIGENVALUES, MAX_KERNEL)
    if n_kernel > MAX_KERNEL:
        raise NumericalError(f"kernel dimension exceeds the cap {MAX_KERNEL}")

    coeffs = np.zeros((n, n_kernel), complex)
    col = 0
    for idx, v in kernel:
        coeffs[idx, col:col + v.shape[1]] = v
        col += v.shape[1]
    if n_kernel:
        coeffs, _ = np.linalg.qr(coeffs)
    residual = float(
        max((np.linalg.norm(T @ coeffs[:, i]) for i in range(n_kernel)), default=0.0)
    ) / scale
    basis = form.vectors(coeffs)

    states = []
    for i in range(n_kernel):
        m = unvec(basis[:, i])
        m = (m + m.conj().T) / 2
        tr = np.trace(m).real
        if abs(tr) > 1e-8:
            m = m / tr
            lam = np.linalg.eigvalsh(m)
            if lam.min() > -1e-6:
                m = m / np.trace(m).real
                states.append(DensityMatrix((m + m.conj().T) / 2))
    # when degenerate, kernel rotations may hide positive combinations; report
    # whatever physical representatives were found without failing.
    return SteadyStateResult(
        kernel_dim=n_kernel,
        kernel_basis=basis,
        states=tuple(states),
        eigenvalues=vals[: max(n_kernel + 4, min(STEADY_EIGENVALUES, n))],
        residual=residual,
        diagnostics={**diagnostics, "seconds": time.perf_counter() - start},
    )


def gibbs_state(H, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z via eigendecomposition, overflow-guarded."""
    _check_beta(beta)
    Hd = H.toarray() if sparse.issparse(H) else np.asarray(H, dtype=complex)
    evals, evecs = np.linalg.eigh(Hd)
    w = np.exp(-beta * (evals - evals.min()))
    w = w / w.sum()
    rho = (evecs * w) @ evecs.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)
