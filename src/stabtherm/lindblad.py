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
        op = op.toarray() if sparse.issparse(op) else np.asarray(op)
        return float(np.real(np.trace(op @ self.mat)))

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


def _kron_sum(terms, d: int) -> sparse.csr_matrix:
    """Column-stacking matrix of rho -> sum A rho B: sum kron(B^T, A)."""
    L = sum((sparse.kron(B.T, A, format="csr") for A, B in terms),
            sparse.csr_matrix((d * d, d * d), dtype=complex))
    L.eliminate_zeros()
    return L


def _superop_scale(L: sparse.spmatrix) -> float:
    """Cheap norm estimate used for kernel thresholds."""
    return float(max(abs(L).sum(axis=0).max(), abs(L).sum(axis=1).max(), 1e-300))


# ---------------------------------------------------------------------------
# the superoperator in an operator basis, cut into invariant blocks
# ---------------------------------------------------------------------------

def _walsh(d: int) -> np.ndarray:
    """W[z, i] = (-1)^(z.i), the d x d Walsh-Hadamard sign matrix."""
    i = np.arange(d)
    return np.where(np.bitwise_count(i[:, None] & i) & 1, -1.0, 1.0)


def _pauli_coefficients(M, W: np.ndarray) -> np.ndarray:
    """m[x, z] with M = sum m[x, z] X^x Z^z, where X^x Z^z |i> = (-1)^(z.i) |i^x>:
    m[x, z] = (1/d) sum_i (-1)^(z.i) M[i^x, i], one Walsh-Hadamard transform
    for each x on which M has entries."""
    d = len(W)
    M = sparse.coo_matrix(M)
    M.sum_duplicates()
    xs, row = np.unique(M.row ^ M.col, return_inverse=True)
    V = np.zeros((len(xs), d), complex)
    V[row, M.col] = M.data
    m = np.zeros((d, d), complex)
    m[xs] = V @ W / d
    return m


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
    a, c, w = [], [], []
    for A, B in terms:
        supports = []
        for op in (A, B):
            m = _pauli_coefficients(op, W).ravel()
            keep = np.flatnonzero(np.abs(m) > ROUNDOFF * np.abs(m).max())
            supports.append((keep, m[keep]))
        (ia, ca), (ic, cc) = supports
        a.append(np.repeat(ia, len(ic)))
        c.append(np.tile(ic, len(ia)))
        w.append(np.outer(ca, cc).ravel())
    a, c, w = np.concatenate(a), np.concatenate(c), np.concatenate(w)
    za, xc, shift = a & (d - 1), c >> n, a ^ c
    w = w * np.where(np.bitwise_count(za & xc) & 1, -1.0, 1.0)
    order = np.argsort(shift, kind="stable")
    shift, za, xc, w = shift[order], za[order], xc[order], w[order]
    shifts, starts = np.unique(shift, return_index=True)
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

        Blocks of at most DENSE_BLOCK_LIMIT elements get a dense eigensolve
        batched by size. A Hermitian form (the commutant) gets eigvalsh and
        returns no kernel vectors; any other form gets eigvals, then eig on
        the blocks that hold kernel. Larger blocks get shift-invert ARPACK
        about 1e-9 * scale: k pairs, doubled until the set reaches past
        100 * thresh or holds ``cap`` (a Hermitian form keeps |lambda|). An
        eigenvalue within a factor 100 of thresh on either side makes the
        kernel ambiguous and raises NumericalError.

        Returns the eigenvalues computed, sorted by |lambda| (ascending for a
        Hermitian form, which is positive semidefinite here); the kernel
        dimension (the number of kernel vectors when they are returned); the
        kernel as (members, orthonormal coefficient columns) per block, empty
        for a Hermitian form; and diagnostics basis, blocks, max_block, nnz
        (of T) and margin (the smallest non-kernel |lambda| over thresh, None
        if none).
        """
        spectra, kernel = [], []
        for members in self.blocks():
            if members.shape[1] <= DENSE_BLOCK_LIMIT:
                stack = self.dense(members)
                if self.hermitian:
                    spectra.append(np.linalg.eigvalsh(stack).ravel())
                    continue
                vals = np.linalg.eigvals(stack)
                hit = np.flatnonzero((np.abs(vals) < thresh).any(axis=1))
                if hit.size:
                    w, v = np.linalg.eig(stack[hit])
                    kernel += [(members[b], vb[:, np.abs(wb) < thresh])
                               for b, wb, vb in zip(hit, w, v)]
                spectra.append(vals.ravel())
            else:
                for idx in members:
                    vals, v = _arpack_block(self.restrict(idx[None]), k, thresh, scale, cap)
                    if self.hermitian:
                        vals = np.abs(vals)
                    else:
                        kernel.append((idx, v[:, np.abs(vals) < thresh]))
                    spectra.append(vals)
        vals = np.concatenate(spectra)
        vals = vals[np.argsort(vals if self.hermitian else np.abs(vals), kind="stable")]
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
            "blocks": int(self.labels.max()) + 1,
            "max_block": int(np.bincount(self.labels).max()),
            "nnz": int(self.T.nnz),
            "margin": float(abs(vals[n_kernel]) / thresh) if n_kernel < len(vals) else None,
        }
        return vals, n_kernel, kernel, diagnostics


def _arpack_block(B: sparse.spmatrix, k: int, thresh: float, scale: float, cap: int):
    """Smallest-|lambda| eigenpairs of one block by shift-invert ARPACK, k grown
    until the computed set reaches past 100 * thresh (or the cap)."""
    n = B.shape[0]
    k_req = min(max(k, 2), n - 2)
    while True:
        try:
            vals, vecs = sparse_eigs(B, k=k_req, sigma=1e-9 * scale, which="LM")
        except Exception as exc:  # ARPACK failure, singular factorization, ...
            raise NumericalError(f"sparse eigensolve failed: {exc}") from exc
        if np.abs(vals).max() >= 100 * thresh or k_req >= min(cap, n - 2):
            return vals, vecs
        k_req = min(2 * k_req, n - 2)


def _drop_roundoff(A) -> sparse.csr_matrix:
    """A as a sparse matrix without the entries below ROUNDOFF times its largest."""
    A = sparse.csr_matrix(A, copy=True)
    if A.nnz:
        A.data[np.abs(A.data) <= ROUNDOFF * np.abs(A.data).max()] = 0
        A.eliminate_zeros()
    return A


def _matrix_unit_transfer(terms, d: int) -> sparse.csr_matrix:
    """Column-stacking matrix of rho -> sum A rho B, cut like the Pauli
    transfer: operator entries below ROUNDOFF of their largest, and assembled
    entries below ROUNDOFF of the magnitude that summed into them."""
    terms = [(_drop_roundoff(A), _drop_roundoff(B)) for A, B in terms]
    T = _kron_sum(terms, d).tocoo()
    bound = _kron_sum([(abs(A), abs(B)) for A, B in terms], d)
    keep = np.abs(T.data) > ROUNDOFF * np.asarray(bound[T.row, T.col]).ravel()
    return sparse.csr_matrix((T.data[keep], (T.row[keep], T.col[keep])), shape=T.shape)


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
            return (_pauli_coefficients(rho, W).ravel() / phase).real

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
    eigenvalues: np.ndarray            # the small-magnitude spectrum inspected
    residual: float                    # max ||L v|| over kernel basis vectors
    # basis, blocks, max_block, nnz (of the basis matrix) and margin, the
    # smallest non-kernel |lambda| over the threshold (None if none), from
    # _BlockForm.kernel; and seconds
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
    band, so degenerate kernels are reported faithfully. ``eigenvalues``
    holds the max(kernel_dim + 4, STEADY_EIGENVALUES) smallest |lambda| of
    the union of the block spectra computed.

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
