"""Lindblad generators on vectorized density matrices: superoperators, exact
time evolution (dense exponential or Krylov, one superoperator per
trajectory), steady-state kernels and Gibbs states.

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

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import eigs as sparse_eigs, expm_multiply

from .errors import CapacityError, NumericalError, ParameterError
from .pauli import PauliString

#: Hilbert-space dimension above which build_superoperator refuses.
SUPEROP_DIM_LIMIT = 256
#: Superoperator dimension up to which trajectory() uses the exact exponential.
EXACT_EXPM_LIMIT = 4096
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


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep`` (dims in kron order)."""
    dims = list(dims)
    k = len(dims)
    keep = sorted(keep)
    t = rho.reshape(dims + dims)
    out_axes = [i for i in range(k) if i not in keep]
    for ax in reversed(out_axes):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape((d, d))


def thermal_qubit(beta: float, omega: float) -> np.ndarray:
    """diag(p0, p1) with p1/p0 = exp(-beta*omega) (hbar = 1)."""
    if beta < 0:
        raise ParameterError("negative inverse temperature not supported")
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


def build_superoperator(g: LindbladGenerator, dim_limit: int = SUPEROP_DIM_LIMIT) -> sparse.csr_matrix:
    """Sparse column-stacking superoperator of dimension dim^2 x dim^2."""
    d = g.n_levels
    if d > dim_limit:
        raise CapacityError(
            f"superoperator for dim {d} exceeds the configured limit {dim_limit}"
        )
    eye = sparse.identity(d, dtype=complex, format="csr")
    H = g.H
    L = -1j * (sparse.kron(eye, H, format="csr") - sparse.kron(H.T, eye, format="csr"))
    for j in g.jumps:
        if j.rate == 0:
            continue
        K = j.op
        Kd = K.conj().T.tocsr()
        KdK = (Kd @ K).tocsr()
        L = L + j.rate * (
            2 * sparse.kron(K.conj(), K, format="csr")
            - sparse.kron(eye, KdK, format="csr")
            - sparse.kron(KdK.T, eye, format="csr")
        )
    return L.tocsr()


def _superop_scale(L: sparse.spmatrix) -> float:
    """Cheap norm estimate used for kernel thresholds."""
    return float(max(abs(L).sum(axis=0).max(), abs(L).sum(axis=1).max(), 1e-300))


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
    """States at np.linspace(0, t, points), all from one superoperator.

    "expm" steps with one dense exponential exp(L dt); "krylov" makes one
    call to scipy's expm_multiply (Al-Mohy/Higham), which returns the whole
    uniform grid; "auto" uses expm while the superoperator dimension is at
    most EXACT_EXPM_LIMIT and krylov above it. Each returned state is
    Hermitized; trace is preserved to 1e-9 and positivity is monitored.
    """
    d = g.n_levels
    if rho0.dim != d:
        raise ParameterError("state dimension does not match the generator")
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if points < 2:
        raise ParameterError(f"a trajectory needs at least 2 points, got {points}")
    if method == "auto":
        method = "expm" if d * d <= EXACT_EXPM_LIMIT else "krylov"
    if method not in ("expm", "krylov"):
        raise ParameterError(f"unknown method {method!r}")
    if t == 0:
        return [rho0] * points

    L = build_superoperator(g)
    v0 = vec(rho0.mat)
    if method == "expm":
        U = expm((L * (t / (points - 1))).toarray())
        vs = [v0]
        for _ in range(points - 1):
            vs.append(U @ vs[-1])
    else:
        vs = expm_multiply(L, v0, start=0.0, stop=t, num=points, endpoint=True)
    return [rho0] + [_finalize_state(unvec(v)) for v in vs[1:]]


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


def steady_states(
    g: LindbladGenerator,
    k: int = 6,
    kernel_tol: float = 1e-10,
    max_kernel: int = 64,
) -> SteadyStateResult:
    """Kernel of the superoperator via sparse shifted eigensolve.

    Eigenvalues with |lambda| < kernel_tol * ||L|| count as kernel. k is grown
    until the kernel cluster is strictly inside the computed set, so degenerate
    kernels are reported faithfully.
    """
    L = build_superoperator(g)
    n = L.shape[0]
    scale = _superop_scale(L)
    thresh = kernel_tol * scale

    if n <= 1024:
        # small enough for the full dense spectrum; avoids ARPACK edge cases
        from scipy.linalg import eig as dense_eig

        vals, vecs = dense_eig(L.toarray())
        idx = np.argsort(np.abs(vals))
        vals, vecs = vals[idx], vecs[:, idx]
        n_kernel = int(np.sum(np.abs(vals) < thresh))
        vals = vals[: max(n_kernel + 4, min(k, n))]
        vecs = vecs[:, : len(vals)]
    else:
        k_req = min(max(k, 2), n - 2)
        while True:
            try:
                vals, vecs = sparse_eigs(L, k=k_req, sigma=1e-9 * scale, which="LM")
            except Exception as exc:  # ARPACK failure, singular factorization, ...
                raise NumericalError(f"sparse eigensolve failed: {exc}") from exc
            idx = np.argsort(np.abs(vals))
            vals, vecs = vals[idx], vecs[:, idx]
            n_kernel = int(np.sum(np.abs(vals) < thresh))
            if n_kernel < k_req or k_req >= min(max_kernel, n - 2):
                break
            k_req = min(2 * k_req, n - 2)
    if n_kernel > max_kernel:
        raise NumericalError(f"kernel dimension exceeds the cap {max_kernel}")

    basis, _ = np.linalg.qr(vecs[:, :n_kernel]) if n_kernel else (np.zeros((n, 0)), None)
    residual = float(
        max((np.linalg.norm(L @ basis[:, i]) for i in range(n_kernel)), default=0.0)
    ) / scale

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
        eigenvalues=vals,
        residual=residual,
    )


def gibbs_state(H, beta: float) -> DensityMatrix:
    """exp(-beta H)/Z via eigendecomposition, overflow-guarded."""
    Hd = H.toarray() if sparse.issparse(H) else np.asarray(H, dtype=complex)
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    evals, evecs = np.linalg.eigh(Hd)
    w = np.exp(-beta * (evals - evals.min()))
    w = w / w.sum()
    rho = (evecs * w) @ evecs.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)
