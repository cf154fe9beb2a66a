"""Test-side oracles, built independently of the package internals.

Everything here uses explicit Kronecker products, direct master-equation
evaluation, or exhaustive enumeration so the library code under test is
checked against a second, independent construction path.
"""

import itertools

import numpy as np
from scipy import sparse

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PHASES = {"+1": 1.0, "-1": -1.0, "+i": 1j, "-i": -1j}


def dense_pauli(letters: str, phase: complex = 1.0) -> np.ndarray:
    """kron(M_{n-1}, ..., M_0): qubit 0 is the least significant bit."""
    out = np.array([[1.0]], dtype=complex)
    for c in letters:
        out = np.kron(PAULI[c], out)
    return phase * out


def dense_from_label(label: str) -> np.ndarray:
    tok, letters = label.split()
    return dense_pauli(letters, PHASES[tok])


def single_site(n: int, j: int, axis: str) -> np.ndarray:
    letters = ["I"] * n
    letters[j] = axis.upper()
    return dense_pauli("".join(letters))


def embed(op: np.ndarray, q: int, n: int) -> np.ndarray:
    """kron(I, ..., op, ..., I) with the 2x2 ``op`` on qubit q of n."""
    out = np.array([[1.0]], dtype=complex)
    for j in range(n):
        out = np.kron(op if j == q else I2, out)
    return out


def cphase_embedded(a: int, b: int, angle: float, n: int) -> np.ndarray:
    """I + (e^{i angle} - 1) |1><1|_a |1><1|_b on n qubits."""
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return np.eye(1 << n) + (np.exp(1j * angle) - 1) * embed(p1, a, n) @ embed(p1, b, n)


def thermal_kraus(beta: float, omega: float, relax: float) -> list[np.ndarray]:
    """One-qubit exp(D_thermal tau) as damping toward |0> with weight p0 and
    toward |1> with weight p1; coherences shrink by sqrt(1 - relax)."""
    p1 = 1.0 / (1.0 + np.exp(beta * omega))
    p0 = 1.0 - p1
    keep = np.sqrt(1.0 - relax)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
    return [np.sqrt(p0) * np.diag([1.0, keep]), np.sqrt(p0 * relax) * sm,
            np.sqrt(p1) * np.diag([keep, 1.0]), np.sqrt(p1 * relax) * sm.T]


def rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i angle/2 sigma^axis) for axis x, y or z."""
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * PAULI[axis.upper()]


def simulate_gates(schedule, rho: np.ndarray) -> np.ndarray:
    """Gate-by-gate channel-sum reference for a schedule (any object with
    n_qubits, gates and steps; gates with the stabtherm gate fields), with
    kron-embedded n-qubit operators. One branch per assignment of the
    classical bits written so far; branches are never merged early."""
    n = schedule.n_qubits
    p = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    branches = {(): np.array(rho, dtype=complex)}
    for g in list(schedule.gates) * schedule.steps:
        new = {}
        for bits, r in branches.items():
            bit = dict(bits)
            if g.kind == "MEASURE_Z":
                outs = [({**bit, g.cbit: v}, [embed(p[v], g.qubit, n)]) for v in (0, 1)]
            elif g.kind == "SAMPLE_BOLTZMANN_BIT":
                p1 = 1.0 / (1.0 + np.exp(g.beta * g.omega))
                outs = [({**bit, g.cbit: 0}, [np.sqrt(1 - p1) * np.eye(1 << n)]),
                        ({**bit, g.cbit: 1}, [np.sqrt(p1) * np.eye(1 << n)])]
            elif g.kind == "THERMAL_RESET":
                kraus = thermal_kraus(g.beta, g.omega, 1.0 if g.relax is None else g.relax)
                outs = [(bit, [embed(k, g.qubit, n) for k in kraus])]
            elif g.kind == "CPHASE":
                angle = np.pi if g.angle is None else g.angle
                outs = [(bit, [cphase_embedded(g.qubit, g.qubit2, angle, n)])]
            elif g.kind == "COND_PULSE" and any(bit.get(b) != v for b, v in g.condition):
                outs = [(bit, [np.eye(1 << n)])]
            else:  # ROT1, or a COND_PULSE whose condition holds
                outs = [(bit, [embed(rotation(g.axis, g.angle), g.qubit, n)])]
            for assign, kraus in outs:
                key = tuple(sorted(assign.items()))
                new[key] = new.get(key, 0) + sum(K @ r @ K.conj().T for K in kraus)
        branches = new
    return sum(branches.values())


def full_reset(rho: np.ndarray, q: int, n: int, p0: float) -> np.ndarray:
    """Trace out qubit q and put it back in diag(p0, 1 - p0): Kraus set
    sqrt(p_a) |a><b| over a, b in {0, 1}."""
    out = np.zeros_like(rho)
    for a, pa in ((0, p0), (1, 1.0 - p0)):
        for b in (0, 1):
            k = np.zeros((2, 2), dtype=complex)
            k[a, b] = np.sqrt(pa)
            K = embed(k, q, n)
            out = out + K @ rho @ K.conj().T
    return out


def lindblad_rhs(H, jumps, rho):
    """Direct evaluation with the factor-2 dissipator convention."""
    out = -1j * (H @ rho - rho @ H)
    for K, gamma in jumps:
        out = out + gamma * (2 * K @ rho @ K.conj().T
                             - K.conj().T @ K @ rho - rho @ K.conj().T @ K)
    return out


def build_superoperator(g):
    """Sparse column-stacking superoperator of a generator (anything with a
    sparse ``H`` and ``jumps`` carrying ``op`` and ``rate``), written from
    the master equation term by term with vec(A rho B) = kron(B^T, A) vec(rho):
    -i (I (x) H - H^T (x) I) + sum_k gamma_k (2 conj(K) (x) K
    - I (x) K^dag K - (K^dag K)^T (x) I)."""
    H = sparse.csr_matrix(g.H)
    eye = sparse.identity(H.shape[0], dtype=complex, format="csr")
    L = -1j * (sparse.kron(eye, H) - sparse.kron(H.T, eye))
    for j in g.jumps:
        K = sparse.csr_matrix(j.op)
        KdK = K.conj().T @ K
        L = L + j.rate * (2 * sparse.kron(K.conj(), K)
                          - sparse.kron(eye, KdK) - sparse.kron(KdK.T, eye))
    L = sparse.csr_matrix(L)
    L.eliminate_zeros()
    return L


def dist_up_to_phase(U, V):
    tr = np.trace(V.conj().T @ U)
    ph = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.linalg.norm(U - ph * V))


def toric_partition_sums(L, lam_e, lam_m, beta):
    """Exact (Z, <A_v>, <B_p>, energy) by enumerating valid syndrome patterns.

    Valid patterns have an even number of -1 vertex (and plaquette) syndromes;
    each joint pattern carries the 4-fold topological degeneracy.
    """
    n = L * L
    Z = 0.0
    num_a = 0.0
    num_b = 0.0
    num_e = 0.0
    for avs in itertools.product([1, -1], repeat=n):
        if np.prod(avs) != 1:
            continue
        for bps in itertools.product([1, -1], repeat=n):
            if np.prod(bps) != 1:
                continue
            energy = -lam_e * sum(avs) - lam_m * sum(bps)
            w = 4.0 * np.exp(-beta * energy)
            Z += w
            num_a += avs[0] * w
            num_b += bps[0] * w
            num_e += energy * w
    return Z, num_a / Z, num_b / Z, num_e / Z


def toric_spectrum(L, lam_e, lam_m):
    """Sorted exact spectrum with multiplicities from syndrome enumeration."""
    n = L * L
    levels = []
    for ka in range(0, n + 1, 2):
        for kb in range(0, n + 1, 2):
            energy = -lam_e * (n - 2 * ka) - lam_m * (n - 2 * kb)
            mult = 4 * _comb(n, ka) * _comb(n, kb)
            levels.append((energy, mult))
    out = []
    for e, m in levels:
        out.extend([e] * m)
    return np.sort(np.array(out))


def _comb(n, k):
    from math import comb

    return comb(n, k)


def random_density(dim, rng):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = G @ G.conj().T
    return m / np.trace(m).real


def trace_dist(a, b):
    d = a - b
    d = (d + d.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(d)).sum())


def commutant_superoperator(ops):
    """Dense M = sum_O ad_O^dag ad_O over the ops and their adjoints, with
    ad_O = kron(I, O) - kron(O^T, I) on column-stacked matrices."""
    mats = [o.toarray() if hasattr(o, "toarray") else np.asarray(o, dtype=complex)
            for o in ops]
    mats = mats + [m.conj().T for m in mats]
    eye = np.eye(len(mats[0]))
    M = 0
    for m in mats:
        C = np.kron(eye, m) - np.kron(m.T, eye)
        M = M + C.conj().T @ C
    return M


def commutant_nullity(ops, tol=1e-7):
    """Eigenvalues of the dense M below tol * max|O_ij|^2 * (2 * len(ops))."""
    scale = max(np.abs(o.toarray() if hasattr(o, "toarray") else o).max() for o in ops) ** 2
    vals = np.linalg.eigvalsh(commutant_superoperator(ops))
    return int(np.sum(vals < tol * scale * 2 * len(ops)))
