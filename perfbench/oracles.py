"""Reference values the benchmark checks stabtherm against.

Built from first principles with numpy only, never from stabtherm: dense
Hamiltonians are explicit Kronecker products of 2x2 Pauli matrices, partition
sums enumerate syndrome patterns, and the composite fixed point is written
down as a product of Gibbs and thermal-qubit factors. ``self_check`` tests
each oracle against closed forms; run this file to run it alone.

Conventions shared with the package (fixed by its documentation, not read
from its code): qubit 0 is the least significant bit, so an n-qubit string
is kron(M_{n-1}, ..., M_0); a stabilizer Hamiltonian is -sum_t c_t S_t; on
the L x L torus the links of cell (x, y) are h = 2*(y*L + x) and v = h + 1,
vertex (x, y) touches h(x,y), h(x-1,y), v(x,y), v(x,y-1) and carries
A_v = prod Z, plaquette (x, y) touches h(x,y), h(x,y+1), v(x,y), v(x+1,y)
and carries B_p = prod X.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a letter string; letters[q] acts on qubit q."""
    out = np.ones((1, 1), dtype=complex)
    for c in letters:
        out = np.kron(PAULI[c], out)
    return out


def stabilizer_hamiltonian(strings, couplings) -> np.ndarray:
    """-sum_t c_t S_t from letter strings."""
    return -sum(c * pauli_matrix(s) for c, s in zip(couplings, strings))


def cyclic_code_strings(base: str) -> list[str]:
    """Generators of a cyclic code: the first n-1 cyclic shifts of ``base``."""
    n = len(base)
    return [base[-i:] + base[:-i] if i else base for i in range(n - 1)]


def toric_supports(L: int) -> tuple[list[list[int]], list[list[int]]]:
    """Link sets of the vertices and plaquettes, cell-major."""
    def h(x, y):
        return 2 * ((y % L) * L + (x % L))

    def v(x, y):
        return h(x, y) + 1

    cells = [(x, y) for y in range(L) for x in range(L)]
    vertices = [[h(x, y), h(x - 1, y), v(x, y), v(x, y - 1)] for x, y in cells]
    plaquettes = [[h(x, y), h(x, y + 1), v(x, y), v(x + 1, y)] for x, y in cells]
    return vertices, plaquettes


def _letters_on(n: int, links, letter: str) -> str:
    out = ["I"] * n
    for j in links:
        out[j] = letter
    return "".join(out)


def toric_operators(L: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Dense A_v (Z-type) and B_p (X-type) matrices."""
    n = 2 * L * L
    vertices, plaquettes = toric_supports(L)
    A = [pauli_matrix(_letters_on(n, s, "Z")) for s in vertices]
    B = [pauli_matrix(_letters_on(n, s, "X")) for s in plaquettes]
    return A, B


def toric_hamiltonian(L: int, lambda_e: float, lambda_m: float):
    """(H, A_v list, B_p list) with H = -lambda_e sum A_v - lambda_m sum B_p."""
    A, B = toric_operators(L)
    H = -lambda_e * sum(A) - lambda_m * sum(B)
    return H, A, B


def gibbs(H: np.ndarray, beta: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(H)
    w = np.exp(-beta * (evals - evals.min()))
    return (evecs * (w / w.sum())) @ evecs.conj().T


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a) - np.asarray(b)
    d = (d + d.conj().T) / 2
    return 0.5 * float(np.abs(np.linalg.eigvalsh(d)).sum())


def expectation(op: np.ndarray, rho: np.ndarray) -> float:
    return float(np.real(np.trace(op @ rho)))


def toric_partition_sums(L: int, lambda_e: float, lambda_m: float, beta: float) -> dict:
    """Z, <A_v>, <B_p> and <H> by enumerating the syndrome patterns.

    A pattern is valid when it has an even number of -1 vertex syndromes and
    an even number of -1 plaquette syndromes; each valid joint pattern is
    4-fold degenerate (two logical qubits).
    """
    N = L * L
    even = [s for s in itertools.product((1, -1), repeat=N) if math.prod(s) == 1]
    Z = sum_a = sum_b = sum_e = 0.0
    for a in even:
        for b in even:
            energy = -lambda_e * sum(a) - lambda_m * sum(b)
            w = 4.0 * math.exp(-beta * energy)
            Z += w
            sum_a += w * sum(a) / N
            sum_b += w * sum(b) / N
            sum_e += w * energy
    return {"Z": Z, "A_v": sum_a / Z, "B_p": sum_b / Z, "energy": sum_e / Z}


def even_parity_mean(N: int, x: float) -> float:
    """Closed form of <s_i> for N spins at field x with prod s = +1.

    Z = ((2 cosh x)^N + (2 sinh x)^N) / 2, so <s> = (t + t^(N-1)) / (1 + t^N)
    with t = tanh x.
    """
    t = math.tanh(x)
    return (t + t ** (N - 1)) / (1 + t ** N)


def thermal_qubit(beta: float, omega: float) -> np.ndarray:
    """diag(p0, p1) with p1 / p0 = exp(-beta * omega)."""
    w = math.exp(-beta * omega)
    return np.diag([1.0, w]).astype(complex) / (1.0 + w)


def composite_fixed_point(system_gibbs: np.ndarray, beta: float, omegas) -> np.ndarray:
    """Gibbs x thermal ancillas, ancilla k on qubit n_system + k."""
    out = system_gibbs
    for omega in omegas:
        out = np.kron(thermal_qubit(beta, omega), out)
    return out


def zz_composite_fixed_point(lam: float, beta: float) -> np.ndarray:
    """Fixed point of the fully dressed -lam*ZZ composite.

    Ancillas run site-major with axis x before z. sigma^x on either qubit
    flips ZZ, an energy change of 2*lam, so its ancilla has omega = 2*lam;
    sigma^z commutes with ZZ, so its ancilla has omega = 0.
    """
    H = stabilizer_hamiltonian(["ZZ"], [lam])
    return composite_fixed_point(gibbs(H, beta), beta, [2 * lam, 0.0, 2 * lam, 0.0])


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"oracle self-check failed: {what}")


def self_check() -> None:
    """Check every oracle against closed forms; raises AssertionError."""
    L, N = 2, 4
    uniform = toric_partition_sums(L, 1.3, 0.7, 0.0)
    _require(abs(uniform["Z"] - 2 ** (2 * N)) < 1e-9, "Z(beta=0) = 2^n")
    _require(max(abs(uniform[k]) for k in ("A_v", "B_p", "energy")) < 1e-12,
             "beta = 0 gives zero syndrome means")
    for lam_e, lam_m, beta in ((1.0, 1.0, 1.0), (1.07, 0.93, 0.8)):
        sums = toric_partition_sums(L, lam_e, lam_m, beta)
        _require(abs(sums["A_v"] - even_parity_mean(N, beta * lam_e)) < 1e-12,
                 "L=2 <A_v> equals the even-pattern closed form")
        _require(abs(sums["B_p"] - even_parity_mean(N, beta * lam_m)) < 1e-12,
                 "L=2 <B_p> equals the even-pattern closed form")
        _require(abs(sums["energy"] + N * (lam_e * sums["A_v"] + lam_m * sums["B_p"])) < 1e-12,
                 "<H> = -N (lambda_e <A_v> + lambda_m <B_p>)")

    H, A, B = toric_hamiltonian(L, 1.07, 0.93)
    _require(np.allclose(H, H.conj().T) and abs(np.trace(H)) < 1e-9,
             "toric H is Hermitian and traceless")
    _require(all(np.allclose(P @ Q, Q @ P) for P in A for Q in B), "A_v and B_p commute")
    levels = sorted(
        -1.07 * (N - 2 * ka) - 0.93 * (N - 2 * kb)
        for ka in range(0, N + 1, 2) for kb in range(0, N + 1, 2)
        for _ in range(4 * math.comb(N, ka) * math.comb(N, kb))
    )
    _require(np.allclose(np.linalg.eigvalsh(H), levels), "toric spectrum = syndrome levels")
    rho = gibbs(H, 0.8)
    sums = toric_partition_sums(L, 1.07, 0.93, 0.8)
    _require(abs(np.mean([expectation(P, rho) for P in A]) - sums["A_v"]) < 1e-12,
             "dense Gibbs <A_v> = partition sum")
    _require(abs(expectation(H, rho) - sums["energy"]) < 1e-10, "dense Gibbs <H> = partition sum")
    _require(np.allclose(gibbs(H, 0.0), np.eye(len(H)) / len(H)), "beta = 0 gives I/d")

    five = stabilizer_hamiltonian(cyclic_code_strings("XZZXI"), [1.0] * 4)
    gens = [pauli_matrix(s) for s in cyclic_code_strings("XZZXI")]
    _require(all(np.allclose(P @ Q, Q @ P) for P in gens for Q in gens),
             "[[5,1,3]] generators commute")
    _require(np.allclose(np.linalg.eigvalsh(five)[:2], -4.0), "[[5,1,3]] code space at -4")

    fixed = zz_composite_fixed_point(0.9, 1.1)
    _require(abs(np.trace(fixed) - 1) < 1e-12, "composite fixed point has unit trace")
    _require(np.allclose(zz_composite_fixed_point(0.9, 0.0), np.eye(64) / 64),
             "beta = 0 composite fixed point is I/64")
    zz = pauli_matrix("ZZ" + "IIII")
    _require(abs(expectation(zz, fixed) - math.tanh(1.1 * 0.9)) < 1e-12,
             "<ZZ> = tanh(beta * lam)")
    p = np.real(np.diag(fixed)).reshape(2, 2, 2, 2, 4)  # anc3, anc2, anc1, anc0, system
    anc0 = p.sum(axis=(0, 1, 2, 4))
    _require(abs(anc0[1] / anc0[0] - math.exp(-1.1 * 1.8)) < 1e-12,
             "dressed ancilla populations follow exp(-beta * omega)")


if __name__ == "__main__":
    self_check()
    print("oracle self-check passed")
