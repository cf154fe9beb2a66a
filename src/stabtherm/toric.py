"""Z2 toric code on an L x L torus and eigenoperator machinery.

Lattice conventions (fixed, so that eigenvalue labels are reproducible):

* cells are indexed row-major, cell (x, y) -> y*L + x;
* each cell owns two links, horizontal first: h(x,y) = 2*(y*L+x),
  v(x,y) = 2*(y*L+x) + 1;
* vertex (x,y) touches links h(x,y), h(x-1,y), v(x,y), v(x,y-1);
* plaquette (x,y) has corners (x,y)..(x+1,y+1) and touches
  h(x,y), h(x,y+1), v(x,y), v(x+1,y);
* all index arithmetic is mod L (toroidal boundary).

Hamiltonian sign convention: a StabilizerHamiltonian stores positive
couplings c_t and stabilizer strings S_t and represents H = -sum_t c_t S_t.

Energy-quantum convention: the single-excitation energy is Delta = 2*lambda
(flipping one vertex/plaquette eigenvalue costs 2*lambda), so a pair
creation costs 2*Delta = 4*lambda, which is both the spectral gap and the
Heisenberg-picture frequency of the pair creation operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ModelError, ParameterError
from .pauli import DENSE_LIMIT, PauliString, PauliSum, projector_product

#: Energy changes closer than FREQUENCY_TOL times the largest anticommuting
#: coupling are one Fourier frequency.
FREQUENCY_TOL = 1e-9


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToricLattice:
    """L x L torus with qubits on the 2*L^2 links."""

    L: int
    vertices: tuple[tuple[int, int, int, int], ...]
    plaquettes: tuple[tuple[int, int, int, int], ...]
    link_vertices: tuple[tuple[int, int], ...]
    link_plaquettes: tuple[tuple[int, int], ...]

    @property
    def n_links(self) -> int:
        return 2 * self.L * self.L

    def h_link(self, x: int, y: int) -> int:
        L = self.L
        return 2 * ((y % L) * L + (x % L))

    def v_link(self, x: int, y: int) -> int:
        L = self.L
        return 2 * ((y % L) * L + (x % L)) + 1


def build_torus(L: int) -> ToricLattice:
    """Construct the lattice with the canonical link ordering."""
    if L < 2:
        raise ParameterError(
            f"L must be >= 2, got {L} (L=1 degenerates the vertex/plaquette supports)"
        )

    def h(x, y):
        return 2 * ((y % L) * L + (x % L))

    def v(x, y):
        return 2 * ((y % L) * L + (x % L)) + 1

    vertices = []
    plaquettes = []
    for y in range(L):
        for x in range(L):
            vertices.append((h(x, y), h(x - 1, y), v(x, y), v(x, y - 1)))
            plaquettes.append((h(x, y), h(x, y + 1), v(x, y), v(x + 1, y)))

    n = 2 * L * L
    lv = [[] for _ in range(n)]
    lp = [[] for _ in range(n)]
    for i, links in enumerate(vertices):
        for j in links:
            lv[j].append(i)
    for i, links in enumerate(plaquettes):
        for j in links:
            lp[j].append(i)
    for j in range(n):
        if len(lv[j]) != 2 or len(lp[j]) != 2:
            raise ModelError(f"link {j} is not shared by exactly 2 vertices/plaquettes")

    return ToricLattice(
        L=L,
        vertices=tuple(tuple(t) for t in vertices),
        plaquettes=tuple(tuple(t) for t in plaquettes),
        link_vertices=tuple(tuple(t) for t in lv),
        link_plaquettes=tuple(tuple(t) for t in lp),
    )


# ---------------------------------------------------------------------------
# stabilizer Hamiltonians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilizerTerm:
    coupling: float
    stabilizer: PauliString
    tag: str = "other"  # "vertex" | "plaquette" | "other"
    index: int | None = None


@dataclass(frozen=True)
class StabilizerHamiltonian:
    """H = -sum_t coupling_t * stabilizer_t with mutually commuting terms."""

    n_qubits: int
    terms: tuple[StabilizerTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if not (np.isfinite(t.coupling) and t.coupling > 0):
                raise ParameterError(f"coupling must be positive, got {t.coupling}")
            if t.stabilizer.n != self.n_qubits:
                raise ModelError("stabilizer acts on the wrong register size")
            if t.stabilizer.square_phase() != 1:
                raise ModelError(f"stabilizer {t.stabilizer} does not square to +I")
        strings = [t.stabilizer for t in self.terms]
        for a, b in itertools.combinations(strings, 2):
            if not a.commutes(b):
                raise ModelError(f"stabilizers {a} and {b} do not commute")

    def as_sum(self) -> PauliSum:
        """The operator -sum c_t S_t as a PauliSum."""
        return PauliSum(self.n_qubits, [(-t.coupling, t.stabilizer) for t in self.terms])

    def to_dense(self) -> np.ndarray:
        return self.as_sum().to_dense()

    @property
    def couplings(self) -> tuple[float, ...]:
        return tuple(t.coupling for t in self.terms)


def _mask(links) -> int:
    """Bit mask with bit j set for every link j."""
    m = 0
    for j in links:
        m |= 1 << j
    return m


def vertex_string(lat: ToricLattice, v: int) -> PauliString:
    """A_v = prod_{j in v} sigma^z_j."""
    return PauliString(lat.n_links, 0, _mask(lat.vertices[v]), 0)


def plaquette_string(lat: ToricLattice, p: int) -> PauliString:
    """B_p = prod_{j in p} sigma^x_j."""
    return PauliString(lat.n_links, _mask(lat.plaquettes[p]), 0, 0)


def toric_hamiltonian(lat: ToricLattice, lambda_e: float, lambda_m: float) -> StabilizerHamiltonian:
    """H_TC = -lambda_e sum_v A_v - lambda_m sum_p B_p."""
    if not (lambda_e > 0 and lambda_m > 0):
        raise ParameterError("couplings lambda_e, lambda_m must be positive")
    terms = [
        StabilizerTerm(lambda_e, vertex_string(lat, v), "vertex", v)
        for v in range(len(lat.vertices))
    ] + [
        StabilizerTerm(lambda_m, plaquette_string(lat, p), "plaquette", p)
        for p in range(len(lat.plaquettes))
    ]
    return StabilizerHamiltonian(lat.n_links, tuple(terms))


def single_vertex_model(lam: float = 1.0) -> StabilizerHamiltonian:
    """Mini model H = -lam * Z Z Z Z on 4 qubits (one vertex term)."""
    if lam <= 0:
        raise ParameterError("coupling must be positive")
    s = PauliString.from_letters("ZZZZ")
    return StabilizerHamiltonian(4, (StabilizerTerm(lam, s, "vertex", 0),))


def single_stabilizer_model(letters: str, lam: float = 1.0) -> StabilizerHamiltonian:
    """H = -lam * S for one Pauli stabilizer S given by its letters."""
    if lam <= 0:
        raise ParameterError("coupling must be positive")
    s = PauliString.from_letters(letters)
    return StabilizerHamiltonian(s.n, (StabilizerTerm(lam, s, "other", 0),))


def loop_operators(lat: ToricLattice) -> dict[str, PauliString]:
    """The four non-contractible loop operators.

    Canonical paths: W^x_1 on the horizontal links of row 0, W^x_2 on the
    vertical links of column 0, W^z_1 on the vertical links of row 0 (a dual
    loop), W^z_2 on the horizontal links of column 0 (a dual loop). With this
    choice the conjugate pairs are (W^x_1, W^z_2) and (W^x_2, W^z_1), which
    anticommute; all other pairs commute.
    """
    L = lat.L
    n = lat.n_links
    row_h = _mask(lat.h_link(x, 0) for x in range(L))
    col_v = _mask(lat.v_link(0, y) for y in range(L))
    row_v = _mask(lat.v_link(x, 0) for x in range(L))
    col_h = _mask(lat.h_link(0, y) for y in range(L))
    return {"Wx1": PauliString(n, row_h, 0, 0), "Wx2": PauliString(n, col_v, 0, 0),
            "Wz1": PauliString(n, 0, row_v, 0), "Wz2": PauliString(n, 0, col_h, 0)}


# ---------------------------------------------------------------------------
# eigenoperator decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenComponent:
    """One Fourier component of a local Pauli.

    For epsilon > 0, ``lowering`` (a_k) removes energy 2*epsilon and
    ``raising`` is its adjoint. A zero-frequency component stores the
    self-adjoint translation part T with the convention a = a^dag = T/2.
    """

    epsilon: float
    lowering: PauliSum
    raising: PauliSum

    @property
    def is_zero_mode(self) -> bool:
        return self.epsilon == 0.0

    @property
    def translation(self) -> PauliSum:
        """T = a + a^dag (meaningful for the zero-frequency component)."""
        return self.lowering + self.raising


@dataclass(frozen=True)
class EigenoperatorDecomposition:
    """The set {(epsilon_k, a_k, a_k^dag)} for one local Pauli sigma^alpha_j."""

    n_qubits: int
    site: int
    axis: str
    components: tuple[EigenComponent, ...]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c.epsilon for c in self.components)

    @property
    def m_components(self) -> int:
        return len(self.components)

    def reconstruct(self) -> PauliSum:
        """sum_k (a_k + a_k^dag); must equal sigma^alpha_j exactly."""
        out = PauliSum.zero(self.n_qubits)
        for c in self.components:
            out = out + c.lowering + c.raising
        return out.simplify()

    def source_string(self) -> PauliString:
        return PauliString.single(self.n_qubits, self.site, self.axis)


def eigenoperator_decomposition(
    H: StabilizerHamiltonian, site: int, axis: str
) -> EigenoperatorDecomposition:
    """Fourier decomposition of sigma^axis_site under a commuting-term H.

    The anticommuting stabilizer set S is sandwiched with spectral projectors
    (I +/- h)/2; components are grouped by the energy change 2*epsilon. The
    component count is at most 2^|S|.
    """
    sigma = PauliString.single(H.n_qubits, site, axis)
    anti = [t for t in H.terms if not t.stabilizer.commutes(sigma)]

    if not anti:
        # sigma commutes with H: a single zero-frequency component, T = sigma
        half = PauliSum.from_string(sigma, 0.5)
        comp = EigenComponent(0.0, half, half)
        return EigenoperatorDecomposition(H.n_qubits, site, axis, (comp,))

    scale = max(t.coupling for t in anti)
    stabs = [t.stabilizer for t in anti]
    coups = np.array([t.coupling for t in anti])

    # collect sign-sector pieces, keyed by the rounded energy change
    buckets: dict[float, dict[int, PauliSum]] = {}
    for signs in itertools.product((1, -1), repeat=len(anti)):
        sgn = np.array(signs)
        # piece supported on initial eigenvalues s_h: (prod_h P_h^{-s_h}) sigma
        proj = projector_product(stabs, list(-sgn))
        piece = proj * PauliSum.from_string(sigma)
        delta_e = 2.0 * float(np.dot(coups, sgn))  # E_final - E_initial
        eps = abs(delta_e) / 2.0
        key = round(eps / (FREQUENCY_TOL * scale)) * FREQUENCY_TOL * scale
        direction = 0 if abs(delta_e) <= FREQUENCY_TOL * scale else (1 if delta_e > 0 else -1)
        slot = buckets.setdefault(key, {-1: PauliSum.zero(H.n_qubits),
                                        0: PauliSum.zero(H.n_qubits),
                                        1: PauliSum.zero(H.n_qubits)})
        slot[direction] = slot[direction] + piece

    components = []
    for key in sorted(buckets):
        slot = buckets[key]
        if key <= FREQUENCY_TOL * scale:
            T = (slot[0] + slot[1] + slot[-1]).simplify()
            if len(T) == 0:
                continue
            half = T * 0.5
            components.append(EigenComponent(0.0, half, half))
        else:
            lowering = slot[-1].simplify()
            raising = slot[1].simplify()
            if len(lowering) == 0 and len(raising) == 0:
                continue
            components.append(EigenComponent(float(key), lowering, raising))

    return EigenoperatorDecomposition(H.n_qubits, site, axis, tuple(components))


def heisenberg_reconstruction(
    decomp: EigenoperatorDecomposition, t: float
) -> PauliSum:
    """sum_k e^{-2 i eps_k t} a_k + e^{+2 i eps_k t} a_k^dag (hbar = 1)."""
    out = PauliSum.zero(decomp.n_qubits)
    for c in decomp.components:
        out = out + c.lowering * np.exp(-2j * c.epsilon * t) + c.raising * np.exp(2j * c.epsilon * t)
    return out


# ---------------------------------------------------------------------------
# Fourier form
# ---------------------------------------------------------------------------

def fourier_form_check(
    H: StabilizerHamiltonian,
    decomps: list[EigenoperatorDecomposition],
) -> tuple[float, float, float]:
    """Least-squares fit H = c * S + d * I over the decompositions of every
    sigma^x_j and sigma^z_j, with S = sum_{eps_k > 0} 2 a_k^dag a_k plus
    T^2 for each zero mode.

    Returns (c, d, residual_frobenius). For the toric code with the
    Delta = 2*lambda convention the fit lands on c = Delta/4 = lambda/2 and
    d = -lambda * 2 L^2, with residual at machine precision.
    """
    keys = {(dec.site, dec.axis) for dec in decomps}
    full = {(j, a) for j in range(H.n_qubits) for a in ("x", "z")}
    if keys != full or len(decomps) != len(full):
        raise ModelError(
            f"need one decomposition per site and axis x, z ({len(full)}), got {len(decomps)}"
        )
    if H.n_qubits > DENSE_LIMIT:
        raise CapacityError("fourier_form_check is a dense desk-scale check")

    dim = 1 << H.n_qubits
    S = np.zeros((dim, dim), dtype=complex)
    for dec in decomps:
        for c in dec.components:
            if c.is_zero_mode:
                t = c.translation.to_dense()
                S += t @ t
            else:
                a = c.lowering.to_dense()
                S += 2.0 * (a.conj().T @ a)
    Hd = H.to_dense()
    eye = np.eye(dim)

    # 2x2 least squares in the (S, I) basis under the Frobenius inner product
    g = np.array(
        [
            [np.vdot(S, S).real, np.vdot(S, eye).real],
            [np.vdot(eye, S).real, float(dim)],
        ]
    )
    rhs = np.array([np.vdot(S, Hd).real, np.vdot(eye, Hd).real])
    c, d = np.linalg.solve(g, rhs)
    residual = float(np.linalg.norm(Hd - c * S - d * eye))
    return float(c), float(d), residual
