"""Engineered thermalization dynamics for stabilizer Hamiltonians.

Each Fourier component of a dressed local Pauli gets one ancilla pseudospin:
Delta-type ancillas exchange quanta with the pair creation/annihilation
operators, 0-type ancillas couple to the translation part. Ancilla
frequencies are transition frequencies: hbar*omega = 2*epsilon_k, the full
energy of the system transition the ancilla is matched to, with the ancilla
Hamiltonian -(omega/2) Sigma^z (splitting omega) and detailed-balance rates
gamma_plus = exp(-beta*omega) * gamma_minus. Under this bookkeeping the
combined Gibbs state gibbs(H_sys, beta) x prod_k thermal(beta, omega_k) is
stationary for the RWA generator; no other convention makes it so.

Ancilla ordering is fixed site-major (site, then axis, then descending
frequency) so composite index maps are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ModelError, ParameterError
from .lindblad import (
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    _check_beta,
    thermal_qubit,
    trace_distance,
    trajectory,
)
from .pauli import PauliString, PauliSum
from .toric import EigenComponent, EigenoperatorDecomposition, StabilizerHamiltonian

#: Hard cap on composite Hilbert dimension for dense generator assembly.
COMPOSITE_DIM_LIMIT = 1 << 14

DEFAULT_COUPLING_FRACTION = 0.05  # g = 0.05 * Delta unless overridden


@dataclass(frozen=True)
class AncillaSpec:
    """One ancilla pseudospin attached to (site, axis) at a matched frequency.

    kind "delta" matches a finite-frequency Fourier component
    (omega = 2*epsilon_k); kind "zero" couples the zero-frequency part
    (omega = 0, gamma_plus = gamma_minus).
    """

    site: int
    axis: str
    kind: str          # "delta" | "zero"
    omega: float       # transition angular frequency, hbar = 1
    gamma_minus: float
    gamma_plus: float

    def __post_init__(self):
        if self.kind not in ("delta", "zero"):
            raise ParameterError(f"ancilla kind must be delta or zero, got {self.kind!r}")
        if self.kind == "zero" and self.omega != 0.0:
            raise ParameterError("zero-type ancillas have omega = 0")
        if self.kind == "delta" and self.omega <= 0:
            raise ParameterError("delta-type ancillas need omega > 0")
        if self.gamma_minus < 0 or self.gamma_plus < 0:
            raise ParameterError("rates must be nonnegative")

    @classmethod
    def for_component(
        cls, site: int, axis: str, epsilon: float, beta: float, gamma_minus: float
    ) -> "AncillaSpec":
        if epsilon > 0:
            omega = 2.0 * epsilon
            return cls(site, axis, "delta", omega, gamma_minus,
                       float(np.exp(-beta * omega)) * gamma_minus)
        return cls(site, axis, "zero", 0.0, gamma_minus, gamma_minus)


@dataclass(frozen=True)
class CompositeModel:
    """System qubits first, ancillas after, in AncillaSpec declaration order.

    ``components[i]`` is the Fourier component ancilla i is matched to, and
    every ancilla is thermal at inverse temperature ``beta``.
    """

    system: StabilizerHamiltonian
    ancillas: tuple[AncillaSpec, ...]
    components: tuple[EigenComponent, ...]
    coupling: float  # g
    beta: float

    @property
    def n_system(self) -> int:
        return self.system.n_qubits

    @property
    def n_ancilla(self) -> int:
        return len(self.ancillas)

    @property
    def n_qubits(self) -> int:
        return self.n_system + self.n_ancilla

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def ancilla_qubit(self, i: int) -> int:
        return self.n_system + i

    def embed_system(self, op: PauliSum) -> PauliSum:
        """Lift a system PauliSum to the composite register."""
        return PauliSum(self.n_qubits, [(c, PauliString(self.n_qubits, s.x, s.z, s.k))
                                        for c, s in op.terms])

    def ancilla_pauli(self, i: int, axis: str) -> PauliSum:
        return PauliSum.from_string(PauliString.single(self.n_qubits, self.ancilla_qubit(i), axis))

    def ancilla_sigma_pm(self, i: int, sign: str) -> PauliSum:
        """Sigma^+ = (X - iY)/2 = |1><0| raises the ancilla; Sigma^- lowers."""
        x = self.ancilla_pauli(i, "x")
        y = self.ancilla_pauli(i, "y")
        if sign == "+":
            return (x + y * (-1j)) * 0.5
        return (x + y * (1j)) * 0.5

    def bare_hamiltonian(self) -> PauliSum:
        """H_sys - sum_i (omega_i/2) Sigma^z_i: the composite without coupling."""
        h = self.embed_system(self.system.as_sum())
        for i, a in enumerate(self.ancillas):
            h = h + self.ancilla_pauli(i, "z") * (-a.omega / 2.0)
        return h

    def thermal_ancilla_state(self, beta: float) -> np.ndarray:
        """Joint thermal state of the ancilla block (little-endian kron order)."""
        out = np.array([[1.0]], dtype=complex)
        for a in self.ancillas:
            out = np.kron(thermal_qubit(beta, a.omega), out)
        return out

    def join(self, system_state: np.ndarray, ancilla_state: np.ndarray) -> np.ndarray:
        """Composite state with system on qubits [0, n_system)."""
        return np.kron(ancilla_state, system_state)


def _dressing_ancillas(
    decomps: tuple[EigenoperatorDecomposition, ...], beta: float, gamma_minus: float
) -> tuple[tuple[AncillaSpec, ...], tuple[EigenComponent, ...]]:
    """One ancilla per (site, axis, frequency); returns the specs and the
    component each one is matched to, in the same order."""
    specs = []
    components = []
    for dec in decomps:
        for comp in sorted(dec.components, key=lambda c: -c.epsilon):
            specs.append(AncillaSpec.for_component(
                dec.site, dec.axis, comp.epsilon, beta, gamma_minus))
            components.append(comp)
    return tuple(specs), tuple(components)


def _composite_dim_guard(n_qubits: int):
    if (1 << n_qubits) > COMPOSITE_DIM_LIMIT:
        raise CapacityError(
            f"composite dimension 2^{n_qubits} exceeds the dense limit "
            f"{COMPOSITE_DIM_LIMIT}; use davies_reduction for system-only runs"
        )


def _ancilla_jumps(model: CompositeModel) -> list[JumpOp]:
    jumps = []
    for i, a in enumerate(model.ancillas):
        q = model.ancilla_qubit(i)
        for sign, rate, direction in (("-", a.gamma_minus, "minus"), ("+", a.gamma_plus, "plus")):
            jumps.append(JumpOp(model.ancilla_sigma_pm(i, sign), rate, f"anc{i}{sign}",
                                reset={"qubit": q, "beta": model.beta, "omega": a.omega,
                                       "direction": direction}))
    return jumps


def attach_ancillas(
    H: StabilizerHamiltonian,
    decomps: list[EigenoperatorDecomposition],
    beta: float,
    gamma_minus: float,
    g: float | None = None,
) -> tuple[CompositeModel, LindbladGenerator]:
    """Lab-frame composite: H_sys - sum (omega/2) Sigma^z + g sum sigma x Sigma^x,
    with Sigma^-/Sigma^+ dissipators at detailed-balance rates (no RWA)."""
    decomps = tuple(decomps)
    _validate_decomps(H, decomps)
    _check_beta(beta)
    specs, components = _dressing_ancillas(decomps, beta, gamma_minus)
    _composite_dim_guard(H.n_qubits + len(specs))

    omega_max = max((a.omega for a in specs), default=0.0)
    if g is None:
        g = DEFAULT_COUPLING_FRACTION * omega_max if omega_max > 0 else DEFAULT_COUPLING_FRACTION
    model = CompositeModel(H, specs, components, float(g), float(beta))

    h_sum = model.bare_hamiltonian()
    for i, a in enumerate(model.ancillas):
        src = PauliString.single(H.n_qubits, a.site, a.axis)
        coupling = model.embed_system(PauliSum.from_string(src)) * model.ancilla_pauli(i, "x")
        h_sum = h_sum + coupling * g
    return model, _composite_generator(model, h_sum)


def rwa_generator(model: CompositeModel) -> LindbladGenerator:
    """Interaction-picture generator under the rotating wave approximation.

    H_RWA = g * sum_k (a_k x Sigma^+_k + a_k^dag x Sigma^-_k) for delta-type
    ancillas and g * T x Sigma^x for zero-type, plus the ancilla dissipators.
    """
    g = model.coupling
    h_sum = PauliSum(model.n_qubits)
    for i, comp in enumerate(model.components):
        if comp.is_zero_mode:
            t_emb = model.embed_system(comp.translation)
            h_sum = h_sum + t_emb * model.ancilla_pauli(i, "x") * g
        else:
            a_emb = model.embed_system(comp.lowering)
            adag_emb = model.embed_system(comp.raising)
            h_sum = h_sum + (a_emb * model.ancilla_sigma_pm(i, "+")
                             + adag_emb * model.ancilla_sigma_pm(i, "-")) * g
    return _composite_generator(model, h_sum)


def _composite_generator(model: CompositeModel, h_sum: PauliSum) -> LindbladGenerator:
    """The generator of the Hermitian h_sum, simplified, with the ancilla
    dissipators. H and the jumps stay PauliSums, as in ``davies_reduction``;
    ``trotterize`` compiles H's terms."""
    return LindbladGenerator(n_levels=model.dim, H=h_sum.simplify(),
                             jumps=tuple(_ancilla_jumps(model)))


def _validate_decomps(H: StabilizerHamiltonian, decomps: tuple[EigenoperatorDecomposition, ...]):
    seen = set()
    for d in decomps:
        if d.n_qubits != H.n_qubits:
            raise ModelError("decomposition register size does not match H")
        key = (d.site, d.axis)
        if key in seen:
            raise ModelError(f"duplicate decomposition for {key}")
        seen.add(key)


def davies_reduction(
    H: StabilizerHamiltonian,
    decomps: list[EigenoperatorDecomposition],
    beta: float,
    gamma0: float,
    include: tuple[str, ...] = ("lower", "raise", "translate"),
) -> LindbladGenerator:
    """System-only thermal generator built from the Fourier components.

    Jump set per component: a_k at rate gamma0, a_k^dag at rate
    gamma0*exp(-2*beta*eps_k), T at rate gamma0 for zero-frequency parts.
    gibbs_state(H, beta) is stationary; with full (site, sector) coverage the
    kernel is one-dimensional. ``include`` exists for negative controls.
    H and the jumps stay PauliSums, so lindblad assembles the generator from
    their coefficients and realizes no operator as a matrix.
    """
    decomps = tuple(decomps)
    _validate_decomps(H, decomps)
    covered = {(d.site, d.axis) for d in decomps}
    needed = {(j, a) for j in range(H.n_qubits) for a in ("x", "z")}
    if not needed <= covered:
        missing = sorted(needed - covered)[:4]
        raise ModelError(f"decompositions do not cover every (site, sector); missing {missing}")
    if gamma0 <= 0:
        raise ParameterError("gamma0 must be positive")
    _check_beta(beta)

    jumps = []
    for d in decomps:
        for ci, comp in enumerate(d.components):
            tag = f"{d.site}{d.axis}k{ci}"
            if comp.is_zero_mode:
                if "translate" in include:
                    jumps.append(JumpOp(comp.translation, gamma0, f"T{tag}"))
            else:
                if "lower" in include:
                    jumps.append(JumpOp(comp.lowering, gamma0, f"a{tag}"))
                if "raise" in include:
                    rate = gamma0 * float(np.exp(-2.0 * beta * comp.epsilon))
                    jumps.append(JumpOp(comp.raising, rate, f"ad{tag}"))

    return LindbladGenerator(
        n_levels=1 << H.n_qubits,
        H=H.as_sum(),
        jumps=tuple(jumps),
    )


# ---------------------------------------------------------------------------
# RWA validity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RwaProbeReport:
    times: np.ndarray
    divergence: np.ndarray  # trace distance lab vs RWA (transformed back)
    g: float
    gamma_minus: float
    omega_scale: float

    @property
    def max_divergence(self) -> float:
        return float(self.divergence.max(initial=0.0))

    def csv_rows(self):
        """(t, divergence) rows for serialize.write_csv."""
        return [(float(t), float(d)) for t, d in zip(self.times, self.divergence)]


def rwa_validity_probe(
    H: StabilizerHamiltonian,
    decomps: list[EigenoperatorDecomposition],
    beta: float,
    gamma_minus: float,
    g: float,
    t_max: float,
    n_points: int = 40,
) -> RwaProbeReport:
    """Evolve the maximally mixed system state, joined with the thermal
    ancillas, under the lab-frame and RWA generators and report the
    trace-distance divergence over time.

    The RWA evolution happens in the interaction picture; states are rotated
    back with U0 = exp(-i H0 t), H0 = H_sys - sum (omega/2) Sigma^z, before
    comparing.
    """
    from scipy.linalg import expm as dense_expm

    model, lab_gen = attach_ancillas(H, decomps, beta, gamma_minus, g=g)
    rwa_gen = rwa_generator(model)
    dim = model.dim
    if dim * dim > 1 << 20:
        raise CapacityError("probe needs a small composite (dense dual evolution)")

    sys_part = np.eye(1 << H.n_qubits, dtype=complex) / (1 << H.n_qubits)
    rho0 = DensityMatrix(model.join(sys_part, model.thermal_ancilla_state(beta)))

    H0 = model.bare_hamiltonian().to_dense()

    times = np.linspace(0.0, t_max, n_points)
    lab = trajectory(lab_gen, rho0, t_max, n_points)
    rwa = trajectory(rwa_gen, rho0, t_max, n_points)
    U0_dt = dense_expm(-1j * H0 * (times[1] - times[0]))
    U0_t = np.eye(dim, dtype=complex)
    div = np.zeros(n_points)
    for i, (m_lab, m_int) in enumerate(zip(lab, rwa)):
        if i > 0:
            U0_t = U0_dt @ U0_t
        div[i] = trace_distance(m_lab.mat, U0_t @ m_int.mat @ U0_t.conj().T)

    omega_scale = max((a.omega for a in model.ancillas), default=0.0)
    return RwaProbeReport(times=times, divergence=div, g=g,
                          gamma_minus=gamma_minus, omega_scale=omega_scale)
