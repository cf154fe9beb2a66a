"""Gate + reset schedules: exact Pauli exponentials and Trotterized Lindblad.

Gate set semantics
------------------
ROT1(axis, angle, qubit)                 exp(-i * angle/2 * sigma^axis)
CPHASE(q1, q2, angle=pi)                 diag(1, 1, 1, e^{i*angle})
MEASURE_Z(qubit, cbit)                   projective Z measurement -> cbit
COND_PULSE(qubit, axis, angle, cond)     ROT1 on branches whose classical bits
                                         match cond = ((bit, value), ...)
SAMPLE_BOLTZMANN_BIT(beta, omega, cbit)  classical bit, P(1)/P(0) = e^{-beta*omega}
THERMAL_RESET(qubit, beta, omega, relax) the exact one-qubit channel
                                         exp(D_thermal * tau); relax =
                                         1 - e^{-R tau} in (0, 1], relax = 1 is
                                         a full reset to diag(p0, p1)

Schedules are simulated with channel-sum semantics: measurements and random
bits expand into weighted branches (no sampling), and branches merge as soon
as no later gate reads their classical bits, so branch counts stay bounded.
Results are exact and deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ParameterError, ScheduleError
from .lindblad import DensityMatrix, LindbladGenerator
from .pauli import PauliString

ROT1 = "ROT1"
CPHASE = "CPHASE"
MEASURE_Z = "MEASURE_Z"
COND_PULSE = "COND_PULSE"
THERMAL_RESET = "THERMAL_RESET"
SAMPLE_BOLTZMANN_BIT = "SAMPLE_BOLTZMANN_BIT"

_KINDS = {ROT1, CPHASE, MEASURE_Z, COND_PULSE, THERMAL_RESET, SAMPLE_BOLTZMANN_BIT}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubit: int | None = None
    qubit2: int | None = None
    axis: str | None = None
    angle: float | None = None
    cbit: int | None = None
    condition: tuple[tuple[int, int], ...] | None = None
    beta: float | None = None
    omega: float | None = None
    relax: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScheduleError(f"unknown gate kind {self.kind!r}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ScheduleError("gate angle must be finite")
        if self.condition is not None:
            object.__setattr__(self, "condition",
                               tuple((int(b), int(v)) for b, v in self.condition))

    def to_json(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if self.condition is not None:
            d["condition"] = [list(p) for p in self.condition]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Gate":
        d = dict(d)
        if d.get("condition") is not None:
            d["condition"] = tuple((int(a), int(b)) for a, b in d["condition"])
        return cls(**d)


@dataclass(frozen=True)
class GateSchedule:
    """``gates`` is one segment, applied ``steps`` times in order."""

    n_qubits: int
    gates: tuple[Gate, ...]
    n_classical: int = 0
    total_time: float = 0.0
    steps: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise ScheduleError("step count must be >= 1")
        written: set[int] = set()
        for g in self.gates:
            for q in (g.qubit, g.qubit2):
                if q is not None and not 0 <= q < self.n_qubits:
                    raise ScheduleError(f"qubit {q} out of range in {g.kind}")
            if g.kind in (MEASURE_Z, SAMPLE_BOLTZMANN_BIT):
                if g.cbit is None or not 0 <= g.cbit < max(self.n_classical, 1):
                    raise ScheduleError(f"classical bit {g.cbit} out of range")
                written.add(g.cbit)
            if g.kind == COND_PULSE:
                if not g.condition:
                    raise ScheduleError("COND_PULSE needs a condition")
                for bit, _val in g.condition:
                    if bit not in written:
                        raise ScheduleError(
                            f"COND_PULSE reads classical bit {bit} before it is written"
                        )

    def __len__(self) -> int:
        """Number of gates applied: the segment length times ``steps``."""
        return len(self.gates) * self.steps

    def to_jsonl(self) -> str:
        header = {
            "n_qubits": self.n_qubits,
            "n_classical": self.n_classical,
            "total_time": self.total_time,
            "steps": self.steps,
        }
        lines = [json.dumps({"header": header})]
        lines += [json.dumps(g.to_json()) for g in self.gates]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "GateSchedule":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ScheduleError("empty schedule file")
        first = json.loads(lines[0])
        if "header" not in first:
            raise ScheduleError("schedule file is missing its header line")
        h = first["header"]
        gates = tuple(Gate.from_json(json.loads(ln)) for ln in lines[1:])
        return cls(int(h["n_qubits"]), gates, int(h.get("n_classical", 0)),
                   float(h.get("total_time", 0.0)), int(h.get("steps", 1)))


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _h_gates(q: int) -> list[Gate]:
    # Hadamard up to global phase: Ry(pi/2) after Rz(pi)
    return [Gate(ROT1, qubit=q, axis="z", angle=math.pi),
            Gate(ROT1, qubit=q, axis="y", angle=math.pi / 2)]


def _cnot_gates(control: int, target: int) -> list[Gate]:
    return (_h_gates(target)
            + [Gate(CPHASE, qubit=control, qubit2=target, angle=math.pi)]
            + _h_gates(target))


def compile_pauli_exponential(p: PauliString, phi: float) -> GateSchedule:
    """Exact schedule for exp(-i*phi*P) up to global phase, weight(P) <= 4.

    X/Y support is rotated into the Z basis by one-qubit conjugation, the
    parity accumulates along a CNOT ladder (CNOT = CPHASE dressed with
    one-qubit rotations), one z-rotation by 2*phi lands on the last support
    qubit, and the ladder is uncomputed.
    """
    if p.weight < 1:
        raise ParameterError("P must be non-identity (weight >= 1)")
    if p.weight > 4:
        raise ParameterError(
            f"weight {p.weight} > 4 is unsupported (the circuit construction is 4-body)"
        )
    n_y = bin(p.x & p.z).count("1")
    display_k = (p.k - n_y) % 4
    if display_k == 0:
        sign = 1.0
    elif display_k == 2:
        sign = -1.0
    else:
        raise ParameterError(f"P must be Hermitian, got {p.label!r}")

    support = list(p.support)
    basis_in: list[Gate] = []
    basis_out: list[Gate] = []
    for q in support:
        letter = p.letter(q)
        # realized block is V . exp(-i phi Z...) . V^dag with V Z V^dag = letter,
        # so the first gate applied is V^dag and the last is V
        if letter == "X":
            # V = Ry(pi/2):  Ry(pi/2) Z Ry(pi/2)^dag = X
            basis_in.append(Gate(ROT1, qubit=q, axis="y", angle=-math.pi / 2))
            basis_out.append(Gate(ROT1, qubit=q, axis="y", angle=math.pi / 2))
        elif letter == "Y":
            # V = Rx(-pi/2):  Rx(-pi/2) Z Rx(-pi/2)^dag = Y
            basis_in.append(Gate(ROT1, qubit=q, axis="x", angle=math.pi / 2))
            basis_out.append(Gate(ROT1, qubit=q, axis="x", angle=-math.pi / 2))

    ladder: list[Gate] = []
    for a, b in zip(support, support[1:]):
        ladder += _cnot_gates(a, b)
    rot = [Gate(ROT1, qubit=support[-1], axis="z", angle=2.0 * phi * sign)]
    unladder: list[Gate] = []
    for a, b in reversed(list(zip(support, support[1:]))):
        unladder += _cnot_gates(a, b)

    gates = tuple(basis_in + ladder + rot + unladder + basis_out)
    return GateSchedule(p.n, gates, 0, 0.0, 1)


def reset_channel(beta: float, omega: float, qubit: int = 0, n_qubits: int = 1,
                  implementation: str = "direct") -> GateSchedule:
    """Thermal reset of one qubit; output diag(p0, p1) with p1/p0 = e^{-beta*omega}.

    implementation "direct" is the THERMAL_RESET primitive; "measured" is
    MEASURE_Z + SAMPLE_BOLTZMANN_BIT + conditional pi-pulses on classical
    bits 0 (measured) and 1 (sampled). The two have identical channel
    semantics (equal Choi matrices).
    """
    if not (math.isfinite(beta) and math.isfinite(omega)):
        raise ParameterError("beta and omega must be finite")
    if beta * omega < 0:
        raise ParameterError("negative temperature requested (beta*omega < 0)")
    if implementation == "direct":
        gates = (Gate(THERMAL_RESET, qubit=qubit, beta=beta, omega=omega, relax=1.0),)
        return GateSchedule(n_qubits, gates, 0, 0.0, 1)
    if implementation != "measured":
        raise ParameterError(f"unknown implementation {implementation!r}")
    m_bit, b_bit = 0, 1
    gates = (
        Gate(MEASURE_Z, qubit=qubit, cbit=m_bit),
        Gate(SAMPLE_BOLTZMANN_BIT, beta=beta, omega=omega, cbit=b_bit),
        # flip the qubit exactly when the measured bit differs from the target
        Gate(COND_PULSE, qubit=qubit, axis="x", angle=math.pi,
             condition=((m_bit, 0), (b_bit, 1))),
        Gate(COND_PULSE, qubit=qubit, axis="x", angle=math.pi,
             condition=((m_bit, 1), (b_bit, 0))),
    )
    return GateSchedule(n_qubits, gates, 2, 0.0, 1)


def trotterize(g: LindbladGenerator, t: float, n_steps: int,
               pin_resets: bool = False) -> GateSchedule:
    """First-order product schedule approximating exp(L*t).

    The schedule stores one step and repeats it ``n_steps`` times. Per step: one exact exponential per Hamiltonian Pauli term with angle
    coeff*dt, then one thermal-relaxation channel per reset-tagged ancilla
    qubit. By default the relaxation strength equals the exact exp(D*dt) for
    that ancilla's dissipator pair, so the schedule converges to exp(L*t) at
    first order in 1/N; pin_resets=True applies full resets instead (the
    arbitrarily-strong-dissipation limit: same steady state, different
    transient).
    """
    if t < 0:
        raise ParameterError("t must be nonnegative")
    if n_steps < 1:
        raise ParameterError("need at least one Trotter step")
    n_qubits = int(round(math.log2(g.n_levels)))
    if (1 << n_qubits) != g.n_levels:
        raise ParameterError("generator dimension is not a power of two")
    if g.hamiltonian_terms is None:
        raise ParameterError("generator carries no symbolic Hamiltonian term list")

    resets: dict[int, dict] = {}
    for j in g.jumps:
        if j.reset is None:
            if j.rate > 0:
                raise ParameterError(
                    f"dissipator {j.label!r} is not a single-ancilla thermal reset"
                )
            continue
        q = j.reset["qubit"]
        slot = resets.setdefault(q, {"beta": j.reset["beta"], "omega": j.reset["omega"],
                                     "gamma_minus": 0.0, "gamma_plus": 0.0})
        slot["gamma_" + j.reset["direction"]] = j.rate

    if t == 0:
        return GateSchedule(n_qubits, (), 0, 0.0, 1)

    dt = t / n_steps
    step_gates: list[Gate] = []
    for coeff, pstr in g.hamiltonian_terms:
        if abs(coeff) < 1e-15 or pstr.weight == 0:
            continue
        step_gates += list(compile_pauli_exponential(pstr, coeff * dt).gates)
    for q in sorted(resets):
        r = resets[q]
        rate_sum = r["gamma_minus"] + r["gamma_plus"]
        if rate_sum == 0:
            continue
        # populations relax at R = 2*(gamma- + gamma+) under the factor-2 dissipator
        relax = 1.0 if pin_resets else 1.0 - math.exp(-2.0 * rate_sum * dt)
        step_gates.append(Gate(THERMAL_RESET, qubit=q, beta=r["beta"],
                               omega=r["omega"], relax=relax))

    return GateSchedule(n_qubits, tuple(step_gates), 0, t, n_steps)


# ---------------------------------------------------------------------------
# simulation (channel-sum semantics)
# ---------------------------------------------------------------------------

def _rot1_matrix(axis: str, angle: float) -> np.ndarray:
    paulis = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
              "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
              "z": np.array([[1, 0], [0, -1]], dtype=complex)}
    s = paulis[axis.lower()]
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * s


def _embed_unitary(u: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a k-qubit operator (little-endian over ``qubits``) into n qubits."""
    k = len(qubits)
    dim = 1 << n
    rest = [j for j in range(n) if j not in qubits]
    full = np.zeros((dim, dim), dtype=complex)
    rest_patterns = []
    for rest_bits in range(1 << len(rest)):
        extra = 0
        for b, q in enumerate(rest):
            extra |= ((rest_bits >> b) & 1) << q
        rest_patterns.append(extra)
    rest_patterns = np.array(rest_patterns, dtype=np.int64)
    for idx_in in range(1 << k):
        base_in = 0
        for b, q in enumerate(qubits):
            base_in |= ((idx_in >> b) & 1) << q
        for idx_out in range(1 << k):
            amp = u[idx_out, idx_in]
            if amp == 0:
                continue
            base_out = 0
            for b, q in enumerate(qubits):
                base_out |= ((idx_out >> b) & 1) << q
            full[base_out + rest_patterns, base_in + rest_patterns] += amp
    return full


def _thermal_kraus(beta: float, omega: float, relax: float) -> list[np.ndarray]:
    """Kraus set of exp(D_thermal * tau): generalized amplitude damping.

    Populations mix toward (p0, p1) with weight relax = 1 - e^{-R tau};
    coherences shrink by sqrt(1 - relax) = e^{-R tau / 2}.
    """
    if not 0.0 <= relax <= 1.0:
        raise ScheduleError(f"relax must lie in [0, 1], got {relax}")
    w = math.exp(-beta * omega)
    p0 = 1.0 / (1.0 + w)
    ge = relax
    k0 = math.sqrt(p0) * np.array([[1, 0], [0, math.sqrt(1 - ge)]], dtype=complex)
    k1 = math.sqrt(p0) * np.array([[0, math.sqrt(ge)], [0, 0]], dtype=complex)
    k2 = math.sqrt(1 - p0) * np.array([[math.sqrt(1 - ge), 0], [0, 1]], dtype=complex)
    k3 = math.sqrt(1 - p0) * np.array([[0, 0], [math.sqrt(ge), 0]], dtype=complex)
    return [k0, k1, k2, k3]


class _ScheduleRunner:
    """Executes a schedule on arbitrary matrices (linear channel semantics)."""

    def __init__(self, schedule: GateSchedule):
        self.schedule = schedule
        self.n = schedule.n_qubits
        self.dim = 1 << self.n
        self._unitary_cache: dict = {}
        self._kraus_cache: dict = {}
        self._proj_cache: dict = {}
        self._live_after = self._liveness(schedule.gates)

    @staticmethod
    def _liveness(gates: tuple[Gate, ...]) -> list[frozenset[int]]:
        live: set[int] = set()
        out: list[frozenset[int]] = [frozenset()] * len(gates)
        for i in range(len(gates) - 1, -1, -1):
            out[i] = frozenset(live)
            g = gates[i]
            if g.kind in (MEASURE_Z, SAMPLE_BOLTZMANN_BIT):
                live.discard(g.cbit)
            if g.kind == COND_PULSE:
                live |= {b for b, _ in g.condition}
        return out

    def _gate_unitary(self, g: Gate) -> np.ndarray:
        """Embedded unitary of a ROT1, CPHASE or COND_PULSE gate, cached per key."""
        if g.kind == CPHASE:
            angle = math.pi if g.angle is None else g.angle
            key = (CPHASE, g.qubit, g.qubit2, angle)
        else:
            key = (ROT1, g.qubit, g.axis, g.angle)
        if key not in self._unitary_cache:
            if g.kind == CPHASE:
                small = np.diag([1, 1, 1, np.exp(1j * angle)]).astype(complex)
                self._unitary_cache[key] = _embed_unitary(small, (g.qubit, g.qubit2), self.n)
            else:
                self._unitary_cache[key] = _embed_unitary(
                    _rot1_matrix(g.axis, g.angle), (g.qubit,), self.n)
        return self._unitary_cache[key]

    def _kraus(self, g: Gate):
        key = (g.qubit, g.beta, g.omega, g.relax)
        if key not in self._kraus_cache:
            relax = 1.0 if g.relax is None else g.relax
            self._kraus_cache[key] = [
                _embed_unitary(k, (g.qubit,), self.n)
                for k in _thermal_kraus(g.beta, g.omega, relax)
            ]
        return self._kraus_cache[key]

    def _rows(self, q: int):
        if q not in self._proj_cache:
            idx = np.arange(self.dim)
            mask0 = ((idx >> q) & 1) == 0
            self._proj_cache[q] = (np.where(mask0)[0], np.where(~mask0)[0])
        return self._proj_cache[q]

    def run(self, mat: np.ndarray) -> np.ndarray:
        """Apply the segment ``steps`` times. A bit is written before it is read
        within the segment, so no branch bit is live across a segment boundary."""
        out = np.array(mat, dtype=complex)
        for _ in range(self.schedule.steps):
            out = self._run_segment(out)
        return out

    def _run_segment(self, mat: np.ndarray) -> np.ndarray:
        branches: dict[tuple[tuple[int, int], ...], np.ndarray] = {(): mat}
        for i, g in enumerate(self.schedule.gates):
            keep = self._live_after[i]
            new: dict[tuple[tuple[int, int], ...], np.ndarray] = {}

            def emit(bits_dict: dict[int, int], m: np.ndarray):
                key = tuple(sorted((b, v) for b, v in bits_dict.items() if b in keep))
                if key in new:
                    new[key] = new[key] + m
                else:
                    new[key] = m

            if g.kind in (ROT1, CPHASE):
                U = self._gate_unitary(g)
                for bits, m in branches.items():
                    emit(dict(bits), U @ m @ U.conj().T)
            elif g.kind == COND_PULSE:
                U = self._gate_unitary(g)
                cond = dict(g.condition)
                for bits, m in branches.items():
                    assign = dict(bits)
                    if all(assign.get(b) == v for b, v in cond.items()):
                        emit(assign, U @ m @ U.conj().T)
                    else:
                        emit(assign, m)
            elif g.kind == MEASURE_Z:
                rows0, rows1 = self._rows(g.qubit)
                for bits, m in branches.items():
                    assign = dict(bits)
                    for outcome, rows in ((0, rows0), (1, rows1)):
                        sub = np.zeros_like(m)
                        sub[np.ix_(rows, rows)] = m[np.ix_(rows, rows)]
                        assign[g.cbit] = outcome
                        emit(assign, sub)
            elif g.kind == SAMPLE_BOLTZMANN_BIT:
                w = math.exp(-g.beta * g.omega)
                p1 = w / (1 + w)
                for bits, m in branches.items():
                    assign = dict(bits)
                    for outcome, p in ((0, 1 - p1), (1, p1)):
                        assign[g.cbit] = outcome
                        emit(assign, p * m)
            elif g.kind == THERMAL_RESET:
                kraus = self._kraus(g)
                for bits, m in branches.items():
                    out = np.zeros_like(m)
                    for K in kraus:
                        out += K @ m @ K.conj().T
                    emit(dict(bits), out)
            else:
                raise ScheduleError(f"unhandled gate kind {g.kind}")
            branches = new
        return sum(branches.values())


def simulate_schedule(schedule: GateSchedule, rho0: DensityMatrix | np.ndarray) -> DensityMatrix:
    """Run the schedule on a density matrix with exact channel semantics."""
    rho = rho0.mat if isinstance(rho0, DensityMatrix) else np.asarray(rho0, dtype=complex)
    dim = 1 << schedule.n_qubits
    if rho.shape != (dim, dim):
        raise ScheduleError(
            f"state dimension {rho.shape[0]} does not match {schedule.n_qubits} qubits"
        )
    out = _ScheduleRunner(schedule).run(rho)
    out = (out + out.conj().T) / 2
    tr = np.trace(out).real
    if abs(tr - 1.0) > 1e-10:
        raise ScheduleError(f"schedule did not preserve trace (drift {tr - 1.0:.2e})")
    return DensityMatrix(out / tr)


def schedule_unitary(schedule: GateSchedule) -> np.ndarray:
    """Dense unitary of a measurement-free schedule, in application order."""
    dim = 1 << schedule.n_qubits
    runner = _ScheduleRunner(schedule)
    U = np.eye(dim, dtype=complex)
    for g in schedule.gates:
        if g.kind not in (ROT1, CPHASE):
            raise ScheduleError("schedule_unitary needs a unitary-only schedule")
        U = runner._gate_unitary(g) @ U
    return np.linalg.matrix_power(U, schedule.steps)


def schedule_superoperator(schedule: GateSchedule) -> np.ndarray:
    """Dense column-stacking superoperator of the schedule's channel: the
    segment's superoperator raised to the step count."""
    S = _superoperator_by_columns(replace(schedule, steps=1))
    return np.linalg.matrix_power(S, schedule.steps)


def _superoperator_by_columns(schedule: GateSchedule) -> np.ndarray:
    dim = 1 << schedule.n_qubits
    runner = _ScheduleRunner(schedule)
    S = np.zeros((dim * dim, dim * dim), dtype=complex)
    basis = np.zeros((dim, dim), dtype=complex)
    for col in range(dim * dim):
        i, j = col % dim, col // dim
        basis[i, j] = 1.0
        S[:, col] = runner.run(basis).reshape(-1, order="F")
        basis[i, j] = 0.0
    return S


def choi_matrix(schedule: GateSchedule) -> np.ndarray:
    """Choi matrix sum_{ij} E(|i><j|) (x) |i><j| of the schedule's channel."""
    dim = 1 << schedule.n_qubits
    S = schedule_superoperator(schedule)
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    eij = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            col = i + dim * j
            block = S[:, col].reshape((dim, dim), order="F")
            eij[i, j] = 1.0
            choi += np.kron(block, eij)
            eij[i, j] = 0.0
    return choi
