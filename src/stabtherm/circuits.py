"""Gate + reset schedules: exact Pauli exponentials and Trotterized Lindblad.

Gate set semantics
------------------
ROT1(axis, angle, qubit)                 exp(-i * angle/2 * sigma^axis)
CPHASE(q1, q2, angle=pi)                 diag(1, 1, 1, e^{i*angle})
MEASURE_Z(qubit, cbit)                   projective Z measurement -> cbit
COND_PULSE(qubit, axis, angle, cond)     ROT1 on branches whose classical bits
                                         match cond = ((bit, value), ...), each
                                         bit named once, each value 0 or 1
SAMPLE_BOLTZMANN_BIT(beta, omega, cbit)  classical bit, P(1)/P(0) = e^{-beta*omega}
THERMAL_RESET(qubit, beta, omega, relax) the exact one-qubit channel
                                         exp(D_thermal * tau); relax =
                                         1 - e^{-R tau} in [0, 1], relax = 1 is
                                         a full reset to diag(p0, p1)

beta and omega are finite with beta*omega >= 0 (no negative temperatures).

Schedules are simulated with channel-sum semantics: measurements and random
bits expand into weighted branches (no sampling), and branches merge as soon
as no later gate reads their classical bits. A bit is written before it is
read inside a segment, so every bit lives and dies inside a closed classical
region: from a MEASURE_Z or SAMPLE_BOLTZMANN_BIT to the first gate after
which no bit is live. Its branches have merged again by its end, so a region
is one fixed channel on the qubits it touches. Results are exact and
deterministic.

A segment is lowered once, when its simulation starts. Each maximal run of
consecutive ROT1/CPHASE gates is fused into one unitary on the sorted union
of the qubits it touches (a run on all n qubits gives a 2^n x 2^n matrix, no
larger than the state it acts on); every other gate becomes its outcomes
(classical bit value, weight, local maps). A density matrix is a tensor of
2n qubit axes, row qubit q at q + n and column qubit q at q, and every
outcome is a short sequence of local maps on that doubled register: a
unitary or projector u on qubits Q is u on Q + n then conj(u) on Q, and a
Kraus channel (THERMAL_RESET) is one Liouville map sum_k K (x) conj(K) on
Q and Q + n. Each closed region on qubits Q is then replaced by one such
Liouville map, found by running the region's branches once on the 4^|Q|
basis matrices of Q, when that 4^|Q| x 4^|Q| map is no larger than the
state (16^|Q| <= 4^n, the rule for fused runs); a wider region keeps its
gates and branches at run time. A measured reset is thus the same 4 x 4 map
as THERMAL_RESET on two or more qubits. One kernel, ``_apply_local``,
applies every map, and one loop, ``_ScheduleRunner._run_segment``, runs
branches both when lowering a region and at run time. The whole-channel
views run one segment on the stack of all d^2 basis matrices.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ParameterError, ScheduleError
from .lindblad import DensityMatrix, LindbladGenerator, _check_temperature
from .pauli import PauliString
from .serialize import strict_json

ROT1 = "ROT1"
CPHASE = "CPHASE"
MEASURE_Z = "MEASURE_Z"
COND_PULSE = "COND_PULSE"
THERMAL_RESET = "THERMAL_RESET"
SAMPLE_BOLTZMANN_BIT = "SAMPLE_BOLTZMANN_BIT"

# the fields each gate kind needs
_NEEDS = {
    ROT1: ("qubit", "axis", "angle"),
    CPHASE: ("qubit", "qubit2"),
    MEASURE_Z: ("qubit", "cbit"),
    COND_PULSE: ("qubit", "axis", "angle", "condition"),
    SAMPLE_BOLTZMANN_BIT: ("beta", "omega", "cbit"),
    THERMAL_RESET: ("qubit", "beta", "omega"),
}
_INTEGER_FIELDS = ("qubit", "qubit2", "cbit")
_HEADER_KEYS = {"n_qubits", "n_classical", "total_time", "steps"}


def _number(where: str, v, integral: bool = False):
    """``v`` checked as a JSON number; with ``integral`` it must be whole and
    comes back as an int (integral floats pass, as JSON Schema's integer allows)."""
    expected = "an integer" if integral else "a number"
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or (integral and not float(v).is_integer())):
        raise ScheduleError(f"{where} must be {expected}, got {v!r}")
    return int(v) if integral else float(v)


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
        if self.kind not in _NEEDS:
            raise ScheduleError(f"unknown gate kind {self.kind!r}")
        missing = [f for f in _NEEDS[self.kind] if getattr(self, f) is None]
        if missing:
            raise ScheduleError(f"{self.kind} needs {', '.join(missing)}")
        if self.axis is not None and self.axis not in ("x", "y", "z"):
            raise ScheduleError(f"axis must be x, y or z, got {self.axis!r}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ScheduleError("gate angle must be finite")
        if self.relax is not None and not 0.0 <= self.relax <= 1.0:
            raise ScheduleError(f"relax must lie in [0, 1], got {self.relax}")
        if self.beta is not None and self.omega is not None:
            _check_temperature(self.beta, self.omega, ScheduleError)
        if self.condition is not None:
            cond = tuple((int(b), int(v)) for b, v in self.condition)
            if any(v not in (0, 1) for _, v in cond):
                raise ScheduleError(f"condition values must be 0 or 1, got {cond}")
            if len({b for b, _ in cond}) != len(cond):
                raise ScheduleError(f"condition names a classical bit twice: {cond}")
            object.__setattr__(self, "condition", cond)

    def to_json(self) -> dict:
        d = {k: v for k, v in asdict(self).items() if v is not None}
        if self.condition is not None:
            d["condition"] = [list(p) for p in self.condition]
        return d

    @classmethod
    def from_json(cls, d: dict) -> "Gate":
        if not isinstance(d, dict) or "kind" not in d or set(d) - {f.name for f in fields(cls)}:
            raise ScheduleError(f"a gate line is an object with a kind and Gate fields, got {d!r}")
        d = dict(d)
        for key in _INTEGER_FIELDS + ("angle", "beta", "omega", "relax"):
            if d.get(key) is not None:
                d[key] = _number(key, d[key], integral=key in _INTEGER_FIELDS)
        cond = d.get("condition")
        if cond is not None:
            if not (isinstance(cond, list)
                    and all(isinstance(p, list) and len(p) == 2 for p in cond)):
                raise ScheduleError(f"condition must be a list of [bit, value] pairs, got {cond!r}")
            d["condition"] = tuple((_number("condition", a, True), _number("condition", b, True))
                                   for a, b in cond)
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
        if self.n_qubits < 1 or self.n_classical < 0 or self.steps < 1 or self.total_time < 0:
            raise ScheduleError("a schedule needs n_qubits >= 1, n_classical >= 0, "
                                "steps >= 1 and total_time >= 0")
        written: set[int] = set()
        for g in self.gates:
            for q in (g.qubit, g.qubit2):
                if q is not None and not 0 <= q < self.n_qubits:
                    raise ScheduleError(f"qubit {q} out of range in {g.kind}")
            if g.kind == CPHASE and g.qubit == g.qubit2:
                raise ScheduleError(f"CPHASE needs two distinct qubits, got {g.qubit} twice")
            if g.kind in (MEASURE_Z, SAMPLE_BOLTZMANN_BIT):
                if not 0 <= g.cbit < max(self.n_classical, 1):
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
        first = strict_json(lines[0], ScheduleError)
        h = first.get("header") if isinstance(first, dict) else None
        if not isinstance(h, dict):
            raise ScheduleError("schedule file is missing its header line")
        if "n_qubits" not in h or set(h) - _HEADER_KEYS:
            raise ScheduleError(f"a header has n_qubits and only {sorted(_HEADER_KEYS)}, "
                                f"got {sorted(h)}")
        gates = tuple(Gate.from_json(strict_json(ln, ScheduleError)) for ln in lines[1:])
        return cls(_number("n_qubits", h["n_qubits"], True), gates,
                   _number("n_classical", h.get("n_classical", 0), True),
                   _number("total_time", h.get("total_time", 0.0)),
                   _number("steps", h.get("steps", 1), True))


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
    _check_temperature(beta, omega, ParameterError)
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
    return math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * paulis[axis]


def _thermal_kraus(beta: float, omega: float, relax: float) -> list[np.ndarray]:
    """Kraus set of exp(D_thermal * tau): generalized amplitude damping.

    Populations mix toward (p0, p1) with weight relax = 1 - e^{-R tau};
    coherences shrink by sqrt(1 - relax) = e^{-R tau / 2}.
    """
    w = math.exp(-beta * omega)
    p0 = 1.0 / (1.0 + w)
    ge = relax
    k0 = math.sqrt(p0) * np.array([[1, 0], [0, math.sqrt(1 - ge)]], dtype=complex)
    k1 = math.sqrt(p0) * np.array([[0, math.sqrt(ge)], [0, 0]], dtype=complex)
    k2 = math.sqrt(1 - p0) * np.array([[math.sqrt(1 - ge), 0], [0, 1]], dtype=complex)
    k3 = math.sqrt(1 - p0) * np.array([[0, 0], [math.sqrt(ge), 0]], dtype=complex)
    return [k0, k1, k2, k3]


def _apply_local(op: np.ndarray, qubits: tuple[int, ...], t: np.ndarray, n: int) -> np.ndarray:
    """Contract a k-qubit matrix (little-endian over ``qubits``) onto the axes
    of those qubits in a tensor of shape (2,)*n + rest; trailing axes ride along.

    Qubit q is axis n-1-q (row-major order of a little-endian index), so a
    density-matrix tensor (2,)*2n + rest is a 2n-qubit register whose qubit
    q + n is the row axis of qubit q and whose qubit q is its column axis.
    """
    axes = [n - 1 - q for q in reversed(qubits)]
    perm = axes + [a for a in range(t.ndim) if a not in axes]
    out = op @ t.transpose(perm).reshape(len(op), -1)
    return out.reshape([t.shape[a] for a in perm]).transpose(np.argsort(perm))


def _gate_unitary(g: Gate) -> tuple[tuple[int, ...], np.ndarray]:
    """Qubits and local matrix of a ROT1 or CPHASE gate."""
    if g.kind == CPHASE:
        angle = math.pi if g.angle is None else g.angle
        return (g.qubit, g.qubit2), np.diag([1, 1, 1, np.exp(1j * angle)])
    return (g.qubit,), _rot1_matrix(g.axis, g.angle)


def _fuse(run) -> tuple[tuple[int, ...], np.ndarray]:
    """One unitary for a run of ROT1/CPHASE gates, in application order, on
    the sorted union of the qubits they touch."""
    qubits = tuple(sorted({q for g in run for q in (g.qubit, g.qubit2) if q is not None}))
    local = {q: i for i, q in enumerate(qubits)}
    k = len(qubits)
    U = np.eye(1 << k, dtype=complex).reshape((2,) * k + (1 << k,))
    for g in run:
        gq, u = _gate_unitary(g)
        U = _apply_local(u, tuple(local[q] for q in gq), U, k)
    return qubits, U.reshape(1 << k, 1 << k)


def _conjugation_maps(u: np.ndarray, qubits: tuple[int, ...], n: int) -> tuple:
    """u rho u^dag as local maps on the doubled register: u on the row
    qubits q + n, conj(u) on the column qubits q."""
    return ((u, tuple(q + n for q in qubits)), (u.conj(), qubits))


def _channel_maps(kraus, qubits: tuple[int, ...], n: int) -> tuple:
    """sum_k K rho K^dag as one Liouville map sum_k K (x) conj(K) on the
    column qubits q (low bits) and the row qubits q + n (high bits)."""
    return ((sum(np.kron(k, k.conj()) for k in kraus), qubits + tuple(q + n for q in qubits)),)


def _lower(g: Gate, n: int) -> tuple:
    """Outcomes of a gate outside a unitary run: (value written to ``g.cbit``
    or None, weight, local maps on the doubled register)."""
    if g.kind == COND_PULSE:
        return ((None, 1.0, _conjugation_maps(_rot1_matrix(g.axis, g.angle), (g.qubit,), n)),)
    if g.kind == MEASURE_Z:
        return tuple((v, 1.0, _conjugation_maps(np.diag(np.eye(2)[v]), (g.qubit,), n))
                     for v in (0, 1))
    if g.kind == SAMPLE_BOLTZMANN_BIT:
        w = math.exp(-g.beta * g.omega)
        p1 = w / (1 + w)
        return ((0, 1 - p1, ()), (1, p1, ()))
    relax = 1.0 if g.relax is None else g.relax
    return ((None, 1.0, _channel_maps(_thermal_kraus(g.beta, g.omega, relax), (g.qubit,), n)),)


def _local_maps(maps, local: dict[int, int], n: int) -> tuple:
    """Maps on the doubled n-qubit register relabelled to the doubled register
    of the qubits in ``local`` (qubit q to local[q], its row q + n to
    local[q] + len(local))."""
    k = len(local)
    return tuple((op, tuple(local[q % n] + k * (q >= n) for q in qs)) for op, qs in maps)


class _ScheduleRunner:
    """Executes a schedule on a stack of matrices (linear channel semantics).

    The segment is lowered once: each maximal run of ROT1/CPHASE gates to one
    fused unitary (``_fuse``), every other gate to its outcomes (``_lower``).
    Each entry of the plan is (the gate, or None for a run or a closed
    region; its outcomes; the classical bits live after it). Every closed
    classical region small enough is then replaced by its one Liouville map
    (``_close_regions``).
    """

    def __init__(self, schedule: GateSchedule):
        self.schedule = schedule
        self.n = n = schedule.n_qubits
        lowered: list[tuple[Gate | None, tuple]] = []
        for unitary, run in itertools.groupby(schedule.gates, lambda g: g.kind in (ROT1, CPHASE)):
            if unitary:
                qubits, u = _fuse(tuple(run))
                lowered.append((None, ((None, 1.0, _conjugation_maps(u, qubits, n)),)))
            else:
                lowered += [(g, _lower(g, n)) for g in run]
        plan = [(g, outcomes, keep) for (g, outcomes), keep
                in zip(lowered, self._liveness([g for g, _ in lowered]))]
        self._plan = self._close_regions(plan, n)

    @staticmethod
    def _liveness(gates: list[Gate | None]) -> list[frozenset[int]]:
        live: set[int] = set()
        out: list[frozenset[int]] = [frozenset()] * len(gates)
        for i in range(len(gates) - 1, -1, -1):
            out[i] = frozenset(live)
            g = gates[i]
            if g is None:
                continue
            if g.kind in (MEASURE_Z, SAMPLE_BOLTZMANN_BIT):
                live.discard(g.cbit)
            if g.kind == COND_PULSE:
                live |= {b for b, _ in g.condition}
        return out

    @classmethod
    def _close_regions(cls, plan: list, n: int) -> list:
        """The plan with each closed classical region as one map.

        A region runs from a MEASURE_Z or SAMPLE_BOLTZMANN_BIT to the first
        entry after which no bit is live; its branches have merged there, so
        it is one fixed channel on the qubits Q it touches. That channel is
        the region run once on the 4^|Q| local basis matrices, a Liouville map
        on Q (columns) and Q + n (rows). A map larger than the state
        (16^|Q| > 4^n) is not formed; such a region keeps its entries.
        """
        out: list = []
        i = 0
        while i < len(plan):
            g = plan[i][0]
            if g is None or g.kind not in (MEASURE_Z, SAMPLE_BOLTZMANN_BIT):
                out.append(plan[i])
                i += 1
                continue
            end = next(j for j in range(i, len(plan)) if not plan[j][2])
            region, i = plan[i:end + 1], end + 1
            qubits = sorted({q % n for _, outcomes, _ in region
                             for _, _, maps in outcomes for _, qs in maps for q in qs})
            k = len(qubits)
            if k == 0:  # a channel on no qubit: the weights of its outcomes sum to 1
                continue
            if 2 * k > n:
                out += region
                continue
            local = {q: j for j, q in enumerate(qubits)}
            local_plan = [(g, tuple((v, w, _local_maps(maps, local, n)) for v, w, maps in outcomes),
                           keep) for g, outcomes, keep in region]
            basis = np.eye(1 << 2 * k, dtype=complex).reshape(1 << k, 1 << k, 1 << 2 * k)
            S = cls._run_segment(local_plan, k, basis).reshape(1 << 2 * k, 1 << 2 * k)
            maps = ((S, tuple(qubits) + tuple(q + n for q in qubits)),)
            out.append((None, ((None, 1.0, maps),), frozenset()))
        return out

    def run(self, mat: np.ndarray) -> np.ndarray:
        """Apply the segment ``steps`` times to ``mat`` of shape (d, d) + rest,
        each trailing index an independent input. A bit is written before it
        is read within the segment, so no branch bit is live across a segment
        boundary."""
        out = np.array(mat, dtype=complex)
        for _ in range(self.schedule.steps):
            out = self._run_segment(self._plan, self.n, out)
        return out

    @staticmethod
    def _run_segment(plan: list, n: int, mat: np.ndarray) -> np.ndarray:
        """One pass of ``plan`` over ``mat`` of shape (2^n, 2^n) + rest."""
        n2 = 2 * n
        branches: dict[tuple[tuple[int, int], ...], np.ndarray] = {
            (): mat.reshape((2,) * n2 + mat.shape[2:])}
        for g, outcomes, keep in plan:
            new: dict[tuple[tuple[int, int], ...], np.ndarray] = {}

            def emit(bits_dict: dict[int, int], m: np.ndarray):
                key = tuple(sorted((b, v) for b, v in bits_dict.items() if b in keep))
                if key in new:
                    new[key] = new[key] + m
                else:
                    new[key] = m

            for bits, m in branches.items():
                assign = dict(bits)
                if g is not None and g.kind == COND_PULSE and not all(
                        assign.get(b) == v for b, v in g.condition):
                    emit(assign, m)
                    continue
                for value, weight, maps in outcomes:
                    if value is not None:
                        assign[g.cbit] = value
                    out = m
                    for op, qubits in maps:
                        out = _apply_local(op, qubits, out, n2)
                    emit(assign, out if weight == 1.0 else weight * out)
            branches = new
        return sum(branches.values()).reshape(mat.shape)


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
    if any(g.kind not in (ROT1, CPHASE) for g in schedule.gates):
        raise ScheduleError("schedule_unitary needs a unitary-only schedule")
    n = schedule.n_qubits
    dim = 1 << n
    qubits, u = _fuse(schedule.gates)
    U = _apply_local(u, qubits, np.eye(dim, dtype=complex).reshape((2,) * n + (dim,)), n)
    return np.linalg.matrix_power(U.reshape(dim, dim), schedule.steps)


def schedule_superoperator(schedule: GateSchedule) -> np.ndarray:
    """Dense column-stacking superoperator of the schedule's channel: one
    segment run on the stack of all dim^2 basis matrices |i><j| (column
    i + dim*j), raised to the step count."""
    dim = 1 << schedule.n_qubits
    basis = np.eye(dim * dim, dtype=complex).reshape(dim, dim, dim * dim).transpose(1, 0, 2)
    runner = _ScheduleRunner(schedule)
    images = runner._run_segment(runner._plan, runner.n, basis)
    S = images.transpose(1, 0, 2).reshape(dim * dim, dim * dim)
    return np.linalg.matrix_power(S, schedule.steps)


def choi_matrix(schedule: GateSchedule) -> np.ndarray:
    """Choi matrix sum_{ij} E(|i><j|) (x) |i><j| of the schedule's channel.

    Entry ((a, i), (b, j)) is E(|i><j|)[a, b] = S[a + dim*b, i + dim*j].
    """
    dim = 1 << schedule.n_qubits
    S = schedule_superoperator(schedule).reshape(dim, dim, dim, dim)
    return S.transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim)
