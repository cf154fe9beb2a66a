"""Gate compilation, reset channels, schedule simulation, Trotterization."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from stabtherm import circuits
from stabtherm.bath import attach_ancillas, rwa_generator
from stabtherm.circuits import (
    COND_PULSE,
    CPHASE,
    MEASURE_Z,
    SAMPLE_BOLTZMANN_BIT,
    Gate,
    GateSchedule,
    ROT1,
    THERMAL_RESET,
    choi_matrix,
    compile_pauli_exponential,
    reset_channel,
    schedule_superoperator,
    schedule_unitary,
    simulate_schedule,
    trotterize,
)
from stabtherm.errors import CapacityError, ParameterError, ScheduleError
from stabtherm.lindblad import (
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    steady_states,
    trace_distance,
)
from stabtherm.pauli import PauliString, PauliSum
from stabtherm.toric import (
    build_torus,
    eigenoperator_decomposition,
    single_stabilizer_model,
    toric_hamiltonian,
)

from oracles import (
    build_superoperator,
    cphase_embedded,
    dist_up_to_phase,
    embed,
    full_reset,
    random_density,
    rotation,
    simulate_gates,
    thermal_kraus,
)


@pytest.fixture(scope="module")
def mini_composite():
    """2-qubit single-stabilizer system + delta + zero ancillas (4 qubits)."""
    H = single_stabilizer_model("ZZ", 1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.3, g=0.4)
    return rwa_generator(model)


@pytest.fixture(scope="module")
def dressed_composite():
    """2-qubit ZZ system with all four sites dressed: 4 ancillas (6 qubits)."""
    H = single_stabilizer_model("ZZ", 1.0)
    decs = [eigenoperator_decomposition(H, j, a)
            for j in (0, 1) for a in ("x", "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.3, g=0.4)
    return rwa_generator(model)


def test_phi_zero_compiles_to_identity():
    p = PauliString.from_letters("ZZZZ")
    U = schedule_unitary(compile_pauli_exponential(p, 0.0))
    assert dist_up_to_phase(U, np.eye(16)) < 1e-14


def test_zzzz_matches_exponential_oracle():
    p = PauliString.from_letters("ZZZZ")
    rng = np.random.default_rng(21)
    for phi in rng.uniform(0, 2 * np.pi, 10):
        U = schedule_unitary(compile_pauli_exponential(p, phi))
        assert dist_up_to_phase(U, expm(-1j * phi * p.to_dense())) < 1e-12


def test_hadamard_conjugation_identity_for_xxxx():
    # exp(-i phi XXXX) = H^(x)4 exp(-i phi ZZZZ) H^(x)4
    phi = 0.83
    H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    H4 = H1
    for _ in range(3):
        H4 = np.kron(H4, H1)
    pz = PauliString.from_letters("ZZZZ")
    px = PauliString.from_letters("XXXX")
    Uz = schedule_unitary(compile_pauli_exponential(pz, phi))
    Ux = schedule_unitary(compile_pauli_exponential(px, phi))
    assert dist_up_to_phase(Ux, H4 @ Uz @ H4) < 1e-12
    assert dist_up_to_phase(Ux, expm(-1j * phi * px.to_dense())) < 1e-12


def test_compilation_exact_for_all_letter_mixes():
    rng = np.random.default_rng(33)
    for letters in ("X", "Y", "XY", "XZY", "YIIZ", "XXYY", "ZIIY"):
        p = PauliString.from_letters(letters)
        for _ in range(3):
            phi = rng.uniform(-np.pi, np.pi)
            U = schedule_unitary(compile_pauli_exponential(p, phi))
            assert dist_up_to_phase(U, expm(-1j * phi * p.to_dense())) < 1e-12


def test_error_independent_of_angle():
    p = PauliString.from_letters("ZZZZ")
    rng = np.random.default_rng(13)
    errs = [dist_up_to_phase(schedule_unitary(compile_pauli_exponential(p, phi)),
                             expm(-1j * phi * p.to_dense()))
            for phi in rng.uniform(0, 2 * np.pi, 100)]
    assert max(errs) < 1e-12


def test_gate_set_is_rot1_and_cphase_only():
    p = PauliString.from_letters("XYZZ")
    sched = compile_pauli_exponential(p, 0.4)
    assert {g.kind for g in sched.gates} <= {ROT1, CPHASE}


@pytest.mark.parametrize("letters, weight", [("XYZIZXI", 5), ("YZXXIZY", 6)])
def test_weights_five_and_six_compile_exactly(letters, weight):
    # the CNOT ladder has no weight cap: weights 5 and 6 on 7 qubits
    p = PauliString.from_letters(letters)
    assert p.weight == weight
    rng = np.random.default_rng(weight)
    for phi in rng.uniform(-np.pi, np.pi, 3):
        U = schedule_unitary(compile_pauli_exponential(p, phi))
        assert dist_up_to_phase(U, expm(-1j * phi * p.to_dense())) < 1e-12


def test_rwa_generator_on_the_full_l2_dressing_compiles_to_two_qubit_gates():
    # its H has 96 terms of weight up to 6 on 40 qubits (8 system, 32 ancillas)
    H = toric_hamiltonian(build_torus(2), 1.0, 1.0)
    decs = [eigenoperator_decomposition(H, j, a) for j in range(H.n_qubits) for a in ("x", "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.3, g=0.4)
    g = rwa_generator(model)
    assert g.H.n == 40 and max(s.weight for _, s in g.H.terms) == 6
    sched = trotterize(g, 2.0, 20)
    assert sched.n_qubits == 40 and sched.steps == 20
    assert {gate.kind for gate in sched.gates} == {ROT1, CPHASE, THERMAL_RESET}
    assert all(gate.qubit2 is None or gate.kind == CPHASE and gate.qubit2 != gate.qubit
               for gate in sched.gates)


def test_weight_limit_and_hermiticity_guard():
    with pytest.raises(ParameterError, match="weight >= 1"):
        compile_pauli_exponential(PauliString.identity(2), 0.1)
    with pytest.raises(ParameterError):
        # +i XZ is anti-Hermitian; its exponential is not unitary
        compile_pauli_exponential(PauliString(2, 0b01, 0b10, 1), 0.1)


def test_negative_phase_string():
    p = PauliString.from_label("-1 ZZ")
    phi = 0.61
    U = schedule_unitary(compile_pauli_exponential(p, phi))
    assert dist_up_to_phase(U, expm(-1j * phi * p.to_dense())) < 1e-13


# -- reset channels -----------------------------------------------------------

def test_reset_beta_zero_outputs_maximally_mixed():
    sched = reset_channel(0.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = simulate_schedule(sched, DensityMatrix.pure(v))
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)


def test_reset_ln2_populations():
    sched = reset_channel(np.log(2.0), 1.0, implementation="measured")
    out = simulate_schedule(sched, DensityMatrix.maximally_mixed(2))
    assert np.allclose(np.diag(out.mat).real, [2 / 3, 1 / 3], atol=1e-12)


def test_reset_choi_matrices_agree():
    beta, omega = 0.7, 2.0
    Ca = choi_matrix(reset_channel(beta, omega, implementation="direct"))
    Cb = choi_matrix(reset_channel(beta, omega, implementation="measured"))
    assert np.linalg.norm(Ca - Cb) < 1e-12
    assert np.linalg.matrix_rank(Ca, tol=1e-10) <= 4


def test_reset_output_independent_of_input():
    beta, omega = 0.9, 1.3
    sched = reset_channel(beta, omega, implementation="measured")
    rng = np.random.default_rng(7)
    outs = []
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        outs.append(simulate_schedule(sched, DensityMatrix.pure(v)).mat)
    worst = max(np.linalg.norm(a - b) for a in outs for b in outs)
    assert worst < 1e-12


def test_reset_rejects_negative_temperature():
    with pytest.raises(ParameterError):
        reset_channel(-1.0, 1.0)


def test_partial_reset_equals_dissipator_exponential():
    beta, omega, tau = 0.7, 2.0, 0.37
    gm = 0.4
    gp = gm * np.exp(-beta * omega)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)
    g = LindbladGenerator(2, np.zeros((2, 2)),
                          (JumpOp(sparse.csr_matrix(sm), gm),
                           JumpOp(sparse.csr_matrix(sm.conj().T), gp)))
    exact = expm(build_superoperator(g).toarray() * tau)
    relax = 1 - np.exp(-2 * (gm + gp) * tau)
    sched = GateSchedule(1, (Gate(THERMAL_RESET, qubit=0, beta=beta, omega=omega,
                                  relax=relax),))
    assert np.linalg.norm(schedule_superoperator(sched) - exact) < 1e-12


# -- gates on their own qubits ---------------------------------------------------

def test_gates_act_on_their_own_qubits():
    # every gate kind on each qubit of a 3-qubit register against kron-built
    # embeddings of its 2x2 operators
    rng = np.random.default_rng(17)
    rho = random_density(8, rng)

    def run(*gates, n_classical=0):
        return simulate_schedule(GateSchedule(3, gates, n_classical), rho).mat

    def conj(U):
        return U @ rho @ U.conj().T

    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    beta, omega, relax = 0.8, 1.5, 0.35
    for q in range(3):
        for axis in "xyz":
            U = embed(rotation(axis, 0.7), q, 3)
            assert np.linalg.norm(run(Gate(ROT1, qubit=q, axis=axis, angle=0.7))
                                  - conj(U)) < 1e-12
        P0, P1 = embed(p0, q, 3), embed(p1, q, 3)
        measured = run(Gate(MEASURE_Z, qubit=q, cbit=0), n_classical=1)
        assert np.linalg.norm(measured - conj(P0) - conj(P1)) < 1e-12
        # the pulse acts on the branch whose measured bit is 1 only
        V = embed(rotation("y", 1.1), q, 3)
        pulsed = run(Gate(MEASURE_Z, qubit=q, cbit=0),
                     Gate(COND_PULSE, qubit=q, axis="y", angle=1.1, condition=((0, 1),)),
                     n_classical=1)
        assert np.linalg.norm(pulsed - conj(P0) - conj(V @ P1)) < 1e-12
        kraus = [embed(k, q, 3) for k in thermal_kraus(beta, omega, relax)]
        partial = run(Gate(THERMAL_RESET, qubit=q, beta=beta, omega=omega, relax=relax))
        assert np.linalg.norm(partial - sum(conj(K) for K in kraus)) < 1e-12
        expected = full_reset(rho, q, 3, 1.0 / (1.0 + np.exp(-beta * omega)))
        for impl in ("direct", "measured"):
            sched = reset_channel(beta, omega, qubit=q, n_qubits=3, implementation=impl)
            out = simulate_schedule(sched, rho).mat
            assert np.linalg.norm(out - expected) < 1e-12, (q, impl)
    for a, b in ((0, 1), (1, 2), (0, 2), (2, 0)):
        out = run(Gate(CPHASE, qubit=a, qubit2=b, angle=0.9))
        assert np.linalg.norm(out - conj(cphase_embedded(a, b, 0.9, 3))) < 1e-12


def test_channel_lowering_with_complex_kraus():
    # one Liouville map sum_k K (x) conj(K) on the qubit's column and row axes;
    # a complex Kraus set tells it apart from conj(K) (x) K and from a
    # row/column swap, which a real (thermal) set cannot
    p, theta, phi = 0.3, 0.7, 1.9
    kraus = [np.sqrt(p) * rotation("x", theta), np.sqrt(1 - p) * rotation("y", phi)]
    rho = random_density(8, np.random.default_rng(23))
    for q in range(3):
        ((S, qubits),) = circuits._channel_maps(kraus, (q,), 3)
        assert S.shape == (4, 4) and qubits == (q, q + 3)
        out = circuits._apply_local(S, qubits, rho.reshape((2,) * 6), 6).reshape(8, 8)
        expected = sum(embed(k, q, 3) @ rho @ embed(k, q, 3).conj().T for k in kraus)
        assert np.linalg.norm(out - expected) < 1e-13, q


def test_choi_matrix_of_known_channels():
    # Choi entry ((a, i), (b, j)) is E(|i><j|)[a, b]
    angle = 0.9
    U = rotation("x", angle)
    C = choi_matrix(GateSchedule(1, (Gate(ROT1, qubit=0, axis="x", angle=angle),)))
    v = U.reshape(-1)  # v[a*2 + i] = U[a, i]
    assert np.linalg.norm(C - np.outer(v, v.conj())) < 1e-13
    beta, omega = 0.6, 1.7
    p1 = 1.0 / (1.0 + np.exp(beta * omega))
    C = choi_matrix(reset_channel(beta, omega))
    assert np.linalg.norm(C - np.kron(np.diag([1 - p1, p1]), np.eye(2))) < 1e-13


def test_dense_schedule_views_refuse_past_the_dense_limit():
    # a 40-qubit schedule compiles; its unitary (d^2 entries) and its
    # superoperator and Choi matrix (d^4) refuse before anything is allocated
    sched = compile_pauli_exponential(PauliString.from_letters("Z" + "I" * 38 + "Z"), 0.3)
    assert sched.n_qubits == 40 and len(sched) > 0
    for view in (schedule_unitary, schedule_superoperator, choi_matrix):
        with pytest.raises(CapacityError, match="qubits exceeds the limit"):
            view(sched)


def test_superoperator_matches_simulation_through_branches():
    # a measured reset on the middle qubit branches inside the batched run
    rng = np.random.default_rng(29)
    gates = (Gate(ROT1, qubit=0, axis="x", angle=0.4),
             Gate(CPHASE, qubit=2, qubit2=1, angle=1.3),
             *reset_channel(0.7, 1.2, qubit=1, n_qubits=3, implementation="measured").gates,
             Gate(ROT1, qubit=1, axis="y", angle=0.8))
    sched = GateSchedule(3, gates, 2, 0.0, 2)
    rho = random_density(8, rng)
    vec = schedule_superoperator(sched) @ rho.reshape(-1, order="F")
    out = simulate_schedule(sched, rho).mat
    assert np.linalg.norm(vec.reshape(8, 8, order="F") - out) < 1e-12


# -- closed classical regions -----------------------------------------------------

def _plan(sched):
    return circuits._ScheduleRunner(sched)._plan


def test_measured_reset_lowers_to_the_thermal_reset_map():
    beta, omega = 0.7, 1.3
    for n in (2, 3):
        for q in range(n):
            ((g, outcomes, keep),) = _plan(reset_channel(beta, omega, q, n, "measured"))
            ((value, weight, ((S, qubits),)),) = outcomes
            ((S_ref, qubits_ref),) = circuits._channel_maps(
                circuits._thermal_kraus(beta, omega, 1.0), (q,), n)
            assert qubits == qubits_ref and np.abs(S - S_ref).max() < 1e-15, (n, q)


def _measured_resets(sched):
    """The schedule with each full THERMAL_RESET as measure + sample + pulses."""
    gates = []
    for g in sched.gates:
        gates += (reset_channel(g.beta, g.omega, g.qubit, sched.n_qubits, "measured").gates
                  if g.kind == THERMAL_RESET else (g,))
    return GateSchedule(sched.n_qubits, tuple(gates), 2, sched.total_time, sched.steps)


def test_measured_resets_lower_like_pinned_ones(dressed_composite):
    # the benchmark's pinned Trotter step, its resets measured instead
    pinned = trotterize(dressed_composite, 1.0, 3, pin_resets=True)
    measured = _measured_resets(pinned)
    plan = _plan(measured)
    assert len(plan) == len(_plan(pinned)) == 5
    assert all(len(outcomes) == 1 for _, outcomes, _ in plan)
    rho = random_density(64, np.random.default_rng(31))
    assert np.linalg.norm(simulate_schedule(measured, rho).mat
                          - simulate_schedule(pinned, rho).mat) < 1e-13


def test_regions_lower_by_size_and_match_gate_by_gate():
    # complex pulses and runs inside a region tell its map from the conjugate
    # channel; a region keeps its gates when its map would outgrow the state:
    # 16 x 16 on one qubit, 256 x 256 on two of two
    def straddle(n, run_qubit):
        return GateSchedule(n, (Gate(MEASURE_Z, qubit=0, cbit=0),
                                Gate(CPHASE, qubit=0, qubit2=run_qubit, angle=0.7),
                                Gate(ROT1, qubit=1, axis="x", angle=0.3),
                                Gate(COND_PULSE, qubit=1, axis="x", angle=1.1,
                                     condition=((0, 1),))), 1)

    pulse = GateSchedule(2, (Gate(MEASURE_Z, qubit=1, cbit=0),
                             Gate(COND_PULSE, qubit=1, axis="x", angle=0.9,
                                  condition=((0, 1),))), 1)
    rng = np.random.default_rng(37)
    for sched, entries in ((pulse, 1), (straddle(4, 1), 1),
                           (reset_channel(0.7, 1.3, implementation="measured"), 4),
                           (straddle(2, 1), 3), (straddle(4, 2), 3)):
        assert len(_plan(sched)) == entries
        rho = random_density(1 << sched.n_qubits, rng)
        assert np.linalg.norm(simulate_schedule(sched, rho).mat
                              - simulate_gates(sched, rho)) < 1e-12


def test_region_on_no_qubit_leaves_no_plan_entry():
    # a sampled bit that is never read is a channel on no qubit, the identity
    sched = GateSchedule(2, (Gate(SAMPLE_BOLTZMANN_BIT, beta=1, omega=1, cbit=0),), 1)
    assert _plan(sched) == []
    assert np.abs(schedule_superoperator(sched) - np.eye(16)).max() < 1e-15


# -- steps on the state's invariant support ---------------------------------------

def _state_on_plan(sched, rho):
    """simulate_schedule's state with every step run on the full state."""
    out = circuits._ScheduleRunner(sched).run(rho)
    out = (out + out.conj().T) / 2
    return out / np.trace(out).real


def test_full_resets_from_mixed_run_on_the_diagonal(dressed_composite):
    # a full reset dephases its ancilla, so from I/d the pinned and measured
    # steps map populations to populations: 64 or more of them run on the 64
    # diagonal entries of the 4096, as a stochastic matrix
    pinned = trotterize(dressed_composite, 4.0, 64, pin_resets=True)
    rho = np.eye(64, dtype=complex) / 64
    for sched in (pinned, _measured_resets(pinned)):
        support, segment = circuits._ScheduleRunner(sched).on_support(rho)
        assert sorted(support.tolist()) == [65 * i for i in range(64)]
        S = np.array([segment(e) for e in np.eye(64)])  # row k: the image of entry k
        assert np.abs(S.imag).max() < 1e-15 and S.real.min() > -1e-15
        assert np.abs(S.sum(axis=1) - 1).max() < 1e-13
        out, entries = circuits.run_schedule(sched, rho)
        assert entries == 64
        assert np.abs(out.mat - _state_on_plan(sched, rho)).max() < 1e-13


def test_partial_resets_and_full_support_run_on_their_closed_support(dressed_composite):
    # a partial reset keeps part of its ancilla's coherence: from I/d the
    # support closes on the 640 entries of the unitary's diagonal block
    # pairs; a rotation on qubit 0 of 2 spreads |0><0| (x) diag(p, 1 - p)
    # over its two 2 x 2 diagonal block pairs. |+><+| starts on all d^2,
    # y-rotations of both qubits close a pure state on 4 entries on all 16,
    # and a measured reset on one qubit of one keeps its branches: these run
    # the plan, bit for bit
    exact = trotterize(dressed_composite, 1.0, 100)
    pinned = trotterize(dressed_composite, 1.0, 100, pin_resets=True)
    mixed = np.eye(64, dtype=complex) / 64
    plus = np.full((64, 64), 1 / 64, dtype=complex)
    spread = GateSchedule(2, (Gate(ROT1, qubit=0, axis="x", angle=0.4),), steps=8)
    for sched, rho, size in ((exact, mixed, 640),
                             (dataclasses.replace(pinned, steps=1), mixed, 64),
                             (dataclasses.replace(pinned, steps=63), mixed, 64),
                             (spread, np.diag([0.3, 0, 0.7, 0]).astype(complex), 8)):
        out, entries = circuits.run_schedule(sched, rho)
        assert entries == size
        assert np.abs(out.mat - _state_on_plan(sched, rho)).max() < 1e-13
    rotations = GateSchedule(2, (Gate(ROT1, qubit=1, axis="y", angle=0.3),
                                 Gate(ROT1, qubit=0, axis="y", angle=0.5)), steps=3)
    half = np.zeros((4, 4), dtype=complex)
    half[:2, :2] = 0.5
    wide = reset_channel(0.7, 1.3, implementation="measured")
    for sched, rho in ((exact, plus), (pinned, plus), (_measured_resets(pinned), plus),
                       (rotations, half), (wide, random_density(2, np.random.default_rng(43)))):
        assert circuits._ScheduleRunner(sched).on_support(rho) is None
        out, entries = circuits.run_schedule(sched, rho)
        assert entries == rho.size and np.array_equal(out.mat, _state_on_plan(sched, rho))


@pytest.mark.parametrize("cycle", [(0, 2, 3, 1, 4, 5), tuple(range(8)), (7, 0, 6, 1, 5, 2, 4, 3)])
def test_unitary_blocks_are_the_components_of_long_permutation_cycles(cycle):
    # a component of diameter 3 or more needs its labels taken through more
    # than one neighbour of each state. The image of the full diagonal is
    # every diagonal block pair: (i, j) with i and j in one component of
    # u (x) 1 on the register
    perm = np.arange(8)
    perm[list(cycle)] = np.roll(cycle, -1)
    u = np.eye(8)[perm].T.astype(complex)  # u|c_m> = |c_{m+1}>
    for qubits, n in (((0, 1, 2), 3), ((0, 2, 3), 4)):
        d = 1 << n
        full = circuits._apply_local(u, qubits, np.eye(d, dtype=complex).reshape((2,) * n + (d,)), n)
        labels = connected_components(sparse.csr_matrix(np.abs(full.reshape(d, d)) > 0))[1]
        image = circuits._unitary_stage(u, qubits, n)(np.arange(d) * (d + 1))[0]
        assert np.array_equal(np.sort(image), np.flatnonzero(labels[:, None] == labels))


def test_cut_drift_from_the_plan_stays_below_steps_times_roundoff():
    # a rotation by less than ROUNDOFF is cut to the identity on the support
    # of |0><0|: what it moves off R is dropped on every step
    rho = np.diag([1.0, 0.0]).astype(complex)
    for steps in (10, 1000):
        sched = GateSchedule(1, (Gate(ROT1, qubit=0, axis="x", angle=1e-14),), steps=steps)
        out, entries = circuits.run_schedule(sched, rho)
        assert entries == 1
        assert np.abs(out.mat - _state_on_plan(sched, rho)).max() <= steps * circuits.ROUNDOFF


def test_fused_cnots_with_a_seven_cycle_match_the_plan():
    # CNOT(1, 0) CNOT(2, 1) CNOT(0, 2) maps the bits linearly with one
    # 7-cycle on the nonzero states: one block of 7 and one of 1
    cnots = circuits._cnot_gates(1, 0) + circuits._cnot_gates(2, 1) + circuits._cnot_gates(0, 2)
    sched = GateSchedule(3, tuple(cnots), steps=5)
    for i in range(8):
        rho = np.zeros((8, 8), dtype=complex)
        rho[i, i] = 1
        out, entries = circuits.run_schedule(sched, rho)
        assert entries == (1 if i == 0 else 49)
        assert np.abs(out.mat - _state_on_plan(sched, rho)).max() < 1e-13


def test_exact_trotter_step_runs_on_its_unitary_blocks(dressed_composite):
    # cut at ROUNDOFF, the fused step unitary is block diagonal with blocks
    # of 4 and 12; from I/64 the partial resets keep the state on the 640
    # entries of the diagonal block pairs, found in two passes
    exact = trotterize(dressed_composite, 60.0, 600)
    plan = circuits._ScheduleRunner(exact)._plan
    ((_, ((_, _, ((u, _), _)),), _), *resets) = plan
    assert len(resets) == 4 and u.shape == (64, 64)
    cut = np.abs(u) > circuits.ROUNDOFF * np.abs(u).max()
    sizes = np.bincount(connected_components(sparse.csr_matrix(cut))[1])
    assert sorted(sizes.tolist()) == [4] * 4 + [12] * 4
    rho = np.eye(64, dtype=complex) / 64
    out, entries = circuits.run_schedule(exact, rho)
    assert entries == 640 == np.sum(sizes ** 2)
    assert np.abs(out.mat - _state_on_plan(exact, rho)).max() < 1e-13


def test_segment_is_composed_only_when_that_repays(dressed_composite, monkeypatch):
    # |R| <= min(d, steps): one pass on each of R's basis matrices, then
    # matrix steps; otherwise one pass on the state for each step
    calls = []
    on_support = circuits._ScheduleRunner.on_support

    def spy(self, mat):
        support, segment = on_support(self, mat)
        return support, lambda v: calls.append(len(v)) or segment(v)

    monkeypatch.setattr(circuits._ScheduleRunner, "on_support", spy)
    pinned = trotterize(dressed_composite, 4.0, 100, pin_resets=True)
    mixed = np.eye(64, dtype=complex) / 64
    for sched, passes in ((pinned, [64] * 64),
                          (dataclasses.replace(pinned, steps=63), [64] * 63),
                          (trotterize(dressed_composite, 4.0, 700), [640] * 700)):
        calls.clear()
        circuits.run_schedule(sched, mixed)
        assert calls == passes


# -- schedule simulation --------------------------------------------------------

def test_empty_schedule_is_identity():
    sched = GateSchedule(2, ())
    rho = DensityMatrix.maximally_mixed(4)
    out = simulate_schedule(sched, rho)
    assert np.allclose(out.mat, rho.mat)
    assert np.array_equal(schedule_unitary(sched), np.eye(4))


def test_compiled_schedule_on_plus_state_matches_oracle():
    p = PauliString.from_letters("ZZZZ")
    phi = 0.53
    sched = compile_pauli_exponential(p, phi)
    plus = DensityMatrix.pure(np.ones(16) / 4.0)
    out = simulate_schedule(sched, plus)
    V = expm(-1j * phi * p.to_dense())
    expected = V @ plus.mat @ V.conj().T
    assert trace_distance(out.mat, expected) < 1e-13


def test_schedule_permutation_covariance():
    # relabeling qubits commutes with simulation
    rng = np.random.default_rng(41)
    perm = [2, 0, 1]
    p = PauliString.from_letters("XYZ")
    letters = ["I"] * 3
    for q in range(3):
        letters[perm[q]] = p.letter(q)
    p_perm = PauliString.from_letters("".join(letters))
    phi = 0.77
    # permutation matrix on basis states (little-endian bits)
    dim = 8
    P = np.zeros((dim, dim))
    for s in range(dim):
        t = 0
        for q in range(3):
            t |= ((s >> q) & 1) << perm[q]
        P[t, s] = 1.0
    rho = DensityMatrix(np.array(
        (lambda G: G @ G.conj().T / np.trace(G @ G.conj().T))(
            rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))))
    out1 = simulate_schedule(compile_pauli_exponential(p, phi), rho)
    out2 = simulate_schedule(compile_pauli_exponential(p_perm, phi),
                             DensityMatrix(P @ rho.mat @ P.T))
    assert trace_distance(P @ out1.mat @ P.T, out2.mat) < 1e-12


def test_schedule_jsonl_round_trip(mini_composite):
    for sched, steps in ((reset_channel(0.4, 1.0, implementation="measured"), 1),
                         (trotterize(mini_composite, 1.0, 5), 5)):
        back = GateSchedule.from_jsonl(sched.to_jsonl())
        assert back == sched
        assert back.steps == steps and len(back) == steps * len(back.gates)
        rho = DensityMatrix.maximally_mixed(1 << sched.n_qubits)
        out1 = simulate_schedule(sched, rho)
        out2 = simulate_schedule(back, rho)
        assert np.allclose(out1.mat, out2.mat)


def test_schedule_total_time_is_finite():
    sched = GateSchedule(1, (Gate(ROT1, qubit=0, axis="x", angle=0.2),), total_time=2.5, steps=3)
    assert GateSchedule.from_jsonl(sched.to_jsonl()) == sched
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ScheduleError, match="finite total_time"):
            dataclasses.replace(sched, total_time=t)


def test_trotterize_rejects_non_finite_t(mini_composite):
    for t in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError, match="^t must be finite"):
            trotterize(mini_composite, t, 4)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        GateSchedule(1, (Gate(ROT1, qubit=3, axis="z", angle=0.1),))
    with pytest.raises(ScheduleError):
        # conditional pulse reading a never-written bit
        GateSchedule(1, (Gate("COND_PULSE", qubit=0, axis="x", angle=np.pi,
                              condition=((0, 1),)),), n_classical=1)
    with pytest.raises(ScheduleError):
        GateSchedule(2, (Gate(CPHASE, qubit=1, qubit2=1),))


# -- Trotterization ---------------------------------------------------------------

def test_trotter_error_slope_is_first_order(mini_composite):
    gen = mini_composite
    t = 2.0
    exact = expm(build_superoperator(gen).toarray() * t)
    Ns = [8, 16, 32, 64, 128, 256]
    errs = [np.linalg.norm(schedule_superoperator(trotterize(gen, t, N)) - exact, 2)
            for N in Ns]
    slope = np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert -1.15 < slope < -0.85


def test_trotter_commuting_terms_exact_for_any_n():
    # XY has one Y = iXZ, so its coefficient on the phase-0 string is
    # imaginary: trotterize folds the i into the string's phase
    zz = PauliString.from_letters("ZZ")
    for other in ("ZI", "XY"):
        H = PauliSum(2, [(0.5, zz), (0.3, PauliString.from_letters(other))])
        g = LindbladGenerator(4, H, ())
        exact = expm(build_superoperator(g).toarray() * 0.9)
        for N in (1, 3):
            S = schedule_superoperator(trotterize(g, 0.9, N))
            assert np.linalg.norm(S - exact) < 1e-12


def test_trotter_schedule_stores_one_step(mini_composite):
    t, N = 1.5, 6
    sched = trotterize(mini_composite, t, N)
    one_step = trotterize(mini_composite, t / N, 1)
    assert sched.gates == one_step.gates and sched.steps == N
    assert len(sched) == N * len(one_step)
    # the repeat count means the same as spelling the gate list out N times
    unrolled = GateSchedule(sched.n_qubits, sched.gates * N, 0, t, 1)
    rho = DensityMatrix.maximally_mixed(16)
    assert trace_distance(simulate_schedule(sched, rho).mat,
                          simulate_schedule(unrolled, rho).mat) < 1e-13
    assert np.linalg.norm(schedule_superoperator(sched)
                          - schedule_superoperator(unrolled)) < 1e-12


def test_trotter_t_zero_is_empty_identity(mini_composite):
    sched = trotterize(mini_composite, 0.0, 4)
    assert len(sched) == 0
    rho = DensityMatrix.maximally_mixed(16)
    assert np.allclose(simulate_schedule(sched, rho).mat, rho.mat)


def test_trotter_rejects_uncompilable_dissipator():
    K = np.array([[0, 1], [0, 0]], dtype=complex)
    g = LindbladGenerator(2, PauliSum(1), (JumpOp(sparse.csr_matrix(K), 0.5),))
    with pytest.raises(ParameterError, match="not a single-ancilla thermal reset"):
        trotterize(g, 1.0, 2)


def test_trotter_needs_h_as_a_pauli_sum():
    H = PauliSum(2, [(0.5, PauliString.from_letters("ZZ"))])
    with pytest.raises(ParameterError, match="not a PauliSum"):
        trotterize(LindbladGenerator(4, H.to_sparse(), ()), 1.0, 2)
    assert len(trotterize(LindbladGenerator(4, H, ()), 1.0, 2).gates) == 11


def test_schedule_sizes_are_integers(mini_composite):
    # a whole float is stored as an int, as from_jsonl reads it back; a
    # fraction or a bool is refused when the schedule is made
    rot = (Gate(ROT1, qubit=0, axis="x", angle=0.2),)
    sched = GateSchedule(1.0, rot, 0.0, 1, 2.0)
    assert (sched.n_qubits, sched.n_classical, sched.total_time, sched.steps) == (1, 0, 1.0, 2)
    assert all(type(v) is int for v in (sched.n_qubits, sched.n_classical, sched.steps))
    assert GateSchedule.from_jsonl(sched.to_jsonl()) == sched
    out = simulate_schedule(sched, DensityMatrix.pure(np.array([1.0, 0.0])))
    assert abs(out.mat[0, 0].real - math.cos(0.2) ** 2) < 1e-14  # two steps of angle 0.2
    for kwargs in ({"steps": 2.5}, {"steps": True}, {"n_classical": 0.5}, {"total_time": "1"}):
        with pytest.raises(ScheduleError, match="must be"):
            GateSchedule(1, rot, **kwargs)
    for n_steps in (2.5, True, "3"):
        with pytest.raises(ParameterError, match="n_steps"):
            trotterize(mini_composite, 1.0, n_steps)
    assert trotterize(mini_composite, 1.0, 5.0) == trotterize(mini_composite, 1.0, 5)


def test_trotterized_long_time_reaches_gibbs_product(dressed_composite):
    # fully dressed composite: the schedule thermalizes the whole register
    gen = dressed_composite
    ss = steady_states(gen)
    out = simulate_schedule(trotterize(gen, 60.0, 600),
                            DensityMatrix.maximally_mixed(gen.n_levels))
    assert out.distance(ss.state) < 1e-2


def test_cold_composite_resets_keep_the_model_beta():
    # at beta = 400 every gamma_plus underflows to 0, so beta cannot be read
    # back from the detailed-balance rate ratio
    H = single_stabilizer_model("ZZ", 1.0)
    decs = [eigenoperator_decomposition(H, j, a)
            for j in (0, 1) for a in ("x", "z")]
    model, _ = attach_ancillas(H, decs, beta=400.0, gamma_minus=0.3, g=0.4)
    gen = rwa_generator(model)
    assert all(j.reset["beta"] == 400.0 for j in gen.jumps)
    out = simulate_schedule(trotterize(gen, 1.0, 4),
                            DensityMatrix.maximally_mixed(model.dim))
    assert np.all(np.isfinite(out.mat))


def test_pinned_resets_leave_the_lab_frame_marginal_mixed():
    # in the lab frame each pinned window is a unital Pauli channel on the
    # system, so from I/d its marginal stays I/4, away from the RWA fixed
    # point; exact resets settle at the lab generator's steady state
    H = single_stabilizer_model("ZZ", 1.0)
    decs = [eigenoperator_decomposition(H, j, a) for j in (0, 1) for a in ("x", "z")]
    model, lab = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.3, g=0.4)

    def system(rho):  # the ancillas are qubits 2..5, the high bits
        return np.einsum("aiaj->ij", rho.reshape(16, 4, 16, 4))

    fixed = system(steady_states(rwa_generator(model)).state.mat)
    lab_fixed = system(steady_states(lab).state.mat)
    dt, mixed = 0.2, DensityMatrix.maximally_mixed(lab.n_levels)
    exact = simulate_schedule(trotterize(lab, 300 * dt, 300), mixed)
    assert trace_distance(system(exact.mat), lab_fixed) < 5e-3  # first-order Trotter error
    for steps in (1500, 3000):
        pinned = system(simulate_schedule(trotterize(lab, steps * dt, steps, pin_resets=True),
                                          mixed).mat)
        assert np.abs(pinned - np.eye(4) / 4).max() < 1e-12
        assert abs(trace_distance(pinned, fixed) - 0.381) < 1e-3


def test_pinned_resets_leave_fixed_point_unchanged(dressed_composite):
    # gamma-magnitude insensitivity: at fixed dt the step-channel fixed point
    # agrees with the generator's steady state for exact and pinned resets
    gen = dressed_composite
    ss = steady_states(gen)
    dt = 0.2
    for pin, steps in ((False, 300), (True, 1500)):
        # pinned resets relax the system at ~g^2*dt per unit time, so the
        # pinned chain needs proportionally more steps to settle
        sched = trotterize(gen, steps * dt, steps, pin_resets=pin)
        out = simulate_schedule(sched, DensityMatrix.maximally_mixed(gen.n_levels))
        assert out.distance(ss.state) < 1e-7, f"pin={pin}"
