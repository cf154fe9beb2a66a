"""Property tests on random commuting stabilizer Hamiltonians (2-4 qubits) and
on random gate + reset schedules (1-4 qubits)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stabtherm.bath import davies_reduction  # noqa: E402
from stabtherm.circuits import (  # noqa: E402
    COND_PULSE,
    CPHASE,
    MEASURE_Z,
    ROT1,
    SAMPLE_BOLTZMANN_BIT,
    THERMAL_RESET,
    Gate,
    GateSchedule,
    reset_channel,
    schedule_superoperator,
    simulate_schedule,
)
from stabtherm.lindblad import gibbs_state, steady_states, vec  # noqa: E402
from stabtherm.pauli import PauliString, PauliSum  # noqa: E402
from stabtherm.toric import (  # noqa: E402
    StabilizerHamiltonian,
    StabilizerTerm,
    eigenoperator_decomposition,
)
from stabtherm.verify import check_fixed_point_conditions, commutant_dimension  # noqa: E402

from oracles import (  # noqa: E402
    build_superoperator,
    commutant_nullity,
    random_density,
    simulate_gates,
)


def _gf2_rank(vectors):
    pivots = {}  # leading bit -> row
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


@st.composite
def stabilizer_hamiltonians(draw):
    """Random Pauli strings with random signs, kept greedily while they
    commute with those kept and stay independent over GF(2); a signed Pauli
    string squares to +I (StabilizerHamiltonian checks it)."""
    n = draw(st.integers(2, 4))
    candidates = draw(st.lists(
        st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.sampled_from(["+1", "-1"]),
                  st.floats(0.5, 1.5)),
        min_size=1, max_size=8))
    kept, terms = [], []
    for letters, sign, coupling in candidates:
        s = PauliString.from_letters(letters, sign)
        symplectic = [p.x << n | p.z for p in kept + [s]]
        if all(s.commutes(p) for p in kept) and _gf2_rank(symplectic) == len(kept) + 1:
            kept.append(s)
            terms.append(StabilizerTerm(coupling, s))
    if not terms:
        terms = [StabilizerTerm(1.0, PauliString.from_letters("Z" * n))]
    return StabilizerHamiltonian(n, tuple(terms))


def _decomps(H):
    return [eigenoperator_decomposition(H, j, a) for j in range(H.n_qubits) for a in ("x", "z")]


def _davies(H, beta, gamma0=0.5):
    return davies_reduction(H, _decomps(H), beta, gamma0)


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians())
def test_decomposition_reconstructs_sigma_exactly(H):
    for j in range(H.n_qubits):
        for axis in "xyz":
            dec = eigenoperator_decomposition(H, j, axis)
            diff = dec.reconstruct() - PauliSum.from_string(dec.source_string())
            assert all(c == 0 for c, _ in diff.terms), (j, axis)


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_gibbs_state_meets_fixed_point_conditions(H, beta):
    report = check_fixed_point_conditions(gibbs_state(H.to_dense(), beta), _decomps(H), beta)
    assert set(report.residuals) == {(j, a) for j in range(H.n_qubits) for a in "xz"}
    assert report.max_residual() < 1e-9


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_davies_gibbs_state_is_stationary(H, beta):
    L = build_superoperator(_davies(H, beta))
    rho = gibbs_state(H.to_dense(), beta).mat
    assert np.linalg.norm(L @ vec(rho)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_block_kernel_matches_dense_svd(H, beta):
    gen = _davies(H, beta)
    s = np.linalg.svd(build_superoperator(gen).toarray(), compute_uv=False)
    assert steady_states(gen).kernel_dim == np.sum(s < 1e-9 * s[0])


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_commutant_block_nullity_matches_dense_oracle(H, beta):
    ops = [H.as_sum().to_sparse()] + [j.op for j in _davies(H, beta).jumps]
    d = 1 << H.n_qubits
    count, _, diag = commutant_dimension(ops, d, max_dim=d * d)
    assert count == diag["nullity"] == commutant_nullity(ops)


@st.composite
def schedules(draw):
    """Random segments on 1-4 qubits built from blocks: unitary runs on a
    random qubit subset each, partial THERMAL_RESETs that break runs,
    measured resets, a Z measurement whose bit gates a COND_PULSE, and a
    "straddle": a Z measurement whose bit gates a COND_PULSE on another
    qubit after a unitary run, the bit sometimes rewritten before the read
    (closed classical regions that contain runs, both lowered to one map and
    kept gate by gate)."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    angle = st.floats(-np.pi, np.pi)
    axis = st.sampled_from("xyz")
    gates = []

    def unitary_run():
        subset = draw(st.lists(qubit, min_size=1, max_size=n, unique=True))
        for _ in range(draw(st.integers(1, 4))):
            if len(subset) > 1 and draw(st.booleans()):
                a, b = draw(st.permutations(subset))[:2]
                gates.append(Gate(CPHASE, qubit=a, qubit2=b, angle=draw(angle)))
            else:
                gates.append(Gate(ROT1, qubit=draw(st.sampled_from(subset)),
                                  axis=draw(axis), angle=draw(angle)))

    blocks = st.sampled_from(["run", "partial reset", "measured reset", "pulse", "straddle"])
    for block in draw(st.lists(blocks, min_size=1, max_size=5)):
        if block == "run":
            unitary_run()
        elif block == "partial reset":
            gates.append(Gate(THERMAL_RESET, qubit=draw(qubit), beta=draw(st.floats(0, 3)),
                              omega=draw(st.floats(0.1, 2)), relax=draw(st.floats(0, 1))))
        elif block == "measured reset":
            gates += reset_channel(draw(st.floats(0, 3)), draw(st.floats(0.1, 2)), draw(qubit), n,
                                   implementation="measured").gates
        elif block == "pulse":
            gates += [Gate(MEASURE_Z, qubit=draw(qubit), cbit=0),
                      Gate(COND_PULSE, qubit=draw(qubit), axis=draw(axis), angle=draw(angle),
                           condition=((0, draw(st.integers(0, 1))),))]
        else:
            bit, measured = draw(st.integers(0, 1)), draw(qubit)
            gates.append(Gate(MEASURE_Z, qubit=measured, cbit=bit))
            unitary_run()
            rewrite = draw(st.sampled_from([None, MEASURE_Z, SAMPLE_BOLTZMANN_BIT]))
            if rewrite == MEASURE_Z:
                gates.append(Gate(MEASURE_Z, qubit=draw(qubit), cbit=bit))
            elif rewrite == SAMPLE_BOLTZMANN_BIT:
                gates.append(Gate(SAMPLE_BOLTZMANN_BIT, beta=draw(st.floats(0, 3)),
                                  omega=draw(st.floats(0.1, 2)), cbit=bit))
            others = [q for q in range(n) if q != measured] or [measured]
            gates.append(Gate(COND_PULSE, qubit=draw(st.sampled_from(others)), axis=draw(axis),
                              angle=draw(angle), condition=((bit, draw(st.integers(0, 1))),)))
    return GateSchedule(n, tuple(gates), 2, 0.0, draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(sched=schedules(), seed=st.integers(0, 2**32 - 1))
def test_fused_schedule_matches_gate_by_gate_oracle(sched, seed):
    d = 1 << sched.n_qubits
    rho = random_density(d, np.random.default_rng(seed))
    expected = simulate_gates(sched, rho)
    assert np.linalg.norm(simulate_schedule(sched, rho).mat - expected) < 1e-12
    vec_out = schedule_superoperator(sched) @ rho.reshape(-1, order="F")
    assert np.linalg.norm(vec_out.reshape(d, d, order="F") - expected) < 1e-12
