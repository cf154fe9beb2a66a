"""Property tests on random commuting stabilizer Hamiltonians (2-4 qubits) and
on random gate + reset schedules (1-4 qubits)."""

import dataclasses
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

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
    _cnot_gates,
    _ScheduleRunner,
    reset_channel,
    run_schedule,
    schedule_superoperator,
    simulate_schedule,
)
from stabtherm import lindblad  # noqa: E402
from stabtherm.lindblad import gibbs_state, steady_states, vec  # noqa: E402
from stabtherm.pauli import PauliString, PauliSum  # noqa: E402
from stabtherm.toric import (  # noqa: E402
    StabilizerHamiltonian,
    StabilizerTerm,
    build_torus,
    eigenoperator_decomposition,
    toric_hamiltonian,
)
from stabtherm.verify import check_fixed_point_conditions, commutant_dimension  # noqa: E402

from oracles import (  # noqa: E402
    build_superoperator,
    commutant_nullity,
    coset_keys,
    decomposition_oracle,
    random_density,
    simulate_gates,
    slot_graph_blocks,
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
def stabilizer_hamiltonians(draw, css=False):
    """Random Pauli strings with random signs, kept greedily while they
    commute with those kept and stay independent over GF(2); a signed Pauli
    string squares to +I (StabilizerHamiltonian checks it). With ``css``
    the candidates are X-type and Z-type in turn."""
    n = draw(st.integers(2, 4))
    candidates = draw(st.lists(
        st.tuples(st.text("IP" if css else "IXYZ", min_size=n, max_size=n),
                  st.sampled_from(["+1", "-1"]), st.floats(0.5, 1.5)),
        min_size=1, max_size=8))
    kept, terms = [], []
    for k, (letters, sign, coupling) in enumerate(candidates):
        s = PauliString.from_letters(letters.replace("P", "XZ"[k % 2]), sign)
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


def _bits(s: PauliSum) -> dict:
    return {k: np.complex128(c).tobytes() for k, c in s._terms.items()}


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians())
@example(H=StabilizerHamiltonian(2, tuple(  # dependent terms: ZZ = ZI IZ, and ZI twice
    StabilizerTerm(c, PauliString.from_letters(s, sign)) for c, s, sign in (
        (1.0, "ZI", "+1"), (0.5, "ZI", "-1"), (0.7, "ZZ", "+1"), (1.3, "IZ", "-1")))))
def test_decomposition_is_the_expansion_oracle_bit_for_bit(H):
    # the Walsh-sign decomposition against the product of projector sums,
    # pattern by pattern: the same frequencies, keys and complex bits
    for j in range(H.n_qubits):
        for axis in "xyz":
            dec, oracle = eigenoperator_decomposition(H, j, axis), decomposition_oracle(H, j, axis)
            assert np.array(dec.frequencies).tobytes() == np.array(oracle.frequencies).tobytes()
            for a, b in zip(dec.components, oracle.components):
                assert _bits(a.lowering) == _bits(b.lowering)
                assert _bits(a.raising) == _bits(b.raising)


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


def _assert_steady_states_match_the_joint_solver(gen):
    """steady_states against the joint path (the split patched to one
    class): kernel dimension, eigenvalues to 1e-10 (up to the order of a
    conjugate pair), states to 1e-12 in trace distance, nnz and blocks."""
    ss = steady_states(gen)
    with mock.patch.object(lindblad, "_commuting_classes", lambda H, jumps, d: [(H, jumps, None)]):
        joint = steady_states(gen)
    assert joint.diagnostics["classes"] == 1 and ss.kernel_dim == joint.kernel_dim
    assert np.abs(np.abs(ss.eigenvalues) - np.abs(joint.eigenvalues)).max() <= 1e-10
    both = np.concatenate([joint.eigenvalues, joint.eigenvalues.conj()])
    assert np.abs(ss.eigenvalues[:, None] - both).min(axis=1).max() <= 1e-10
    assert len(ss.states) == len(joint.states)
    assert all(a.distance(b) <= 1e-12 for a, b in zip(ss.states, joint.states))
    # the class slots give the joint form's nnz and blocks
    assert all(ss.diagnostics[k] == joint.diagnostics[k] for k in ("nnz", "blocks", "max_block"))
    return ss


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_steady_states_match_the_joint_solver(H, beta):
    _assert_steady_states_match_the_joint_solver(_davies(H, beta))


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(css=True), beta=st.floats(0.0, 1.0))
@example(H=StabilizerHamiltonian(4, (StabilizerTerm(1.0, PauliString.from_letters("XXXX")),
                                     StabilizerTerm(1.0, PauliString.from_letters("ZZZZ")))),
         beta=0.7)
def test_css_steady_states_split_and_match_the_joint_solver(H, beta):
    # with an X-type and a Z-type term the x-jumps and the Z-type terms
    # split off from the z-jumps and the X-type terms: the factored path
    kinds = {"x" if t.stabilizer.x else "z" for t in H.terms}
    hypothesis.assume(kinds == {"x", "z"})
    ss = _assert_steady_states_match_the_joint_solver(_davies(H, beta))
    assert ss.diagnostics["classes"] >= 2


def _assert_cosets_of_a_key_agree(gen):
    """Each commuting class's form on every coset representative of the sum
    of the class spans: the cosets with one key (``coset_keys`` of the
    class's term labels) have one spectrum to 1e-12 (up to the order of a
    conjugate pair) and, sorted, one diagonal and one off-diagonal column
    and row 1-norms, each coset's block read off the csr T. Returns the
    number of keys per class."""
    d, n = gen.n_levels, gen.n_levels.bit_length() - 1
    classes = lindblad._commuting_classes(gen.H, gen.jumps, d)
    lead = sum(1 << (v.bit_length() - 1)
               for v in lindblad._gf2_basis(np.concatenate([b for *_, b in classes])))
    reps = np.flatnonzero((np.arange(d * d) & lead) == 0)
    counts = []
    for H, jumps, _ in classes:
        f = lindblad._block_form(lindblad._sandwich_terms(d, H, jumps), d, seeds=reps)
        labels = sorted({s.x << n | s.z for o in (H, *(j.op for j in jumps)) if o
                         for _, s in o.terms})
        T, m, seen = f.T, f.coset, {}
        assert len(f.support) == len(reps) * m
        for c, key in enumerate(coset_keys(f.support, m, labels, n)):
            B = T[c * m:(c + 1) * m, c * m:(c + 1) * m].toarray()
            mag, diag = np.abs(B), np.diag(B)
            slots = np.sort([diag, mag.sum(axis=0) - np.abs(diag), mag.sum(axis=1) - np.abs(diag)])
            spectrum = np.linalg.eigvals(B)
            first = seen.setdefault(key, (spectrum, slots))
            assert np.abs(np.sort(np.abs(spectrum)) - np.sort(np.abs(first[0]))).max() <= 1e-12
            assert np.abs(spectrum[:, None] - first[0]).min(axis=1).max() <= 1e-12
            assert np.abs(slots - first[1]).max() <= 1e-12
        counts.append(len(seen))
    return counts


def test_l2_davies_cosets_of_a_key_agree():
    # the plaquette and vertex classes: 256 keys each, 4 of the 1024 cosets per key
    H = toric_hamiltonian(build_torus(2), 1.0, 1.0)
    g = _davies(H, 1.0)
    assert _assert_cosets_of_a_key_agree(g) == steady_states(g).diagnostics["keys"] == [256, 256]


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(css=True), beta=st.floats(0.0, 1.0))
@example(H=StabilizerHamiltonian(4, (StabilizerTerm(1.0, PauliString.from_letters("XXXX")),
                                     StabilizerTerm(1.0, PauliString.from_letters("ZZZZ")))),
         beta=0.7)
def test_css_cosets_of_a_key_agree(H, beta):
    hypothesis.assume({"x" if t.stabilizer.x else "z" for t in H.terms} == {"x", "z"})
    gen = _davies(H, beta)
    assert _assert_cosets_of_a_key_agree(gen) == steady_states(gen).diagnostics["keys"]


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_coset_labelling_is_the_slot_graph_components(H, beta):
    # the Davies form and its identity coset, labelled coset by coset, have
    # the labels, sizes, order and positions of the slot graph's components
    gen = _davies(H, beta)
    d = 1 << H.n_qubits
    terms = lindblad._sandwich_terms(d, gen.H, gen.jumps)
    for seeds in (None, np.zeros(1, dtype=int)):
        form = lindblad._block_form(terms, d, seeds=seeds)
        for got, want in zip((form.labels, form.sizes, form.order, form.position),
                             slot_graph_blocks(form)):
            assert np.array_equal(got, want)


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


# a straddle on qubits 0 and 1 of 4, lowered to one map, with complex pulses:
# its map tells the rows of its local register from the columns
_STRADDLE = GateSchedule(4, (Gate(MEASURE_Z, qubit=0, cbit=0),
                             Gate(CPHASE, qubit=0, qubit2=1, angle=0.7),
                             Gate(ROT1, qubit=1, axis="x", angle=0.3),
                             Gate(COND_PULSE, qubit=1, axis="x", angle=1.1,
                                  condition=((0, 1),))), 2)


@settings(max_examples=60, deadline=None)
@given(sched=schedules(), seed=st.integers(0, 2**32 - 1))
@example(sched=_STRADDLE, seed=5)
def test_fused_schedule_matches_gate_by_gate_oracle(sched, seed):
    d = 1 << sched.n_qubits
    rho = random_density(d, np.random.default_rng(seed))
    expected = simulate_gates(sched, rho)
    assert np.linalg.norm(simulate_schedule(sched, rho).mat - expected) < 1e-12
    vec_out = schedule_superoperator(sched) @ rho.reshape(-1, order="F")
    assert np.linalg.norm(vec_out.reshape(d, d, order="F") - expected) < 1e-12


_CPHASE_MEASURED_RESET = GateSchedule(2, (Gate(CPHASE, qubit=0, qubit2=1, angle=0.4),
                                          *reset_channel(0.7, 1.2, 1, 2, "measured").gates), 2)


@settings(max_examples=40, deadline=None)
@given(sched=schedules(), steps=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       pure=st.booleans())
@example(sched=_CPHASE_MEASURED_RESET, steps=2, seed=3, pure=True)
@example(sched=_CPHASE_MEASURED_RESET, steps=4, seed=3, pure=False)
@example(sched=GateSchedule(1, (Gate(ROT1, qubit=0, axis="x", angle=1e-13),)), steps=15, seed=0,
         pure=True)
def test_steps_on_the_invariant_support_match_gate_by_gate_oracle(sched, steps, seed, pure):
    # a computational-basis or diagonal start has at most d nonzero entries:
    # the steps run on its closed support when that stays within min(d, steps)
    # entries. Each step cuts what lies below ROUNDOFF of an op's largest
    # entry, so the output may drift by steps * ROUNDOFF: from |1><1| a
    # 1e-13 rotation's 5e-14 off-diagonal is cut on each of 15 steps, 1.06e-12
    # from the oracle in all
    sched = dataclasses.replace(sched, steps=steps)
    d = 1 << sched.n_qubits
    rng = np.random.default_rng(seed)
    rho = np.zeros((d, d), dtype=complex)
    if pure:
        k = rng.integers(d)
        rho[k, k] = 1.0
    else:
        rho[np.diag_indices(d)] = rng.dirichlet(np.ones(d))
    expected = simulate_gates(sched, rho)
    out, entries = run_schedule(sched, rho)
    drift = 1e-12 + steps * lindblad.ROUNDOFF  # run_schedule's documented bound
    assert np.count_nonzero(rho) <= entries <= d * d
    assert np.linalg.norm(out.mat - expected) < drift
    vec_out = schedule_superoperator(sched) @ rho.reshape(-1, order="F")
    assert np.linalg.norm(vec_out.reshape(d, d, order="F") - out.mat) < drift


@st.composite
def block_schedules(draw):
    """Segments of one to three unitary runs, each ended by a partial or a
    measured reset so that the runs are fused apart, with different block
    partitions: z-rotations and CPHASEs (blocks of one), CNOTs (blocks of
    one and of two), rotations about x or y (blocks of two), on a subset of
    2-4 qubits."""
    n = draw(st.integers(2, 4))
    qubit, angle = st.integers(0, n - 1), st.floats(-np.pi, np.pi)
    gates = []
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["z", "cphase", "cnot", "rot"]))
            a, b = draw(st.permutations(range(n)))[:2]
            if kind == "cphase":
                gates.append(Gate(CPHASE, qubit=a, qubit2=b, angle=draw(angle)))
            elif kind == "cnot":
                gates += _cnot_gates(a, b)
            else:
                gates.append(Gate(ROT1, qubit=a, angle=draw(angle),
                                  axis="z" if kind == "z" else draw(st.sampled_from("xy"))))
        if draw(st.booleans()):
            gates.append(Gate(THERMAL_RESET, qubit=draw(qubit), beta=draw(st.floats(0, 3)),
                              omega=draw(st.floats(0.1, 2)), relax=draw(st.floats(0, 1))))
        else:
            gates += reset_channel(draw(st.floats(0, 3)), draw(st.floats(0.1, 2)), draw(qubit), n,
                                   implementation="measured").gates
    return GateSchedule(n, tuple(gates), 2, 0.0, draw(st.integers(1, 6)))


_CNOT_PARTIAL_RESET = GateSchedule(2, (*_cnot_gates(0, 1),
                                       Gate(THERMAL_RESET, qubit=1, beta=0.8, omega=1.0,
                                            relax=0.4)), 0, 0.0, 3)


@settings(max_examples=60, deadline=None)
@given(sched=block_schedules(), pair=st.booleans(),
       ij=st.tuples(st.integers(0, 15), st.integers(0, 15)), p=st.floats(0.05, 0.95),
       qubits=st.integers(1, 15), seed=st.integers(0, 2**32 - 1))
@example(sched=_CNOT_PARTIAL_RESET, pair=True, ij=(0, 0), p=0.4, qubits=1, seed=0)
def test_steps_on_the_closed_support_match_the_plan_from_coherent_starts(sched, pair, ij, p,
                                                                         qubits, seed):
    # a start with coherences meets off-diagonal block pairs, of unequal
    # shapes where a CNOT splits its unitary into blocks of one and two:
    # p|i><i| + (1 - p)|j><j| + c|i><j| + h.c., or a pure state on a subset
    # of the qubits, the others in a random basis state
    n, d = sched.n_qubits, 1 << sched.n_qubits
    rng = np.random.default_rng(seed)
    if pair:
        i, j = ij[0] % d, (ij[0] + 1 + ij[1] % (d - 1)) % d
        c = np.sqrt(p * (1 - p)) * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
        rho = np.zeros((d, d), dtype=complex)
        rho[[i, j, i, j], [i, j, j, i]] = p, 1 - p, c, np.conj(c)
    else:
        local = [q for q in range(n) if qubits >> q & 1] or [0]
        rest = int(rng.integers(d)) & ~sum(1 << q for q in local)
        psi = np.zeros(d, dtype=complex)
        for k in range(1 << len(local)):
            psi[rest | sum((k >> m & 1) << q for m, q in enumerate(local))] = complex(
                *rng.normal(size=2))
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    out, entries = run_schedule(sched, rho)
    plan = _ScheduleRunner(sched).run(rho)
    plan = (plan + plan.conj().T) / 2
    assert np.count_nonzero(rho) <= entries <= d * d
    assert np.abs(out.mat - plan / np.trace(plan).real).max() < 1e-12
    assert np.abs(out.mat - simulate_gates(sched, rho)).max() < 1e-12
