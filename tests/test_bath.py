"""Engineered-bath construction: composites, RWA generator, Davies reduction."""

import numpy as np
import pytest

from stabtherm.bath import (
    AncillaSpec,
    attach_ancillas,
    davies_reduction,
    rwa_generator,
    rwa_validity_probe,
)
from stabtherm.circuits import (
    THERMAL_RESET,
    GateSchedule,
    compile_pauli_exponential,
    schedule_unitary,
    simulate_schedule,
    trotterize,
)
from stabtherm.errors import CapacityError, ModelError, ParameterError
from stabtherm.lindblad import (
    DensityMatrix,
    evolve,
    gibbs_state,
    steady_states,
    trace_distance,
    vec,
)
from stabtherm.pauli import PauliString, PauliSum
from stabtherm.toric import (
    build_torus,
    eigenoperator_decomposition,
    single_stabilizer_model,
    single_vertex_model,
    toric_hamiltonian,
)

from oracles import build_superoperator


def full_decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


def test_detailed_balance_rates():
    a = AncillaSpec.for_component(0, "x", epsilon=1.0, beta=0.7, gamma_minus=0.4)
    assert a.kind == "delta" and np.isclose(a.omega, 2.0)
    assert np.isclose(a.gamma_plus, 0.4 * np.exp(-0.7 * 2.0))
    z = AncillaSpec.for_component(0, "z", epsilon=0.0, beta=0.7, gamma_minus=0.4)
    assert z.kind == "zero" and z.gamma_plus == z.gamma_minus


def test_beta_zero_gives_equal_rates():
    H = single_vertex_model(1.0)
    model, _ = attach_ancillas(H, full_decomps(H)[:2], beta=0.0, gamma_minus=0.3)
    assert all(np.isclose(a.gamma_plus, a.gamma_minus) for a in model.ancillas)


def test_mini_model_single_delta_ancilla_dim_32():
    H = single_vertex_model(1.0)
    dx = eigenoperator_decomposition(H, 0, "x")
    model, gen = attach_ancillas(H, [dx], beta=1.0, gamma_minus=0.1)
    assert model.n_ancilla == 1 and model.dim == 32
    assert model.ancillas[0].kind == "delta"
    # the matched transition frequency is 2*eps = 2*lambda
    assert np.isclose(model.ancillas[0].omega, 2.0)
    assert gen.n_levels == 32


def test_toric_full_dressing_exceeds_capacity():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    with pytest.raises(CapacityError):
        attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.1)


def test_rwa_hamiltonian_matches_independent_excitation_build():
    # H_RWA for the toric-style dressing equals E (x) S+ + E^dag (x) S- built
    # directly from the decomposition's pair component (dense equality)
    H = single_vertex_model(1.0)
    dx = eigenoperator_decomposition(H, 0, "x")
    model, _ = attach_ancillas(H, [dx], beta=1.0, gamma_minus=0.1, g=1.0)
    gen = rwa_generator(model)

    comp = dx.components[0]
    E = comp.lowering.to_dense()       # 16 x 16
    Ed = comp.raising.to_dense()
    sp = np.array([[0, 0], [1, 0]], dtype=complex)  # |1><0|
    sm = sp.conj().T
    # composite ordering: system qubits 0..3, ancilla qubit 4 (most significant)
    expected = np.kron(sp, E) + np.kron(sm, Ed)
    assert np.linalg.norm(gen.H.toarray() - expected) < 1e-12


def test_composite_generators_keep_h_as_a_pauli_sum_the_compiler_reads():
    # both composite generators keep H as a PauliSum, each string once, and
    # a one-step schedule compiles each term c*S to one block exp(-i dt c S):
    # with (c S)^2 = |c|^2 and S^2 = sign, r = i sign Tr(S U) / Tr(U) is
    # tan(|c| dt) c/|c| up to the block's global phase, so its angle divided
    # by dt gives c back
    H = single_stabilizer_model("ZZ", 1.0)
    model, lab = attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.3, g=0.4)
    dt = 0.01
    for gen in (lab, rwa_generator(model)):
        assert isinstance(gen.H, PauliSum)
        strings = [(s.x, s.z) for _, s in gen.H.terms]
        assert len(set(strings)) == len(strings)
        gates = [g for g in trotterize(gen, dt, 1).gates if g.kind != THERMAL_RESET]
        rebuilt = PauliSum(gen.H.n)
        for c, s in gen.H.terms:
            hermitian = PauliString(s.n, s.x, s.z, bin(s.x & s.z).count("1"))
            size = len(compile_pauli_exponential(hermitian, 0.0).gates)
            block, gates = gates[:size], gates[size:]
            U = schedule_unitary(GateSchedule(gen.H.n, tuple(block)))
            S = s.to_dense()
            r = 1j * s.square_phase() * np.trace(S @ U) / np.trace(U)
            rebuilt = rebuilt + PauliSum.from_string(s, r / abs(r) * np.arctan(abs(r)) / dt)
        assert gates == []
        assert (rebuilt - gen.H).norm_coeffs() < 1e-12


def test_composite_path_realizes_no_pauli_sum(monkeypatch):
    # the composites keep H and the ancilla jumps as PauliSums: building,
    # compiling, simulating and the steady state read their terms alone
    def refuse(*args, **kwargs):
        raise AssertionError("a Pauli sum was realized as a matrix")

    for owner in (PauliSum, PauliString):
        monkeypatch.setattr(owner, "to_sparse", refuse)
    H = single_stabilizer_model("ZZ", 1.0)
    model, lab = attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.3, g=0.4)
    rwa = rwa_generator(model)
    for gen in (lab, rwa):
        assert isinstance(gen.H, PauliSum) and all(isinstance(j.op, PauliSum) for j in gen.jumps)
        out = simulate_schedule(trotterize(gen, 1.0, 4), DensityMatrix.maximally_mixed(model.dim))
        assert abs(np.trace(out.mat) - 1.0) < 1e-12
    ss = steady_states(rwa)
    assert ss.kernel_dim == 1
    assert (ss.diagnostics["blocks"], ss.diagnostics["max_block"], ss.diagnostics["nnz"]) == (
        100, 80, 18416)


def test_composites_refuse_non_finite_couplings_and_invalid_beta():
    # a NaN or infinite g would otherwise be dropped from H by simplify(),
    # and a negative beta gives gamma_plus > gamma_minus
    H = single_stabilizer_model("ZZ", 1.0)
    for g in (np.nan, np.inf):
        with pytest.raises(ParameterError, match="finite"):
            attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.3, g=g)
    for beta in (-1.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="beta"):
            attach_ancillas(H, full_decomps(H), beta=beta, gamma_minus=0.3, g=0.4)


def test_rwa_mini_gibbs_product_is_stationary():
    H = single_vertex_model(1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    for beta in (0.5, 1.0, 2.0):
        model, _ = attach_ancillas(H, decs, beta=beta, gamma_minus=0.1)
        gen = rwa_generator(model)
        target = model.join(gibbs_state(H.to_dense(), beta).mat,
                            model.thermal_ancilla_state(beta))
        L = build_superoperator(gen)
        scale = abs(L).max()
        assert np.linalg.norm(L @ vec(target)) < 1e-9 * max(scale, 1.0)


def test_rwa_mini_partial_dressing_kernel_is_degenerate():
    # with ancillas on one site only, sigma^z on each undressed qubit commutes
    # with the whole generator; the kernel is 32-dimensional, not 1 (the
    # fully dressed 4-qubit composite that would be ergodic needs 8 ancillas,
    # beyond the superoperator capacity contract)
    H = single_vertex_model(1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.1)
    gen = rwa_generator(model)
    ss = steady_states(gen)
    assert ss.kernel_dim == 32


def test_rwa_mini_reaches_gibbs_product_from_maximally_mixed():
    H = single_vertex_model(1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    beta = 1.0
    model, _ = attach_ancillas(H, decs, beta=beta, gamma_minus=0.1)
    gen = rwa_generator(model)
    target = model.join(gibbs_state(H.to_dense(), beta).mat,
                        model.thermal_ancilla_state(beta))
    out = evolve(gen, DensityMatrix.maximally_mixed(model.dim), 400.0)
    assert trace_distance(out.mat, target) < 1e-8


def test_fully_dressed_two_qubit_composite_is_ergodic():
    H = single_stabilizer_model("ZZ", 1.0)
    model, _ = attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.3, g=0.4)
    gen = rwa_generator(model)
    ss = steady_states(gen)
    assert ss.kernel_dim == 1
    target = model.join(gibbs_state(H.to_dense(), 1.0).mat,
                        model.thermal_ancilla_state(1.0))
    assert ss.state.distance(target) < 1e-10


# -- Davies reduction ----------------------------------------------------------

def test_davies_mini_model_thermalizes():
    H = single_vertex_model(1.0)
    beta = 1.0
    gen = davies_reduction(H, full_decomps(H), beta, 0.5)
    ss = steady_states(gen)
    assert ss.kernel_dim == 1
    assert ss.state.distance(gibbs_state(H.to_dense(), beta)) < 1e-10


def test_davies_beta_zero_steady_state_is_uniform():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, full_decomps(H), 0.0, 0.5)
    ss = steady_states(gen)
    assert ss.kernel_dim == 1
    assert ss.state.distance(DensityMatrix.maximally_mixed(16)) < 1e-10


def test_davies_translation_only_is_not_ergodic():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, full_decomps(H), 1.0, 0.5, include=("translate",))
    ss = steady_states(gen)
    assert ss.kernel_dim > 1


def test_davies_gamma0_invariance_mini():
    H = single_vertex_model(1.0)
    beta = 1.0
    states = []
    for g0 in (0.05, 0.5, 5.0):
        ss = steady_states(davies_reduction(H, full_decomps(H), beta, g0))
        states.append(ss.state)
    assert states[0].distance(states[1]) < 1e-8
    assert states[1].distance(states[2]) < 1e-8


def test_davies_gibbs_residual_toric_l2():
    # cheap matvec form of the L=2 claim (the kernel eigensolve runs in the
    # acceptance suite)
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    beta = 1.0
    gen = davies_reduction(H, full_decomps(H), beta, 0.5)
    L = build_superoperator(gen)
    target = gibbs_state(H.to_dense(), beta)
    assert np.linalg.norm(L @ vec(target.mat)) < 1e-12


def test_davies_requires_full_coverage():
    H = single_vertex_model(1.0)
    with pytest.raises(ModelError):
        davies_reduction(H, full_decomps(H)[:3], 1.0, 0.5)
    with pytest.raises(ParameterError):
        davies_reduction(H, full_decomps(H), 1.0, 0.0)
    for beta in (np.inf, np.nan, -1.0):
        with pytest.raises(ParameterError):
            davies_reduction(H, full_decomps(H), beta, 0.5)


# -- RWA validity probe ----------------------------------------------------------

@pytest.fixture(scope="module")
def probe_setup():
    H = single_vertex_model(1.0)
    dx = eigenoperator_decomposition(H, 0, "x")
    omega = 2.0  # the matched transition frequency
    return H, dx, omega


def test_probe_zero_coupling_identical(probe_setup):
    H, dx, omega = probe_setup
    rep = rwa_validity_probe(H, [dx], beta=1.0, gamma_minus=0.05 * omega,
                             g=0.0, t_max=50.0 / omega, n_points=30)
    assert rep.max_divergence < 1e-10


def test_probe_small_coupling_regime(probe_setup):
    H, dx, omega = probe_setup
    rep = rwa_validity_probe(H, [dx], beta=1.0, gamma_minus=0.05 * omega,
                             g=0.05 * omega, t_max=50.0 / omega, n_points=60)
    assert rep.max_divergence < 0.05  # measured 0.019 at these parameters


def test_probe_divergence_grows_with_coupling(probe_setup):
    H, dx, omega = probe_setup
    divs = []
    for frac in (0.05, 0.2, 0.5):
        rep = rwa_validity_probe(H, [dx], beta=1.0, gamma_minus=0.05 * omega,
                                 g=frac * omega, t_max=50.0 / omega, n_points=40)
        divs.append(rep.max_divergence)
    assert divs[0] < divs[1] < divs[2]
    assert divs[2] > 0.1  # far outside the RWA regime


def test_davies_toric_beta_zero_uniform_is_stationary():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    gen = davies_reduction(H, full_decomps(H), 0.0, 0.5)
    L = build_superoperator(gen)
    uniform = np.eye(256, dtype=complex) / 256
    assert np.linalg.norm(L @ vec(uniform)) < 1e-12


def test_probe_report_csv_rows():
    from stabtherm.serialize import csv_text

    H = single_vertex_model(1.0)
    dx = eigenoperator_decomposition(H, 0, "x")
    rep = rwa_validity_probe(H, [dx], beta=1.0, gamma_minus=0.1, g=0.05,
                             t_max=5.0, n_points=6)
    text = csv_text(["t", "trace_distance"], rep.csv_rows())
    assert text.splitlines()[0] == "t,trace_distance"
    assert len(text.splitlines()) == 7


def test_composite_model_json_description():
    from stabtherm.serialize import composite_to_json

    H = single_vertex_model(1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.1)
    doc = composite_to_json(model)
    assert doc["kind"] == "composite_model"
    assert len(doc["ancillas"]) == 2
    assert doc["index_map"]["ancilla_qubits"] == [4, 5]
    kinds = {a["kind"] for a in doc["ancillas"]}
    assert kinds == {"delta", "zero"}
