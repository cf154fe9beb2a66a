"""Lindblad engine: superoperators, evolution, steady states, Gibbs states."""

import itertools
import random
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import eigs as sparse_eigs, expm_multiply

from stabtherm import cli, lindblad, verify
from stabtherm.bath import attach_ancillas, davies_reduction, rwa_generator
from stabtherm.errors import CapacityError, NumericalError, ParameterError
from stabtherm.lindblad import (
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    Sectors,
    evolve,
    gibbs_state,
    steady_states,
    thermal_qubit,
    trace_distance,
    trace_product,
    trajectories,
    trajectory,
    unvec,
    vec,
)
from stabtherm.pauli import PauliString, PauliSum
from stabtherm.toric import (
    StabilizerHamiltonian,
    StabilizerTerm,
    build_torus,
    eigenoperator_decomposition,
    loop_operators,
    single_stabilizer_model,
    single_vertex_model,
    toric_hamiltonian,
)
from stabtherm.verify import commutant_dimension

from oracles import (
    as_csr,
    build_superoperator,
    dense_pauli,
    lindblad_rhs,
    random_density,
    slot_graph_blocks,
    toric_partition_sums,
)

SM = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SP = SM.conj().T


def two_level(gm, gp):
    return LindbladGenerator(
        2, np.zeros((2, 2)),
        (JumpOp(sparse.csr_matrix(SM), gm), JumpOp(sparse.csr_matrix(SP), gp)),
    )


def test_superoperator_zero_generator():
    g = LindbladGenerator(3, np.zeros((3, 3)), ())
    assert build_superoperator(g).nnz == 0


def test_superoperator_matches_direct_evaluation():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        H = (H + H.conj().T) / 2
        Ks = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
              for _ in range(2)]
        rates = [0.7, 0.2]
        g = LindbladGenerator(dim, H, tuple(JumpOp(sparse.csr_matrix(K), r)
                                            for K, r in zip(Ks, rates)))
        L = build_superoperator(g)
        rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lhs = unvec(L @ vec(rho))
        rhs = lindblad_rhs(H, list(zip(Ks, rates)), rho)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_superoperator_is_linear_in_the_generator():
    rng = np.random.default_rng(8)
    dim = 3
    H1 = rng.normal(size=(dim, dim)); H1 = (H1 + H1.T) / 2
    H2 = rng.normal(size=(dim, dim)); H2 = (H2 + H2.T) / 2
    K = rng.normal(size=(dim, dim))
    g1 = LindbladGenerator(dim, H1, (JumpOp(sparse.csr_matrix(K), 0.3),))
    g2 = LindbladGenerator(dim, H2, (JumpOp(sparse.csr_matrix(K), 0.4),))
    g12 = LindbladGenerator(dim, H1 + H2, (JumpOp(sparse.csr_matrix(K), 0.7),))
    assert np.allclose((build_superoperator(g1) + build_superoperator(g2)).toarray(),
                       build_superoperator(g12).toarray(), atol=1e-12)


def test_superoperator_capacity():
    # 512 levels exceed SUPEROP_DIM_LIMIT: no solver writes the superoperator
    g = LindbladGenerator(512, np.zeros((512, 512)), ())
    with pytest.raises(CapacityError):
        steady_states(g)
    with pytest.raises(CapacityError):
        evolve(g, DensityMatrix.maximally_mixed(512), 1.0)


@pytest.mark.parametrize("L", [3, 4])
def test_steady_states_refuse_toric_davies_before_any_d2_step(L, monkeypatch):
    # the capacity check is steady_states' first step: past it, L=3 asks for
    # 2^36 labels (MemoryError) and L=4 packs 64-bit labels (OverflowError)
    def refuse(*args, **kwargs):
        raise AssertionError("a d^2-sized step ran past capacity")

    for name in ("_pauli_transfer", "_commuting_classes", "_factored_kernel"):
        monkeypatch.setattr(lindblad, name, refuse)
    H = toric_hamiltonian(build_torus(L), 1.0, 1.0)
    g = davies_reduction(H, full_decomps(H), 1.0, 0.5)
    with pytest.raises(CapacityError, match=f"dim {1 << H.n_qubits} "):
        steady_states(g)


def test_two_level_steady_population_ratio():
    g = two_level(1.0, 0.25)
    ss = steady_states(g)
    assert ss.kernel_dim == 1
    p = ss.state.mat
    assert np.isclose(p[1, 1].real / p[0, 0].real, 0.25, atol=1e-12)


def test_free_precession_closed_form():
    omega = 1.3
    H = omega * np.diag([0.5, -0.5])
    g = LindbladGenerator(2, H, ())
    plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    for t in (0.4, 1.1, 2.7):
        rho = evolve(g, plus, t)
        # <sx>(t) = cos(omega t) under H = omega sz/2
        assert np.isclose(rho.expectation(sx), np.cos(omega * t), atol=1e-8)


def test_damped_qubit_closed_form():
    # under D[A]rho = 2 A rho A+ - {A+A, rho}: p1(t) = exp(-2 gamma t)
    gamma = 0.3
    g = two_level(gamma, 0.0)
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    for t in (0.5, 1.0, 2.0):
        r = evolve(g, rho0, t)
        assert np.isclose(r.mat[1, 1].real, np.exp(-2 * gamma * t), atol=1e-7)


def test_evolve_matches_dense_exponential_oracle():
    rng = np.random.default_rng(17)
    dim = 4  # two qubits
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = (H + H.conj().T) / 2
    K = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = LindbladGenerator(dim, H, (JumpOp(sparse.csr_matrix(K), 0.2),))
    rho0 = DensityMatrix(random_density(dim, rng))
    t = 1.7
    L = build_superoperator(g).toarray()
    heavy = unvec(expm(L * t) @ vec(rho0.mat))
    assert trace_distance(evolve(g, rho0, t).mat, heavy) < 1e-8


def test_trajectory_matches_repeated_evolve():
    rng = np.random.default_rng(19)
    dim = 3
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = (H + H.conj().T) / 2
    K = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g = LindbladGenerator(dim, H, (JumpOp(sparse.csr_matrix(K), 0.4),))
    rho0 = DensityMatrix(random_density(dim, rng))
    t, points = 2.5, 6
    dt = t / (points - 1)
    states = trajectory(g, rho0, t, points)
    assert len(states) == points
    rho = rho0
    for i, state in enumerate(states):
        if i > 0:
            rho = evolve(g, rho, dt)
        assert np.abs(state.mat - rho.mat).max() < 1e-10


def test_trajectories_of_several_states_match_one_at_a_time():
    # the Pauli basis (mini model) and the matrix units (a qutrit); one
    # state has weight only on the identity's block, so the blocks
    # propagated are the union over the states
    rng = np.random.default_rng(31)
    H = single_vertex_model(1.0)
    qutrit = LindbladGenerator(3, np.diag([0.0, 1.0, 2.5]),
                               (JumpOp(sparse.csr_matrix(np.eye(3, k=1)), 0.3),))
    for g in (davies_reduction(H, [eigenoperator_decomposition(H, j, a)
                                   for j in range(4) for a in ("x", "z")], 1.0, 0.5), qutrit):
        d = g.n_levels
        starts = [DensityMatrix(random_density(d, rng)), DensityMatrix.maximally_mixed(d),
                  DensityMatrix(random_density(d, rng))]
        together = trajectories(g, starts, 2.0, 3)
        assert len(together) == len(starts)
        for rho0, states in zip(starts, together):
            alone = trajectory(g, rho0, 2.0, 3)
            assert max(np.abs(a.mat - b.mat).max() for a, b in zip(states, alone)) < 1e-12
    assert trajectories(qutrit, [], 1.0, 3) == []


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    g = two_level(0.5, 0.1)
    rho = DensityMatrix(random_density(2, rng))
    out = evolve(g, rho, 3.0)
    assert abs(np.trace(out.mat) - 1) < 1e-9
    assert np.linalg.norm(out.mat - out.mat.conj().T) < 1e-12
    assert np.linalg.eigvalsh(out.mat).min() > -1e-8


def test_unitary_only_generator_has_degenerate_kernel():
    H = np.diag([0.0, 1.0])
    g = LindbladGenerator(2, H, ())
    ss = steady_states(g)
    assert ss.kernel_dim == 2  # both projectors are stationary


@pytest.mark.parametrize("d", [2, 3, 4])
def test_zero_generator_kernel_is_everything(d):
    # d = 2 and 4 run the Pauli basis, d = 3 the matrix units
    g = LindbladGenerator(d, np.zeros((d, d)), ())
    assert steady_states(g).kernel_dim == d * d
    rho = DensityMatrix(random_density(d, np.random.default_rng(d)))
    assert np.abs(evolve(g, rho, 1.0).mat - rho.mat).max() < 1e-12


def test_kernel_vector_residual():
    g = two_level(0.8, 0.3)
    ss = steady_states(g)
    L = build_superoperator(g)
    assert np.linalg.norm(L @ vec(ss.state.mat)) < 1e-9


def test_gibbs_beta_zero_is_maximally_mixed():
    H = np.diag([0.0, 1.0, 3.0])
    g = gibbs_state(H, 0.0)
    assert np.allclose(g.mat, np.eye(3) / 3)


def test_gibbs_av_matches_partition_function_oracle():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    from stabtherm.toric import vertex_string

    for beta in (0.3, 1.0):
        rho = gibbs_state(H.to_dense(), beta)
        got = rho.expectation(vertex_string(lat, 0).to_dense())
        _, av, _, _ = toric_partition_sums(2, 1.0, 1.0, beta)
        assert np.isclose(got, av, atol=1e-10)


def test_gibbs_large_beta_is_ground_projector():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0).to_dense()
    rho = gibbs_state(H, 50.0)
    evals, evecs = np.linalg.eigh(H)
    V0 = evecs[:, np.abs(evals - evals[0]) < 1e-9]
    proj = V0 @ V0.conj().T / 4
    assert trace_distance(rho.mat, proj) < 1e-8


def test_detailed_balance_gibbs_in_kernel():
    # jumps that are eigenoperators of H with KMS rates fix the Gibbs state
    rng = np.random.default_rng(31)
    evals = np.array([0.0, 0.9, 2.1])
    H = np.diag(evals)
    beta = 0.8
    jumps = []
    for i in range(3):
        for j in range(3):
            if evals[j] > evals[i]:
                K = np.zeros((3, 3), dtype=complex)
                K[i, j] = rng.normal() + 0.5  # lowering |j> -> |i>
                omega = evals[j] - evals[i]
                gm = 0.5 + rng.random()
                jumps.append(JumpOp(sparse.csr_matrix(K), gm))
                jumps.append(JumpOp(sparse.csr_matrix(K.conj().T),
                                    gm * np.exp(-beta * omega)))
    g = LindbladGenerator(3, H, tuple(jumps))
    L = build_superoperator(g)
    rho_g = gibbs_state(H, beta)
    assert np.linalg.norm(L @ vec(rho_g.mat)) < 1e-9


def test_density_matrix_validation():
    with pytest.raises(ParameterError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ParameterError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ParameterError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ParameterError):
        DensityMatrix(np.full((2, 2), np.nan))  # every comparison with NaN is False


@pytest.mark.parametrize("d", [4, 256])
def test_density_matrix_positivity_boundary_is_minus_clip_tol(d):
    # the Cholesky check keeps the eigenvalue criterion: a smallest
    # eigenvalue of -CLIP_TOL / 2 passes, -2 CLIP_TOL does not
    rng = np.random.default_rng(d)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    for low, accepted in ((-0.5 * lindblad.CLIP_TOL, True), (-2 * lindblad.CLIP_TOL, False)):
        lam = np.full(d, (1 - low) / (d - 1))
        lam[0] = low
        rho = (u * lam) @ u.conj().T
        rho = (rho + rho.conj().T) / 2
        assert abs(np.linalg.eigvalsh(rho).min() / low - 1) < 1e-6
        if accepted:
            DensityMatrix(rho)
        else:
            with pytest.raises(ParameterError, match="negative eigenvalue"):
                DensityMatrix(rho)
    # a rank-1 pure state: eigenvalue 0 with multiplicity d - 1
    assert DensityMatrix.pure(u[:, 1]).dim == d


def test_gibbs_state_rejects_non_finite_beta():
    for beta in (np.inf, np.nan, -1.0):
        with pytest.raises(ParameterError):
            gibbs_state(np.diag([0.0, 1.0]), beta)


def test_thermal_qubit_ratio():
    for beta, omega in ((0.0, 1.0), (1.0, 0.7), (2.0, 2.0)):
        p = thermal_qubit(beta, omega)
        assert np.isclose(p[1, 1].real / p[0, 0].real, np.exp(-beta * omega))


def test_thermal_qubit_rejects_negative_temperature_and_overflow():
    # exp(-beta*omega) overflows at beta*omega = -800, and beta*omega = -1
    # would invert the populations; both are negative temperatures
    for beta, omega in ((1.0, -800.0), (1.0, -1.0), (-1.0, 1.0),
                        (np.inf, 1.0), (1.0, np.nan)):
        with pytest.raises(ParameterError):
            thermal_qubit(beta, omega)
    assert np.array_equal(thermal_qubit(1.0, 800.0), np.diag([1.0, 0.0]))


# -- block solvers against the computational-basis oracle ----------------------

def full_decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


def mini_davies(include=("lower", "raise", "translate")):
    H = single_vertex_model(1.0)
    return davies_reduction(H, full_decomps(H), 1.0, 0.5, include=include)


def random_generator(dim, seed):
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    K = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LindbladGenerator(dim, (H + H.conj().T) / 2, (JumpOp(sparse.csr_matrix(K), 0.4),))


def rwa_composite_64():
    # ZZ with the four ancillas of its full decomposition set
    H = single_stabilizer_model("ZZ", 1.0)
    model, _ = attach_ancillas(H, full_decomps(H), beta=1.0, gamma_minus=0.3, g=0.4)
    assert model.dim == 64
    return rwa_generator(model)


def three_qubit_rwa_composite():
    # ZZ with one ancilla dressing sigma^x on site 0
    H = single_stabilizer_model("ZZ", 1.0)
    model, _ = attach_ancillas(H, [eigenoperator_decomposition(H, 0, "x")],
                               beta=1.0, gamma_minus=0.3, g=0.4)
    assert model.dim == 8
    return rwa_generator(model)


def damped_qutrit():
    # ladder jumps keep |i><j| within its coherence order i - j: five
    # matrix-unit blocks
    a = sparse.csr_matrix(np.diag(np.sqrt([1.0, 2.0]), 1))
    return LindbladGenerator(3, np.diag([0.0, 1.0, 2.3]),
                             (JumpOp(a, 0.3), JumpOp(a.T.tocsr(), 0.1)))


def bendixson_bounds(form):
    """Labels and Bendixson bounds -lambda_max(B + B^dag) / 2 of every block,
    in the order of form.blocks()."""
    labels, bounds = [], []
    for members in form.blocks():
        B = form.dense(members)
        labels.append(form.labels[members[:, 0]])
        bounds.append(-np.linalg.eigvalsh(B + B.conj().swapaxes(1, 2))[:, -1] / 2)
    return np.concatenate(labels), np.concatenate(bounds)


def transposed(form):
    """The entry at (j, rows[s, j]) of each slot (s, j): T^T on the slots."""
    return form.weights[form.pair, form.rows]


def max_matched_distance(a, b):
    """Largest |a_i - b_pi(i)| under the best one-to-one pairing of every a_i
    with a distinct b_j."""
    assert len(a) <= len(b)
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return dist[rows, cols].max()


@pytest.mark.parametrize("make, basis", [
    (lambda: mini_davies(), "pauli"),
    (lambda: mini_davies(("translate",)), "pauli"),   # degenerate kernel
    (lambda: random_generator(3, 5), "matrix-unit"),
])
def test_block_spectra_match_dense_oracle(make, basis):
    # the shared kernel solver returns the smallest-|lambda| part of the
    # spectrum: a prefix of the oracle's, with nothing skipped below its end
    g = make()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    scale = form.scale()
    vals, kernel_dim, kernel, diagnostics = form.kernel(
        lindblad.KERNEL_TOL * scale, scale, lindblad.STEADY_EIGENVALUES, lindblad.MAX_KERNEL)
    assert diagnostics["basis"] == basis
    oracle = np.linalg.eigvals(build_superoperator(g).toarray())
    oracle = oracle[np.argsort(np.abs(oracle), kind="stable")]
    assert np.abs(np.abs(vals) - np.abs(oracle[:len(vals)])).max() < 1e-10
    assert max_matched_distance(vals, oracle) < 1e-10
    below = oracle[np.abs(oracle) < np.abs(vals[-1]) - 1e-10]
    assert max_matched_distance(below, vals) < 1e-10
    assert sum(v.shape[1] for _, v in kernel) == kernel_dim == np.sum(np.abs(oracle) < 1e-9)
    assert steady_states(g).kernel_dim == kernel_dim


@pytest.mark.parametrize("make, refined", [
    (mini_davies, 8),                            # of 128 blocks
    (lambda: mini_davies(("translate",)), 192),  # all, with a 16-dim kernel
    (three_qubit_rwa_composite, 20),             # all: no detailed balance
    (lambda: random_generator(3, 5), 1),
])
def test_refined_spectrum_prefix_is_that_of_every_dense_block(make, refined):
    g = make()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    scale = form.scale()
    k = lindblad.STEADY_EIGENVALUES
    vals, kernel_dim, _, diagnostics = form.kernel(
        lindblad.KERNEL_TOL * scale, scale, k, lindblad.MAX_KERNEL)
    # eigvals of every block, concatenated in block order and stably sorted
    stacks = [form.dense(members) for members in form.blocks()]
    full = np.concatenate([np.linalg.eigvals(stack).ravel() for stack in stacks])
    full = full[np.argsort(np.abs(full), kind="stable")]
    m = max(kernel_dim + 4, k)
    assert np.array_equal(vals[:m], full[:m])
    assert diagnostics["refined"] == refined
    # a refined block was bounded first
    assert refined <= diagnostics["bounded"] <= diagnostics["blocks"]
    # Bendixson: no eigenvalue of a block lies below its bound
    _, bound = bendixson_bounds(form)
    smallest = np.concatenate([np.abs(np.linalg.eigvals(stack)).min(axis=1) for stack in stacks])
    assert np.all(bound <= smallest + 1e-12 * scale)


@pytest.mark.parametrize("make", [
    mini_davies,
    lambda: mini_davies(("translate",)),
    three_qubit_rwa_composite,
    lambda: random_generator(3, 5),
    damped_qutrit,
])
def test_gershgorin_screen_lies_below_every_bendixson_bound(make):
    g = make()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    scale = form.scale()
    labels, bound = bendixson_bounds(form)
    screen = lindblad._gershgorin_screen(form.rows, form.weights, transposed(form), form.labels)
    assert screen.shape == (len(labels),)
    assert np.all(screen[labels] <= bound + 1e-12 * scale)


@pytest.mark.parametrize("make", [
    mini_davies,
    lambda: mini_davies(("translate",)),
    three_qubit_rwa_composite,
    damped_qutrit,
])
def test_any_valid_screen_refines_what_bounds_on_every_block_refine(make, monkeypatch):
    # the screen only saves eigvalsh calls: any screen at or below the
    # Bendixson bounds, in any order, gives the same bits as a screen that
    # rules out no block
    g = make()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    scale = form.scale()
    labels, bound = bendixson_bounds(form)
    exact = np.empty(len(labels))
    exact[labels] = bound

    def solve(screen):
        monkeypatch.setattr(lindblad, "_gershgorin_screen",
                            lambda rows, weights, transposed, labels: screen)
        return form.kernel(lindblad.KERNEL_TOL * scale, scale, lindblad.STEADY_EIGENVALUES,
                           lindblad.MAX_KERNEL)

    vals, kernel_dim, kernel, diagnostics = solve(np.full(len(exact), -np.inf))
    assert diagnostics["bounded"] == len(exact)
    rng = np.random.default_rng(7)
    for _ in range(4):
        # half the screens tight, half lowered by up to the bounds' spread
        drop = rng.uniform(0, np.ptp(exact), len(exact)) * (rng.random(len(exact)) < 0.5)
        v, n, ker, diag = solve(exact - drop)
        assert np.array_equal(v, vals) and n == kernel_dim
        assert len(ker) == len(kernel)
        assert all(np.array_equal(a, c) and np.array_equal(b, d)
                   for (a, b), (c, d) in zip(ker, kernel))
        assert diag["refined"] <= diag["bounded"] <= diagnostics["bounded"]
        assert {**diag, "bounded": 0} == {**diagnostics, "bounded": 0}


@pytest.mark.parametrize("make", [
    mini_davies,
    lambda: mini_davies(("translate",)),
    three_qubit_rwa_composite,
    lambda: random_generator(3, 5),
    damped_qutrit,
])
def test_screen_and_scale_from_the_slots_match_the_csr_formulas(make):
    # the screen from S = T + T^dag and the scale (largest column and row
    # 1-norm), computed on the csr matrix of the form
    g = make()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    T = form.T
    S = T + T.conj().T
    diag = S.diagonal().real
    reach = diag - np.abs(diag) + np.asarray(abs(S).sum(axis=1)).ravel()
    want = np.full(form.labels.max() + 1, np.inf)
    np.minimum.at(want, form.labels, -reach / 2)
    screen = lindblad._gershgorin_screen(form.rows, form.weights, transposed(form), form.labels)
    assert np.all(np.abs(screen - want) <= 1e-14 * np.abs(want))
    mag = abs(T)
    scale = max(mag.sum(axis=0).max(), mag.sum(axis=1).max())
    assert abs(form.scale() - scale) <= 1e-14 * scale


def test_a_screen_from_the_rows_of_t_alone_is_no_bound():
    # Gershgorin on the rows of T bounds T's own spectrum, not lambda_max of
    # its Hermitian part: on the mini Davies model it lies above the bounds
    # of 40 of the 128 blocks. The slots of T^T hold T's transposed weights,
    # so S = 2 T^T sums the rows of 2T
    g = mini_davies()
    form = lindblad._block_form(lindblad._sandwich_terms(16, g.H, g.jumps), 16)
    labels, bound = bendixson_bounds(form)
    rows_only = lindblad._gershgorin_screen(form.rows, transposed(form), transposed(form),
                                            form.labels)
    assert np.any(rows_only[labels] > bound + 1e-12 * form.scale())


def test_davies_generator_is_detailed_balanced():
    # quantum detailed balance, checked on the oracle's superoperator: with
    # Gamma(X) = sigma^(1/4) X sigma^(1/4), the symmetric and antisymmetric
    # parts of Gamma^-1 L Gamma in the Pauli basis commute
    H = single_vertex_model(1.0)
    beta, gamma0 = 1.0, 0.5
    g = davies_reduction(H, full_decomps(H), beta, gamma0)
    w, u = np.linalg.eigh(gibbs_state(H.to_dense(), beta).mat)
    root, inv_root = ((u * w ** p) @ u.conj().T for p in (0.25, -0.25))
    n = H.n_qubits
    P = np.stack([vec(dense_pauli("".join(letters))) for letters
                  in itertools.product("IXYZ", repeat=n)], axis=1) / np.sqrt(2 ** n)

    def commutator_norm(gen):
        L = build_superoperator(gen).toarray()
        L = np.kron(inv_root.T, inv_root) @ L @ np.kron(root.T, root)
        L = P.conj().T @ L @ P
        assert np.abs(L.imag).max() < 1e-12
        S, A = (L.real + L.real.T) / 2, (L.real - L.real.T) / 2
        return np.abs(S @ A - A @ S).max() / np.abs(L).max() ** 2

    assert commutator_norm(g) < 1e-12
    # raising at e^(-beta eps) instead of e^(-2 beta eps) breaks it
    broken = [JumpOp(j.op, np.sqrt(j.rate * gamma0), j.label) if j.label.startswith("ad")
              else j for j in g.jumps]
    assert any(j.label.startswith("ad") for j in g.jumps)
    assert commutator_norm(LindbladGenerator(g.n_levels, g.H, tuple(broken))) > 1e-3


@pytest.mark.parametrize("make", [mini_davies, three_qubit_rwa_composite])
def test_trajectory_matches_dense_exponential_on_every_block(make):
    g = make()
    rho0 = DensityMatrix(random_density(g.n_levels, np.random.default_rng(41)))
    L = build_superoperator(g).toarray()
    t, points = 3.0, 4
    for s, tk in zip(trajectory(g, rho0, t, points), np.linspace(0, t, points)):
        exact = unvec(expm(L * tk) @ vec(rho0.mat))
        assert np.abs(s.mat - exact).max() < 1e-10


def test_block_solvers_never_form_the_superoperator(monkeypatch):
    # the matrix-unit assembly is the only computational-basis superoperator
    # left in lindblad; Pauli-basis models never reach it
    def refuse(*args, **kwargs):
        raise AssertionError("the computational-basis superoperator was formed")

    monkeypatch.setattr(lindblad, "_matrix_unit_transfer", refuse)
    zz = single_stabilizer_model("ZZ", 1.0)
    for g in (mini_davies(), davies_reduction(zz, full_decomps(zz), 1.0, 0.5)):
        assert steady_states(g).kernel_dim == 1
        trajectory(g, DensityMatrix.maximally_mixed(g.n_levels), 1.0, 3)


def test_pauli_coefficients_of_a_batch_match_each_operator(monkeypatch):
    rng = np.random.default_rng(23)
    d = 16
    dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    csr = sparse.random(d, d, density=0.2, random_state=rng, format="csr") * (1 - 2j)
    pauli_sum = PauliSum(4, [(0.7, PauliString.from_letters("XZIY")),
                             (-1.3j, PauliString.from_letters("IZZX"))])
    paulis = pauli_sum.to_sparse()
    # entry (0, 1) stored twice: summed, as toarray() does
    repeated = sparse.csr_matrix((np.array([1.0, 2.0, 3j]), np.array([1, 1, 0]),
                                  np.array([0, 2] + [3] * (d - 1))), shape=(d, d))
    # csr.conj().T is csc; the PauliSum and PauliString are read from their terms
    ops = [dense, csr, paulis, pauli_sum, csr.conj().T, PauliString.from_label("-i YXZI"),
           repeated]
    op, b, m = lindblad._pauli_coefficients(ops, d)
    i = np.arange(d)
    for k, M in enumerate(ops):
        _, bk, mk = lindblad._pauli_coefficients([M], d)
        assert np.array_equal(bk, b[op == k]) and np.array_equal(mk, m[op == k])
        # sum m[x*d + z] X^x Z^z, with X^x Z^z |i> = (-1)^(z.i) |i^x>
        rebuilt = np.zeros((d, d), complex)
        for bb, c in zip(bk, mk):
            x, z = divmod(bb, d)
            rebuilt[i ^ x, i] += c * np.where(np.bitwise_count(z & i) & 1, -1, 1)
        assert np.abs(rebuilt - as_csr(M).toarray()).max() < 1e-12
    # the sum's terms are its realization's Walsh coefficients
    assert np.array_equal(b[op == 2], b[op == 3]) and np.abs(m[op == 2] - m[op == 3]).max() < 1e-15
    # a sum's rounding residue (0.1 * 3 / 3 != 0.1) is cut like a matrix's
    residue = pauli_sum - PauliSum(4, [((0.7 * 3) / 3, PauliString.from_letters("XZIY"))])
    assert 0 < abs(dict((s.letters, c) for c, s in residue.terms)["XZIY"]) < 1e-15
    assert len(lindblad._pauli_coefficients([residue], d)[1]) == 1
    # chunks of 3 rows give the same bits
    monkeypatch.setattr(lindblad, "_STACK_ENTRIES", 3 * d)
    for x, y in zip(lindblad._pauli_coefficients(ops, d), (op, b, m)):
        assert np.array_equal(x, y)


def test_matrix_unit_transfer_is_the_kron_sum():
    rng = np.random.default_rng(31)
    d = 6
    terms = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
              sparse.random(d, d, density=0.4, random_state=rng, format="csr"))
             for _ in range(3)]
    expected = sum(np.kron(B.toarray().T, A) for A, B in terms)
    T = lindblad._matrix_unit_transfer(terms, d)
    assert np.abs(T.toarray() - expected).max() < 1e-12
    # terms that cancel up to rounding (0.1 * 3 / 3 != 0.1) leave no entry
    A, B = np.full((d, d), 0.1), terms[0][1]
    assert np.any(A * 3 / 3 != A)
    assert lindblad._matrix_unit_transfer([(A, B), (-(A * 3) / 3, B)], d).nnz == 0


def test_davies_path_realizes_no_pauli_sum(tmp_path, monkeypatch):
    # davies_reduction keeps its PauliSums, and steady states, sector
    # trajectories and the thermalize command assemble from their terms
    def refuse(*args, **kwargs):
        raise AssertionError("a Pauli sum was realized as a matrix")

    for owner in (PauliSum, PauliString):
        monkeypatch.setattr(owner, "to_sparse", refuse)
    H = toric_hamiltonian(build_torus(2), 1.0, 1.0)
    g = davies_reduction(H, full_decomps(H), 1.0, 0.5)
    assert isinstance(g.H, PauliSum) and all(isinstance(j.op, PauliSum) for j in g.jumps)
    ss = steady_states(g)
    assert ss.kernel_dim == 1 and ss.diagnostics["nnz"] == 714751
    _, populations, _ = lindblad.sector_trajectory(g, 10.0, 3)
    assert np.allclose(populations.sum(axis=1), 1.0)
    out = tmp_path / "rows.csv"
    assert cli.main(["thermalize", "--L", "2", "--t", "10", "--points", "3", "--method",
                     "krylov", "--observables", "energy,gibbs_distance,A_v,B_p",
                     "-o", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_generator_keeps_pauli_sums_and_checks_them():
    H = PauliSum(2, [(1.0, PauliString.from_letters("ZZ"))])
    K = PauliSum(2, [(0.5, PauliString.from_letters("XI")), (0.5j, PauliString.from_letters("YI"))])
    g = LindbladGenerator(4, H, (JumpOp(K, 0.3),))
    assert g.H is H and g.jumps[0].op is K
    with pytest.raises(ParameterError, match="H has the wrong shape"):
        LindbladGenerator(8, H, ())
    with pytest.raises(ParameterError, match="jump 'K' has the wrong shape"):
        LindbladGenerator(4, H, (JumpOp(PauliSum(3, [(1.0, PauliString.identity(3))]), 1.0, "K"),))
    with pytest.raises(ParameterError, match="not Hermitian"):
        LindbladGenerator(4, H * 1j, ())
    # Pauli, mixed (one matrix realizes every sum) and matrix generators
    # assemble the same form as the oracle
    mixed = LindbladGenerator(4, H, (JumpOp(K, 0.3), JumpOp(K.to_sparse().toarray(), 0.2)))
    matrix = LindbladGenerator(4, H.to_sparse(), (JumpOp(K.to_sparse(), 0.3),))
    U = pauli_basis_columns(4)
    for gen, pauli in ((g, True), (LindbladGenerator(4, H, ()), True), (mixed, False),
                       (matrix, False)):
        terms = lindblad._sandwich_terms(4, gen.H, gen.jumps)
        assert all(isinstance(o, PauliSum) for t in terms for o in t) == pauli
        exact = (U.conj().T @ build_superoperator(gen).toarray() @ U).real
        form = lindblad._block_form(terms, 4)
        assert np.abs(form.T.toarray() - exact[np.ix_(form.support, form.support)]).max() < 1e-13


def test_pauli_read_sandwich_terms_match_the_walsh_path(toric_l2):
    # the L=2 Davies terms read from their Pauli sums give the labels and,
    # to rounding, the coefficients of the Walsh transform of their matrices
    _, g, _ = toric_l2
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    ops = [o for t in terms for o in t]
    assert all(isinstance(o, PauliSum) for o in ops)
    op, b, m = lindblad._pauli_coefficients(ops, 256)
    walsh = lindblad._pauli_coefficients([o.to_sparse() for o in ops], 256)
    assert len(op) == 348 and np.array_equal(op, walsh[0]) and np.array_equal(b, walsh[1])
    peak = np.zeros(len(ops))
    np.maximum.at(peak, op, np.abs(m))
    assert (np.abs(m - walsh[2]) <= 1e-14 * peak[op]).all()
    form = lindblad._block_form(terms, 256)
    assert form.T.nnz == 714751 and len(np.unique(form.labels)) == 1024


def test_pauli_reads_and_the_transfer_make_no_pauli_string(toric_l2, monkeypatch):
    # the terms of a Pauli-sum generator are read as label and coefficient
    # arrays (PauliSum.arrays), with no PauliString per term
    _, g, _ = toric_l2
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    made, init = [], PauliString.__post_init__

    def count(self):
        made.append(self)
        init(self)

    monkeypatch.setattr(PauliString, "__post_init__", count)
    lindblad._pauli_coefficients([o for t in terms for o in t], 256)
    lindblad._pauli_transfer(terms, 256, np.zeros(1, dtype=int))
    classes = lindblad._commuting_classes(g.H, g.jumps, 256)
    assert len(classes) == 2 and not made


def test_transfer_in_chunks_of_one_shift_gives_the_same_bits(monkeypatch):
    # the shifts of the five-qubit form go in one chunk, or one at a time
    _, g = five_qubit_davies()
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    whole = lindblad._pauli_transfer(terms, g.n_levels)
    assert len(whole[1]) > 1
    monkeypatch.setattr(lindblad, "_BOUND_ENTRIES", 1)
    for x, y in zip(lindblad._pauli_transfer(terms, g.n_levels), whole):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_trace_product_matches_the_matrix_product():
    rng = np.random.default_rng(29)
    A = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    B = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    S = sparse.random(12, 12, density=0.3, random_state=rng, format="csr") * (2 + 1j)
    for X in (A, S):
        dense = X.toarray() if sparse.issparse(X) else X
        assert abs(trace_product(X, B) - np.trace(dense @ B)) < 1e-12
    assert abs(DensityMatrix.maximally_mixed(12).expectation(S)
                - np.trace(S.toarray()).real / 12) < 1e-12


def test_trajectory_from_identity_touches_one_block():
    g = mini_davies()
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    c0 = form.coefficients(np.eye(16) / 16)
    assert len(np.unique(form.labels[np.flatnonzero(c0)])) == 1


@pytest.fixture(scope="module")
def toric_l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    g = davies_reduction(H, full_decomps(H), 1.0, 0.5)
    return lat, g, build_superoperator(g)


def five_qubit_davies():
    """Davies generator of [[5,1,3]] (the cyclic shifts of XZZXI)."""
    H = StabilizerHamiltonian(5, tuple(
        StabilizerTerm(1.0, PauliString.from_letters("XZZXI"[-k:] + "XZZXI"[:-k]))
        for k in range(4)))
    return H, davies_reduction(H, full_decomps(H), 1.0, 0.5)


def seed_indices(mats, d):
    return lindblad._pauli_coefficients(mats, d)[1]


def assert_matches_exponential(g, L, starts, t, points):
    """trajectories against expm_multiply on the oracle's computational-basis
    superoperator L."""
    exact = expm_multiply(L, np.stack([vec(r.mat) for r in starts], axis=1),
                          start=0.0, stop=t, num=points, endpoint=True)
    for i, states in enumerate(trajectories(g, starts, t, points)):
        for s, e in zip(states, exact[:, :, i]):
            assert np.abs(s.mat - unvec(e)).max() < 1e-12, i


def refuse_expm_multiply(monkeypatch):
    """Make expm_multiply raise (patched on scipy.sparse.linalg, where
    lindblad imports it on first use): blocks of at most DENSE_BLOCK_LIMIT
    elements step by their dense exponential."""
    def refuse(*args, **kwargs):
        raise AssertionError("expm_multiply ran on a block of at most DENSE_BLOCK_LIMIT")

    monkeypatch.setattr(sparse.linalg, "expm_multiply", refuse)


def test_seeded_trajectories_match_the_superoperator_exponential(toric_l2, monkeypatch):
    # from I/d (one coset), a loop-coset state (two) and a random state (all);
    # every block of 64 steps by its dense exponential
    refuse_expm_multiply(monkeypatch)
    lat, g, L = toric_l2
    d = g.n_levels
    W = loop_operators(lat)["Wx1"].to_sparse().toarray()
    starts = [DensityMatrix.maximally_mixed(d), DensityMatrix((np.eye(d) + 0.5 * W) / d),
              DensityMatrix(random_density(d, np.random.default_rng(43)))]
    assert_matches_exponential(g, L, starts, 0.3, 3)
    for rho0, cosets in zip(starts, (1, 2, 1024)):
        seeded = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), d,
                                      seeds=seed_indices([rho0.mat], d))
        assert len(seeded.support) == 64 * cosets


def assert_steps_match_dense_blocks(form, c0, times, method="expm"):
    """_propagate (batched dense steps, or expm_multiply above
    DENSE_BLOCK_LIMIT) against a dense expm of each block, at every grid
    point; ``method`` is the diagnostic it must report."""
    for t in times:
        cs, diag = lindblad._propagate(form, c0, t, 3)
        assert diag["method"] == method
        for members in form.blocks():
            for b, block in zip(members, form.dense(members)):
                for p, tk in enumerate(np.linspace(0, t, 3)):
                    assert np.abs(cs[p, b] - expm(block * tk) @ c0[b]).max() < 1e-13, (t, p)


def test_krylov_matches_dense_exponential_of_each_block(monkeypatch):
    # the L=2 identity coset at several temperatures, then two non-normal
    # generators: the RWA composite (Pauli basis, no detailed balance) and
    # the damped qutrit (matrix units)
    refuse_expm_multiply(monkeypatch)
    H = toric_hamiltonian(build_torus(2), 1.0, 1.0)
    decomps = full_decomps(H)
    for beta in (0.5, 1.0, 2.0, 3.0):
        g = davies_reduction(H, decomps, beta, 0.5)
        form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps),
                                    g.n_levels, seeds=np.zeros(1, dtype=int))
        c0 = (form.support == 0)[:, None] / np.sqrt(g.n_levels)
        assert_steps_match_dense_blocks(form, c0, (1.0, 10.0, 100.0))
    rng = np.random.default_rng(47)
    for g in (three_qubit_rwa_composite(), damped_qutrit()):
        d = g.n_levels
        form = lindblad._block_form(lindblad._sandwich_terms(d, g.H, g.jumps), d)
        c0 = np.stack([form.coefficients(random_density(d, rng)) for _ in range(2)], axis=1)
        assert_steps_match_dense_blocks(form, c0, (1.0, 10.0, 100.0))


def test_krylov_above_the_dense_block_limit_runs_expm_multiply(toric_l2, monkeypatch):
    # a block above DENSE_BLOCK_LIMIT takes expm_multiply: the L=2 identity
    # coset (64 elements, limit 32), then every block of two or more
    # elements (limit 1) of two non-normal generators, the RWA composite
    # (Pauli basis) and the damped qutrit (matrix units)
    _, g, _ = toric_l2
    d = g.n_levels
    form = lindblad._block_form(lindblad._sandwich_terms(d, g.H, g.jumps), d,
                                seeds=np.zeros(1, dtype=int))
    c0 = (form.support == 0)[:, None] / np.sqrt(d)
    monkeypatch.setattr(lindblad, "DENSE_BLOCK_LIMIT", 32)
    assert_steps_match_dense_blocks(form, c0, (1.0, 10.0, 100.0), "krylov")
    monkeypatch.setattr(lindblad, "DENSE_BLOCK_LIMIT", 1)
    rng = np.random.default_rng(53)
    for g in (three_qubit_rwa_composite(), damped_qutrit()):
        d = g.n_levels
        form = lindblad._block_form(lindblad._sandwich_terms(d, g.H, g.jumps), d)
        assert form.sizes.max() > 1
        c0 = np.stack([form.coefficients(random_density(d, rng)) for _ in range(2)], axis=1)
        assert_steps_match_dense_blocks(form, c0, (1.0, 10.0, 100.0), "expm,krylov")


def test_blocks_up_to_the_dense_limit_build_no_csr(toric_l2, monkeypatch):
    # steady states, commutants and sector trajectories read every dense
    # block from the form's slots; only ARPACK and expm_multiply, above
    # DENSE_BLOCK_LIMIT, take a block's csr matrix
    lat, g, _ = toric_l2
    restrict = lindblad._BlockForm.restrict

    def refuse(form, members):
        raise AssertionError("csr matrix built")

    monkeypatch.setattr(lindblad._BlockForm, "restrict", refuse)
    ss = steady_states(g)
    assert ss.kernel_dim == 1
    assert (ss.diagnostics["nnz"], ss.diagnostics["blocks"]) == (714751, 1024)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    decomps = full_decomps(H)
    translations = [H.as_sum()] + [j.op for j in davies_reduction(
        H, decomps, 1.0, 0.5, include=("translate",)).jumps]
    full = [H.as_sum()] + [j.op for j in g.jumps]
    assert commutant_dimension(translations, 256, max_dim=2)[0] == 2
    count, _, diag = commutant_dimension(full, 256, max_dim=2)
    assert count == 1 and (diag["blocks"], diag["max_block"], diag["nnz"]) == (13088, 32, 475135)
    _, pops, _ = lindblad.sector_trajectory(g, 10.0, 3)

    built = []

    def counted(form, members):
        built.append(members.shape)
        return restrict(form, members)

    monkeypatch.setattr(lindblad._BlockForm, "restrict", counted)
    monkeypatch.setattr(lindblad, "DENSE_BLOCK_LIMIT", 32)
    _, above, _ = lindblad.sector_trajectory(g, 10.0, 3)
    assert built == [(1, 64)] and np.abs(above - pops).max() < 1e-12
    monkeypatch.setattr(lindblad, "DENSE_BLOCK_LIMIT", 16)  # blocks of up to 32 to ARPACK
    assert commutant_dimension(translations, 256, max_dim=2)[0] == 2
    assert len(built) > 1 and all(s > 16 for _, s in built[1:])


def test_seeded_coset_span_comes_from_every_term():
    # H = Z with the jump (X + Z)/sqrt(2): G = K^dag K = I, so the
    # Hamiltonian terms shift nothing off {I, Z}, while the jump moves Z to X
    K = sparse.csr_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    g = LindbladGenerator(2, np.diag([1.0, -1.0]), (JumpOp(K, 0.3),))
    rho0 = DensityMatrix(np.diag([0.8, 0.2]))
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), 2,
                                seeds=seed_indices([rho0.mat], 2))
    assert len(form.support) == 4
    assert_matches_exponential(g, build_superoperator(g), [rho0], 2.0, 4)


def test_seeded_form_from_identity_is_one_block_of_64(toric_l2):
    _, g, _ = toric_l2
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    seeded = lindblad._block_form(terms, 256, seeds=seed_indices([np.eye(256) / 256], 256))
    assert len(seeded.support) == 64 and len(np.unique(seeded.labels)) == 1
    full = lindblad._block_form(terms, 256)
    at = np.argsort(full.support)  # the full form's index of each label
    labels = full.labels[at]
    block = np.flatnonzero(labels == labels[0])
    assert np.array_equal(seeded.support, block)
    assert seeded.T.nnz == 639
    assert (seeded.T != full.T[at[block]][:, at[block]]).nnz == 0


def test_seeded_form_holds_the_full_blocks_of_its_seeds():
    # the stabilizer group of [[5,1,3]] is not a product of X- and Z-parts,
    # so the grid of x-parts by z-parts reaches past the cosets; a logical
    # state and one random Pauli term seed several cosets
    H, g = five_qubit_davies()
    d = g.n_levels
    _, v = np.linalg.eigh(H.to_dense())
    psi = v[:, 0]
    extra = PauliSum(5, [(0.1, PauliString.from_letters("XIIYZ"))]).to_sparse().toarray()
    rho0 = DensityMatrix((np.outer(psi, psi.conj()) + (np.eye(d) + extra) / d) / 2)
    seeds = seed_indices([rho0.mat], d)
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    seeded = lindblad._block_form(terms, d, seeds=seeds)
    full = lindblad._block_form(terms, d)
    n = d.bit_length() - 1
    grid = len(np.unique(seeded.support >> n)) * len(np.unique(seeded.support & (d - 1)))
    assert grid > len(seeded.support)
    # whole blocks of the full form, every block holding a seed among them
    at = np.argsort(full.support)  # the full form's index of each label
    labels = full.labels[at]
    inside = np.isin(labels, labels[seeded.support])
    assert np.array_equal(np.flatnonzero(inside), np.sort(seeded.support))
    assert np.isin(seeds, seeded.support).all() and len(seeded.support) < d * d
    assert (seeded.T != full.T[at[seeded.support]][:, at[seeded.support]]).nnz == 0
    assert len(np.unique(seeded.labels)) == len(np.unique(labels[seeded.support]))
    # several cosets, each shift an XOR of the coset coordinate: rows = arange ^ sigma
    assert len(seeded.support) > seeded.coset
    assert np.array_equal(seeded.rows, np.arange(len(seeded.support)) ^ seeded.rows[:, :1])
    assert_matches_exponential(g, build_superoperator(g), [rho0], 2.0, 3)


def assert_blocks_are_the_slot_graph_components(form):
    """The form's coset-by-coset labelling against connected_components of
    its whole slot graph: labels, sizes, order and position, and nnz and
    each column's depth (one past its last live slot)."""
    labels, sizes, order, position = slot_graph_blocks(form)
    assert np.array_equal(form.labels, labels) and np.array_equal(form.sizes, sizes)
    assert np.array_equal(form.order, order) and np.array_equal(form.position, position)
    live = form.weights != 0
    assert form.nnz == live.sum()
    assert np.array_equal(form.depth, np.where(live.any(axis=0),
                                               len(live) - np.argmax(live[::-1], axis=0), 0))


def benchmark_davies_l2(seed):
    """The L=2 Davies generator at the parameters the davies-steady-l2
    benchmark workload draws for ``seed``."""
    rng = random.Random(seed)
    beta, gamma0 = rng.uniform(0.9, 1.1), rng.uniform(0.45, 0.55)
    H = toric_hamiltonian(build_torus(2), rng.uniform(0.9, 1.1), rng.uniform(0.9, 1.1))
    return davies_reduction(H, full_decomps(H), beta, gamma0)


def commutant_forms(H, jumps, monkeypatch):
    """The block forms ergodicity_check builds for the jumps of H: the
    full-set commutant first, then the eigenspace ones."""
    forms = []

    def record(*args, **kwargs):
        forms.append(lindblad._block_form(*args, **kwargs))
        return forms[-1]

    monkeypatch.setattr(verify, "_block_form", record)
    verify.ergodicity_check(H, [j.op for j in jumps], max_commutant=2)
    monkeypatch.undo()
    return forms


def test_coset_labelling_is_the_slot_graph_components(toric_l2, monkeypatch):
    lat, g, _ = toric_l2
    for seed in (1, 2, 3):  # 1024 cosets of 64, one block each
        davies = benchmark_davies_l2(seed)
        form = lindblad._block_form(lindblad._sandwich_terms(256, davies.H, davies.jumps), 256)
        assert (form.coset, len(form.sizes)) == (64, 1024)
        assert_blocks_are_the_slot_graph_components(form)
    # the commutant forms, where cosets split: the [[5,1,3]] full set and the
    # L=2 translation-only set, then their eigenspaces (matrix units at 12, 48)
    code, code_davies = five_qubit_davies()
    torus = toric_hamiltonian(lat, 1.0, 1.0)
    translations = davies_reduction(torus, full_decomps(torus), 1.0, 0.5, include=("translate",))
    for H, jumps in ((code, code_davies.jumps), (torus, translations.jumps)):
        forms = commutant_forms(H, jumps, monkeypatch)
        assert len(forms[0].sizes) > len(forms[0].support) // forms[0].coset
        assert any(form.basis == "matrix-unit" for form in forms)
        for form in forms:
            assert_blocks_are_the_slot_graph_components(form)
    # the RWA composite of ZZ with four ancillas (d = 64), seeded forms of
    # several cosets, and matrix-unit forms (one class, the whole support)
    W = loop_operators(lat)["Wx1"].to_sparse().toarray()
    rho = (np.eye(256) + 0.5 * W) / 256
    seeded = lindblad._block_form(lindblad._sandwich_terms(256, g.H, g.jumps), 256,
                                  seeds=seed_indices([rho], 256))
    assert len(seeded.support) == 2 * seeded.coset == 128
    assert_blocks_are_the_slot_graph_components(seeded)
    composite = rwa_composite_64()
    for gen, seeds in ((composite, None), (composite, np.array([0, 5, 4000])),
                       (damped_qutrit(), None), (random_generator(3, 5), None)):
        d = gen.n_levels
        form = lindblad._block_form(lindblad._sandwich_terms(d, gen.H, gen.jumps), d, seeds=seeds)
        assert_blocks_are_the_slot_graph_components(form)


def test_coset_labelling_of_a_hand_built_form():
    # two cosets of four, the first holding labels 4..7: shift 1 joins all of
    # it, shift 2 joins t = 0, 2, so it is one block; the second splits into
    # {0, 1} and the isolated 2 and 3. Blocks are numbered by smallest label
    sigma = np.array([0, 1, 2])
    weights = np.array([[-1.0] * 8,
                        [0.5, 0.5, 0.5, 0.5, 0.3, 0.3, 0, 0],
                        [0.2, 0, 0.2, 0, 0, 0, 0, 0]])
    form = lindblad._BlockForm("pauli", np.array([4, 5, 6, 7, 0, 1, 2, 3]),
                               np.arange(8) ^ sigma[:, None], weights, np.arange(3)[:, None], 4,
                               None, None, False)
    assert np.array_equal(form.labels, [3, 3, 3, 3, 0, 0, 1, 2])
    assert np.array_equal(form.sizes, [2, 1, 1, 4])
    assert np.array_equal(form.order, [4, 5, 6, 7, 0, 1, 2, 3])
    assert_blocks_are_the_slot_graph_components(form)


def pauli_basis_columns(d):
    """vec(sigma_b) for every label b = x*d + z, as columns: sigma_b =
    i^|x & z| X^x Z^z / sqrt(d), with X^x Z^z |i> = (-1)^(z.i) |i^x>."""
    i = np.arange(d)
    U = np.zeros((d * d, d * d), complex)
    for b in range(d * d):
        x, z = divmod(b, d)
        M = np.zeros((d, d), complex)
        M[i ^ x, i] = np.where(np.bitwise_count(z & i) & 1, -1, 1)
        U[:, b] = vec(1j ** np.bitwise_count(x & z) * M) / np.sqrt(d)
    return U


@pytest.mark.parametrize("make", [mini_davies, lambda: five_qubit_davies()[1],
                                  lambda: random_generator(8, 11)])
def test_block_form_is_the_oracle_superoperator_in_the_pauli_basis(make):
    # entry by entry, T = U^dag L U on the support, U's columns vec(sigma_b)
    # and L the oracle's column-stacking superoperator: every sign and phase
    # of the product-rule assembly, on the full form and on seeded ones
    g = make()
    d = g.n_levels
    U = pauli_basis_columns(d)
    exact = U.conj().T @ build_superoperator(g).toarray() @ U
    assert np.abs(exact.imag).max() < 1e-13
    terms = lindblad._sandwich_terms(g.n_levels, g.H, g.jumps)
    rng = np.random.default_rng(17)
    for seeds in (None, np.zeros(1, dtype=int), rng.choice(d * d, 3, replace=False)):
        form = lindblad._block_form(terms, d, seeds=seeds)
        want = exact.real[np.ix_(form.support, form.support)]
        assert np.abs(form.T.toarray() - want).max() < 1e-13


def test_trajectories_reject_non_finite_time_and_fail_loudly():
    g = two_level(0.5, 0.1)
    rho0 = DensityMatrix.maximally_mixed(2)
    for t in (np.nan, np.inf, -1.0):
        with pytest.raises(ParameterError, match="t must be"):
            trajectory(g, rho0, t, 3)
    # points, as trotterize's n_steps: an integral float passes as an int
    for points in (2.5, True, "3", 1):
        with pytest.raises(ParameterError, match="points"):
            trajectory(g, rho0, 1.0, points)
        with pytest.raises(ParameterError, match="points"):
            lindblad.sector_trajectory(mini_davies(), 1.0, points)
    assert len(trajectory(g, rho0, 1.0, 3.0)) == 3
    assert len(lindblad.sector_trajectory(mini_davies(), 1.0, 3.0)[1]) == 3
    with pytest.raises(NumericalError):
        trajectory(g, rho0, 1e300, 3)
    # the trace check alone would pass a NaN state
    with pytest.raises(NumericalError, match="non-finite"):
        lindblad._finalize_state(np.full((2, 2), np.nan))


def test_evolved_states_clip_below_the_clip_threshold_and_warn_below_positivity(monkeypatch):
    # one eigenvalue below -CLIP_TOL clips silently; below -POSITIVITY_TOL
    # it also warns. The sector reader keeps the same thresholds: on the
    # mini model (I/16 and ZZZZ/16, two sectors of 8) a propagation is
    # replaced by one that gives a sector eigenvalue ``low``
    g = mini_davies()
    for low, warns in ((-1e-7, False), (-1e-5, True), (-1e-9, False)):
        coefficients = np.array([[1 / 16, 1 / 16 - low]]).T * 4  # sigma_b = P_b / 4
        cs = np.stack([coefficients] * 3)
        monkeypatch.setattr(lindblad, "_propagate", lambda *args: (cs, {}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rho = lindblad._finalize_state(np.diag([1.0 - low, low]).astype(complex))
            _, pops, diag = lindblad.sector_trajectory(g, 1.0, 3)
        assert len(caught) == 2 * warns
        assert np.isclose(diag["smallest"], low, rtol=1e-6, atol=0)
        if low < -lindblad.CLIP_TOL:
            assert np.allclose(rho.mat, np.diag([1.0, 0.0]), atol=1e-15)
            assert diag["clipped"] == 3 and np.allclose(pops, [[1.0, 0.0]] * 3, atol=1e-15)
        else:  # above -CLIP_TOL nothing is clipped
            assert np.isclose(rho.mat[1, 1].real, low, rtol=1e-12, atol=0)
            assert diag["clipped"] == 0 and (pops < 0).sum() == 3


def five_qubit_strings():
    """The [[5,1,3]] stabilizers, the third with phase -1."""
    return [PauliString.from_letters("XZZXI"[-k:] + "XZZXI"[:-k], "-1" if k == 2 else "+1")
            for k in range(4)]


def group_elements(strings):
    """The elements other than I of the group the commuting ``strings``
    generate, one per label."""
    out = {}
    for bits in itertools.product((0, 1), repeat=len(strings)):
        p = PauliString.identity(strings[0].n)
        for b, s in zip(bits, strings):
            p = p * s if b else p
        out[p.x, p.z] = p
    return [p for (x, z), p in out.items() if x or z]


@pytest.mark.parametrize("strings", [
    [t.stabilizer for t in toric_hamiltonian(build_torus(2), 1.0, 1.0).terms],
    [t.stabilizer for t in single_vertex_model(1.0).terms],
    five_qubit_strings(),
], ids=["toric-l2", "mini-vertex", "five-qubit"])
def test_sector_spectrum_matches_dense_eigenvalues(strings):
    n = strings[0].n
    d = 1 << n
    sectors = Sectors([(p.x << n) | p.z for p in strings], d)
    group = group_elements(strings)
    rng = np.random.default_rng(len(strings))
    for _ in range(3):
        # I/d plus a random element of span(S) small enough to stay positive
        a = rng.uniform(-1, 1, len(group)) / (d * len(group))
        rho = np.eye(d) / d + sum(c * p.to_dense() for c, p in zip(a, group))
        pops = sectors.state(rho)[0]
        mult = d // len(pops)
        assert mult * len(pops) == d
        mine = np.sort(np.repeat(pops / mult, mult))
        assert np.abs(mine - np.linalg.eigvalsh(rho)).max() < 1e-12
        # the characters are the stabilizers' values on each sector
        for p, chi in zip(strings, sectors.characters(strings)):
            assert abs(pops @ chi - np.trace(p.to_dense() @ rho).real) < 1e-12
    twice = sectors.characters(strings + strings)  # a string may repeat
    assert np.array_equal(twice[:len(strings)], twice[len(strings):])


def test_sectors_refuse_anticommuting_support_and_strings_outside_it():
    x, z = PauliString.from_letters("XI"), PauliString.from_letters("ZI")
    with pytest.raises(NumericalError, match="anticommuting"):
        Sectors([(p.x << 2) | p.z for p in (x, z)], 4)
    zz = Sectors([(z.x << 2) | z.z], 4)
    with pytest.raises(NumericalError, match="off the sector group"):
        zz.characters([x, z])
    # weight off the group is refused when reading a state
    with pytest.raises(NumericalError, match="off the sector group"):
        zz.state((np.eye(4) + 0.5 * x.to_dense()) / 4)
    assert np.allclose(zz.state((np.eye(4) + 0.5 * z.to_dense()) / 4), [[0.75, 0.25]])


def test_sectors_refuse_wide_labels_and_oversized_tables():
    # labels are 2n-bit int64s, so 32 qubits (L=4) are refused before any is
    # packed; the L=3 torus' 2^16 sectors hold its stabilizers' table, and a
    # table of more than 4^DENSE_LIMIT entries is refused before it is filled
    H4 = toric_hamiltonian(build_torus(4), 1.0, 1.0)
    with pytest.raises(CapacityError, match="62 bits"):
        Sectors([(t.stabilizer.x << 32) | t.stabilizer.z for t in H4.terms], 1 << 32)
    strings = [t.stabilizer for t in toric_hamiltonian(build_torus(3), 1.0, 1.0).terms]
    sectors = Sectors([(p.x << 18) | p.z for p in strings], 1 << 18)
    chi = sectors.characters(strings)
    assert chi.shape == (18, 1 << 16) and sectors.multiplicity == 4
    assert np.array_equal(np.abs(chi), np.ones_like(chi)) and not chi.sum(axis=1).any()
    with pytest.raises(CapacityError, match="entries"):
        sectors.values([0], [0], np.zeros((1, (1 << 12) + 1)))


def joint_kernel(g):
    """The joint solver on the full form, called directly: the form and
    ``_BlockForm.kernel``'s (eigenvalues, kernel dimension, kernel,
    diagnostics) at steady_states' threshold."""
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    scale = form.scale()
    return form, form.kernel(lindblad.KERNEL_TOL * scale, scale, lindblad.STEADY_EIGENVALUES,
                             lindblad.MAX_KERNEL)


def test_toric_l2_davies_gap(monkeypatch):
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    g = davies_reduction(H, full_decomps(H), 1.0, 0.5)
    stacked = []  # the matrices of every batched eigvalsh: the bounds
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacked.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    _, (_, n_kernel, _, diagnostics) = joint_kernel(g)
    assert n_kernel == 1
    # on the joint form, eigvals runs on the 15 blocks whose Bendixson bound
    # can reach the reported spectrum, not on all 1024
    assert diagnostics["refined"] == 15
    # and the Gershgorin screen leaves eigvalsh bounds on 67: the 53 blocks
    # whose screen is below -1.7, and 14 whose screen equals the sixth
    # |lambda|, 0.146525, to 1e-14 (their bounds are at least 0.293)
    assert diagnostics["bounded"] == 67
    assert sum(stacked) == diagnostics["bounded"]
    ss = steady_states(g)
    assert ss.kernel_dim == 1 and ss.diagnostics["classes"] == 2
    # 1024 blocks of 64, and no rounding residue stored (3,014,656 nonzeros
    # in the computational basis)
    assert ss.diagnostics["blocks"] == 1024 and ss.diagnostics["max_block"] == 64
    assert ss.diagnostics["nnz"] == 714751
    assert abs(np.sort(np.abs(ss.eigenvalues))[1] - 0.121675) < 1e-6


def davies_steady_l2(seed):
    """The L=2 Davies generator at the benchmark's davies-steady-l2
    parameters for ``seed``."""
    rng = random.Random(seed)
    beta, gamma0, lam_e, lam_m = (rng.uniform(*r) for r in ((0.9, 1.1), (0.45, 0.55),
                                                           (0.9, 1.1), (0.9, 1.1)))
    H = toric_hamiltonian(build_torus(2), lam_e, lam_m)
    return davies_reduction(H, full_decomps(H), beta, gamma0)


def assert_same_spectrum(found, joint, tol):
    """``found`` (sorted by |lambda|) is a prefix of ``joint`` to ``tol``, up
    to the order of values of one |lambda| (conjugate pairs)."""
    assert np.abs(np.abs(found) - np.abs(joint[:len(found)])).max() <= tol
    assert np.abs(found[:, None] - joint[None]).min(axis=1).max() <= tol


@pytest.mark.parametrize("seed", range(1, 6))
def test_factored_l2_steady_state_matches_the_joint_solver(seed):
    # the two commuting classes' spectra give the joint form's to rounding,
    # and the kernel vector comes from the joint form on its coset alone
    g = davies_steady_l2(seed)
    ss = steady_states(g)
    form, (vals, n_kernel, kernel, diagnostics) = joint_kernel(g)
    assert ss.kernel_dim == n_kernel == 1
    d = ss.diagnostics
    assert (d["classes"], d["blocks"], d["max_block"], d["nnz"]) == (2, 1024, 64, 714751)
    assert d["keys"] == [256, 256]
    # every joint block's spectrum is computed, as the Kronecker sum of two
    assert d["bounded"] == d["refined"] == d["blocks"]
    assert_same_spectrum(ss.eigenvalues, vals, 1e-12)
    assert abs(d["margin"] / diagnostics["margin"] - 1) < 1e-12
    (members, v), = kernel
    coeffs = np.zeros((len(form.support), 1), complex)
    coeffs[members] = v
    rho = unvec(form.vectors(coeffs)[:, 0])
    rho = (rho + rho.conj().T) / 2
    assert trace_distance(ss.state.mat, rho / np.trace(rho)) <= 1e-15


def test_factored_path_assembles_no_joint_form(monkeypatch):
    # the L=2 Davies steady state seeds every Pauli form: the two class
    # forms with one representative per key (256 keys of 4 of the 1024
    # cosets, 2048 elements), the joint form on the kernel's coset of 64
    supports, seeded, transfer = [], [], lindblad._pauli_transfer

    def spy(terms, d, seeds=None):
        assert seeds is not None, "a Pauli form was assembled on every element"
        out = transfer(terms, d, seeds)
        supports.append(len(out[0]))
        seeded.append(len(seeds))
        return out

    monkeypatch.setattr(lindblad, "_pauli_transfer", spy)
    ss = steady_states(davies_steady_l2(1))
    assert ss.kernel_dim == 1 and ss.diagnostics["keys"] == [256, 256]
    assert max(supports) <= 2048 and sorted(supports) == [64, 2048, 2048]
    assert sorted(seeded) == [1, 256, 256]


def test_factored_kernel_builds_no_index_array_of_every_label(monkeypatch):
    # the coset representatives come from inserting zero bits, not from
    # np.arange(d * d): at L=3 that would hold 2^36 labels
    g = davies_steady_l2(1)
    d, arange = g.n_levels, np.arange
    classes = lindblad._commuting_classes(g.H, g.jumps, d)

    def spy(*args, **kwargs):
        out = arange(*args, **kwargs)
        assert out.size < d * d, "an index array of every label"
        return out

    monkeypatch.setattr(np, "arange", spy)
    assert lindblad._factored_kernel(classes, d)[4]["keys"] == [256, 256]


def test_class_keys_are_one_per_coset_and_blind_to_the_other_class():
    # a key is constant on each coset b ^ S_c, and a product with the other
    # class's span (which commutes with every term of this class) keeps it
    g = davies_steady_l2(1)
    d, n = g.n_levels, 8
    classes = lindblad._commuting_classes(g.H, g.jumps, d)
    b = np.random.default_rng(0).integers(0, d * d, 64)
    for (H, jumps, basis), (*_, other) in zip(classes, classes[::-1]):
        terms = [s.x << n | s.z for o in (H, *(j.op for j in jumps)) for _, s in o.terms]
        for vectors in (basis, other):
            span = np.zeros(1, dtype=int)
            for v in vectors:
                span = np.concatenate([span, span ^ v])
            keys = lindblad._class_keys((b[:, None] ^ span).ravel(), terms, basis, n)
            assert (keys.reshape(64, 8) == keys[::8, None]).all()
        # while single-qubit X_j and Z_j, which anticommute with some term, move b off its key
        singles = [1 << (n + j) for j in range(n)] + [1 << j for j in range(n)]
        assert len(np.unique(lindblad._class_keys(b[0] ^ np.array(singles), terms, basis, n))) > 1


def test_commuting_classes_split_the_toric_davies_generator_by_stabilizer_type():
    g = davies_steady_l2(1)
    classes = lindblad._commuting_classes(g.H, g.jumps, g.n_levels)
    assert [len(h.terms) + len(jumps) for h, jumps, _ in classes] == [28, 28]
    kinds = []
    for h, jumps, basis in classes:
        # the plaquettes (Z-type) with the x-jumps, X_j times plaquette
        # projectors; the vertices (X-type) with the z-jumps. Each span is
        # that type's stabilizer group, of rank 3
        z_type = all(s.x == 0 for _, s in h.terms)
        assert z_type or all(s.z == 0 for _, s in h.terms)
        assert len(basis) == 3 and all((int(b) >> 8 == 0) == z_type for b in basis)
        assert all((s.x if z_type else s.z).bit_count() == 1
                   for j in jumps for _, s in j.op.terms)
        kinds.append(z_type)
    assert sorted(kinds) == [False, True]


def pauli_jump(n, *letters, rate=0.3):
    return JumpOp(PauliSum(n, [(1.0, PauliString.from_letters(s)) for s in letters]), rate)


def test_commuting_classes_join_dependent_spans_and_fold_diagonal_parts():
    # the first two jumps and the term ZZIII all shift by ZZIII and commute
    # with each other: their spans are dependent, so they join. The one-term
    # jump (span {0}) folds into that class, the X-type jump with IIIXX is a
    # class of its own, and the zero-rate jump, which would join them all,
    # is no part
    n = 5
    jumps = (pauli_jump(n, "ZIIII", "IZIII"), pauli_jump(n, "ZIZII", "IZZII"),
             pauli_jump(n, "IIIXI", "IIIIX"), pauli_jump(n, "ZIIII"), pauli_jump(n, "XXXXX", rate=0))
    H = PauliSum(n, [(0.5, PauliString.from_letters(s)) for s in ("ZZIII", "IIIXX")])
    classes = lindblad._commuting_classes(H, jumps, 1 << n)
    assert [([s.letters for _, s in h.terms], [jumps.index(j) for j in js], len(b))
            for h, js, b in classes] == [(["ZZIII"], [0, 1, 3], 1), (["IIIXX"], [2], 1)]


def test_commuting_classes_are_one_when_spans_are_dependent_as_a_whole():
    # shifts ZZI, IZZ and ZIZ: pairwise independent, dependent together
    jumps = tuple(pauli_jump(3, a, b) for a, b in (("ZII", "IZI"), ("IZI", "IIZ"), ("ZII", "IIZ")))
    assert len(lindblad._commuting_classes(PauliSum(3), jumps, 8)) == 1
    assert len(lindblad._commuting_classes(PauliSum(3), jumps[:2], 8)) == 2


def test_translation_only_l2_kernel_is_refused_on_the_factored_path():
    # the class spectra hold 129 kernel eigenvalues (> MAX_KERNEL), as the
    # joint form does, and steady_states raises
    H = toric_hamiltonian(build_torus(2), 1.0, 1.0)
    g = davies_reduction(H, full_decomps(H), 1.0, 0.5, include=("translate",))
    assert len(lindblad._commuting_classes(g.H, g.jumps, g.n_levels)) == 2
    assert joint_kernel(g)[1][1] == 129
    with pytest.raises(NumericalError, match="kernel dimension 129 exceeds the cap 64"):
        steady_states(g)


def test_factored_kernel_threshold_and_band_are_the_joint_ones():
    # two damped qubits as Pauli sums split into two classes; the kernel
    # count and the ambiguity band are read from the class spectra
    def damped(gamma):
        return LindbladGenerator(4, PauliSum(2), tuple(
            JumpOp(PauliSum(2, [(0.5, PauliString.single(2, q, "x")),
                                (0.5j, PauliString.single(2, q, "y"))]), rate)
            for q, rate in ((0, 1.0), (1, gamma))))

    # both name the smallest |lambda| in the band
    with pytest.raises(NumericalError, match="ambiguous") as joint:
        joint_kernel(damped(1e-10))
    with pytest.raises(NumericalError, match="ambiguous") as factored:
        steady_states(damped(1e-10))
    assert str(factored.value) == str(joint.value)
    # far below the threshold the slow qubit's whole operator space is kernel
    for gamma, kernel_dim in ((1e-6, 1), (1e-15, 4)):
        ss = steady_states(damped(gamma))
        assert ss.diagnostics["classes"] == 2
        assert ss.kernel_dim == joint_kernel(damped(gamma))[1][1] == kernel_dim


def test_class_form_with_a_cut_shift_takes_the_joint_path():
    # the first jump's second term lies below ROUNDOFF of its first, so its
    # class form has no shift IXX and no coset of the class span: the split
    # (by the terms alone) is two classes, but the joint path runs
    g = LindbladGenerator(8, PauliSum(3), (
        JumpOp(PauliSum(3, [(1.0, PauliString.from_letters("IIX")),
                            (1e-14, PauliString.from_letters("IXI"))]), 0.3),
        JumpOp(PauliSum(3, [(0.5, PauliString.from_letters("XII")),
                            (0.5j, PauliString.from_letters("YII"))]), 0.2)))
    assert len(lindblad._commuting_classes(g.H, g.jumps, g.n_levels)) == 2
    ss = steady_states(g)
    _, (vals, n_kernel, _, diagnostics) = joint_kernel(g)
    assert ss.diagnostics["classes"] == 1 and ss.kernel_dim == n_kernel == 8
    assert np.array_equal(ss.eigenvalues, vals[:len(ss.eigenvalues)])


@pytest.mark.parametrize("make", [lambda: five_qubit_davies()[1], rwa_composite_64,
                                  three_qubit_rwa_composite, mini_davies])
def test_unsplit_generators_take_the_joint_path(make):
    # [[5,1,3]], the d=64 and d=8 RWA composites and the mini vertex do not
    # split: steady_states is the joint solver, bit for bit
    g = make()
    ss = steady_states(g)
    _, (vals, n_kernel, _, diagnostics) = joint_kernel(g)
    assert ss.diagnostics["classes"] == 1 and ss.diagnostics["keys"] is None
    assert ss.kernel_dim == n_kernel
    assert np.array_equal(ss.eigenvalues, vals[:len(ss.eigenvalues)])
    assert {k: v for k, v in ss.diagnostics.items()
            if k not in ("classes", "keys", "seconds")} == diagnostics


def test_blocks_above_the_dense_limit_match_sparse_oracle():
    # 6 damped qubits under a random 8-term Pauli H: two blocks of 2048,
    # above DENSE_BLOCK_LIMIT, so each goes through shift-invert ARPACK
    rng = np.random.default_rng(3)
    n = 6
    terms = [(rng.normal(), PauliString.from_letters("".join(rng.choice(list("IXYZ"), n))))
             for _ in range(8)]
    H = PauliSum(n, terms).to_sparse()
    jumps = tuple(JumpOp(PauliSum(n, [(0.5, PauliString.single(n, q, "x")),
                                      (0.5j, PauliString.single(n, q, "y"))]).to_sparse(), 0.3)
                  for q in range(n))
    g = LindbladGenerator(1 << n, (H + H.conj().T) / 2, jumps)
    ss = steady_states(g)
    assert ss.diagnostics["max_block"] > lindblad.DENSE_BLOCK_LIMIT
    L = build_superoperator(g)
    oracle = sparse_eigs(L, k=6, sigma=1e-9, which="LM", return_eigenvectors=False)
    assert np.allclose(np.sort(np.abs(ss.eigenvalues))[:6], np.sort(np.abs(oracle)), atol=1e-8)
    assert ss.kernel_dim == 1
    assert np.linalg.norm(L @ vec(ss.state.mat)) < 1e-10
    # ARPACK starts from a fixed vector, so a second solve agrees bit for bit
    again = steady_states(g)
    assert np.array_equal(ss.eigenvalues, again.eigenvalues)
    assert np.array_equal(ss.kernel_basis, again.kernel_basis) and ss.residual == again.residual


def test_steady_state_diagnostics():
    g = two_level(1.0, 0.25)
    ss = steady_states(g)
    d = ss.diagnostics
    assert set(d) == {"basis", "blocks", "max_block", "nnz", "bounded", "refined", "seconds",
                      "margin", "classes", "keys"}
    assert d["classes"] == 1 and d["keys"] is None  # its jumps are matrices
    # k = 6 lowest bounds take all 2 blocks
    assert d["refined"] == d["bounded"] == d["blocks"]
    assert d["basis"] == "pauli" and d["max_block"] <= 4 and d["nnz"] > 0
    form = lindblad._block_form(lindblad._sandwich_terms(g.n_levels, g.H, g.jumps), g.n_levels)
    thresh = 1e-10 * form.scale()
    assert np.isclose(d["margin"], np.sort(np.abs(ss.eigenvalues))[1] / thresh)
    assert d["margin"] > 100


def test_steady_states_skip_a_kernel_state_below_the_clip_threshold(monkeypatch):
    # a kernel state is validated once, by DensityMatrix: one with its
    # smallest eigenvalue below -CLIP_TOL (but above -POSITIVITY_TOL) is
    # skipped, not raised; one above -CLIP_TOL is kept
    g = two_level(1.0, 0.25)
    for low, kept in ((-1e-7, 0), (-1e-9, 1)):
        monkeypatch.setattr(lindblad, "unvec", lambda v: np.diag([1 - low, low]).astype(complex))
        ss = steady_states(g)
        assert ss.kernel_dim == 1 and len(ss.states) == kept


def test_ambiguous_kernel_threshold_raises():
    # populations decay at 2 gamma; kernel_tol * ||L|| is about 2e-10 here
    def damped(gamma):
        return LindbladGenerator(2, np.diag([0.0, 1.0]), (JumpOp(sparse.csr_matrix(SM), gamma),))

    with pytest.raises(NumericalError, match="ambiguous"):
        steady_states(damped(1e-10))
    assert steady_states(damped(1e-6)).kernel_dim == 1
    assert steady_states(damped(1e-15)).kernel_dim == 2  # far below the threshold
