"""Lindblad engine: superoperators, evolution, steady states, Gibbs states."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import eigs as sparse_eigs

from stabtherm import lindblad
from stabtherm.bath import attach_ancillas, davies_reduction, rwa_generator
from stabtherm.errors import CapacityError, NumericalError, ParameterError
from stabtherm.lindblad import (
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
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
    build_torus,
    eigenoperator_decomposition,
    single_stabilizer_model,
    single_vertex_model,
    toric_hamiltonian,
)

from oracles import (
    build_superoperator,
    dense_pauli,
    lindblad_rhs,
    random_density,
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
        for method in ("expm", "krylov"):
            rho = evolve(g, plus, t, method=method)
            # <sx>(t) = cos(omega t) under H = omega sz/2
            assert np.isclose(rho.expectation(sx), np.cos(omega * t), atol=1e-8)


def test_damped_qubit_closed_form():
    # under D[A]rho = 2 A rho A+ - {A+A, rho}: p1(t) = exp(-2 gamma t)
    gamma = 0.3
    g = two_level(gamma, 0.0)
    rho0 = DensityMatrix(np.diag([0.0, 1.0]).astype(complex))
    for t in (0.5, 1.0, 2.0):
        for method in ("krylov", "expm"):
            r = evolve(g, rho0, t, method=method)
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
    for method in ("expm", "krylov"):
        out = evolve(g, rho0, t, method=method)
        assert trace_distance(out.mat, heavy) < 1e-8


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
    for method in ("expm", "krylov"):
        states = trajectory(g, rho0, t, points, method=method)
        assert len(states) == points
        rho = rho0
        for i, state in enumerate(states):
            if i > 0:
                rho = evolve(g, rho, dt, method=method)
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
        for method in ("expm", "krylov"):
            together = trajectories(g, starts, 2.0, 3, method=method)
            assert len(together) == len(starts)
            for rho0, states in zip(starts, together):
                alone = trajectory(g, rho0, 2.0, 3, method=method)
                assert max(np.abs(a.mat - b.mat).max() for a, b in zip(states, alone)) < 1e-12
    assert trajectories(qutrit, [], 1.0, 3) == []


def test_evolve_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(23)
    g = two_level(0.5, 0.1)
    rho = DensityMatrix(random_density(2, rng))
    for method in ("expm", "krylov"):
        out = evolve(g, rho, 3.0, method=method)
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
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    scale = lindblad._superop_scale(form.T)
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
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    scale = lindblad._superop_scale(form.T)
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
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    scale = lindblad._superop_scale(form.T)
    labels, bound = bendixson_bounds(form)
    screen = lindblad._gershgorin_screen(form.T, form.labels)
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
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    scale = lindblad._superop_scale(form.T)
    labels, bound = bendixson_bounds(form)
    exact = np.empty(len(labels))
    exact[labels] = bound

    def solve(screen):
        monkeypatch.setattr(lindblad, "_gershgorin_screen", lambda T, labels: screen)
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


def test_a_screen_from_the_rows_of_t_alone_is_no_bound():
    # Gershgorin on the rows of T bounds T's own spectrum, not lambda_max of
    # its Hermitian part: on the mini Davies model it lies above the bounds
    # of 40 of the 128 blocks
    form = lindblad._block_form(lindblad._sandwich_terms(mini_davies()), 16)
    labels, bound = bendixson_bounds(form)
    rows_only = lindblad._gershgorin_screen(2 * form.T, form.labels)  # S = 2T
    assert np.any(rows_only[labels] > bound + 1e-12 * lindblad._superop_scale(form.T))


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
    for method in ("expm", "krylov"):
        states = trajectory(g, rho0, t, points, method=method)
        for s, tk in zip(states, np.linspace(0, t, points)):
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
        rho0 = DensityMatrix.maximally_mixed(g.n_levels)
        for method in ("expm", "krylov"):
            trajectory(g, rho0, 1.0, 3, method=method)


def test_pauli_coefficients_of_a_batch_match_each_operator(monkeypatch):
    rng = np.random.default_rng(23)
    d = 16
    dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    csr = sparse.random(d, d, density=0.2, random_state=rng, format="csr") * (1 - 2j)
    paulis = PauliSum(4, [(0.7, PauliString.from_letters("XZIY")),
                          (-1.3j, PauliString.from_letters("IZZX"))]).to_sparse()
    # entry (0, 1) stored twice: summed, as toarray() does
    repeated = sparse.csr_matrix((np.array([1.0, 2.0, 3j]), np.array([1, 1, 0]),
                                  np.array([0, 2] + [3] * (d - 1))), shape=(d, d))
    ops = [dense, csr, paulis, csr.conj().T, repeated]  # csr.conj().T is csc
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
        expected = M.toarray() if sparse.issparse(M) else M
        assert np.abs(rebuilt - expected).max() < 1e-12
    # chunks of 3 rows give the same bits
    monkeypatch.setattr(lindblad, "_STACK_ENTRIES", 3 * d)
    for x, y in zip(lindblad._pauli_coefficients(ops, d), (op, b, m)):
        assert np.array_equal(x, y)


def test_matrix_unit_transfer_is_the_kron_sum_in_any_chunks(monkeypatch):
    rng = np.random.default_rng(31)
    d = 6
    terms = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
              sparse.random(d, d, density=0.4, random_state=rng, format="csr"))
             for _ in range(3)]
    expected = sum(np.kron(B.toarray().T, A) for A, B in terms)
    T = lindblad._matrix_unit_transfer(terms, d)
    assert np.abs(T.toarray() - expected).max() < 1e-12
    monkeypatch.setattr(lindblad, "_BOUND_ENTRIES", 7)  # chunks split terms
    chunked = lindblad._matrix_unit_transfer(terms, d)
    assert chunked.nnz == T.nnz and abs(chunked - T).max() < 1e-14
    # terms that cancel up to rounding (0.1 * 3 / 3 != 0.1) leave no entry
    A, B = np.full((d, d), 0.1), terms[0][1]
    assert np.any(A * 3 / 3 != A)
    assert lindblad._matrix_unit_transfer([(A, B), (-(A * 3) / 3, B)], d).nnz == 0


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
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    c0 = form.coefficients(np.eye(16) / 16)
    assert len(np.unique(form.labels[np.flatnonzero(c0)])) == 1


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
    ss = steady_states(g)
    assert ss.kernel_dim == 1
    # 1024 blocks of 64, and no rounding residue stored (3,014,656 nonzeros
    # in the computational basis)
    assert ss.diagnostics["blocks"] == 1024 and ss.diagnostics["max_block"] == 64
    assert ss.diagnostics["nnz"] == 714751
    # eigvals runs on the 15 blocks whose Bendixson bound can reach the
    # reported spectrum, not on all 1024
    assert ss.diagnostics["refined"] == 15
    # and the Gershgorin screen leaves eigvalsh bounds on 67: the 53 blocks
    # whose screen is below -1.7, and 14 whose screen equals the sixth
    # |lambda|, 0.146525, to 1e-14 (their bounds are at least 0.293)
    assert ss.diagnostics["bounded"] == 67
    assert sum(stacked) == ss.diagnostics["bounded"]
    assert abs(np.sort(np.abs(ss.eigenvalues))[1] - 0.121675) < 1e-6


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
                      "margin"}
    # k = 6 lowest bounds take all 2 blocks
    assert d["refined"] == d["bounded"] == d["blocks"]
    assert d["basis"] == "pauli" and d["max_block"] <= 4 and d["nnz"] > 0
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    thresh = 1e-10 * lindblad._superop_scale(form.T)
    assert np.isclose(d["margin"], np.sort(np.abs(ss.eigenvalues))[1] / thresh)
    assert d["margin"] > 100


def test_ambiguous_kernel_threshold_raises():
    # populations decay at 2 gamma; kernel_tol * ||L|| is about 2e-10 here
    def damped(gamma):
        return LindbladGenerator(2, np.diag([0.0, 1.0]), (JumpOp(sparse.csr_matrix(SM), gamma),))

    with pytest.raises(NumericalError, match="ambiguous"):
        steady_states(damped(1e-10))
    assert steady_states(damped(1e-6)).kernel_dim == 1
    assert steady_states(damped(1e-15)).kernel_dim == 2  # far below the threshold
