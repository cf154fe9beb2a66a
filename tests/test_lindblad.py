"""Lindblad engine: superoperators, evolution, steady states, Gibbs states."""

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

from oracles import build_superoperator, lindblad_rhs, random_density, toric_partition_sums

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


def max_matched_distance(a, b):
    """Largest |a_i - b_pi(i)| under the best one-to-one pairing."""
    assert len(a) == len(b)
    dist = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(dist)
    return dist[rows, cols].max()


@pytest.mark.parametrize("make, basis", [
    (lambda: mini_davies(), "pauli"),
    (lambda: mini_davies(("translate",)), "pauli"),   # degenerate kernel
    (lambda: random_generator(3, 5), "matrix-unit"),
])
def test_block_spectra_match_dense_oracle(make, basis):
    # the shared kernel solver returns every eigenvalue of a dense block
    g = make()
    n = g.n_levels ** 2
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    scale = lindblad._superop_scale(form.T)
    vals, kernel_dim, kernel, diagnostics = form.kernel(
        lindblad.KERNEL_TOL * scale, scale, lindblad.STEADY_EIGENVALUES, lindblad.MAX_KERNEL)
    assert diagnostics["basis"] == basis
    assert len(vals) == n  # every block is dense at this size
    oracle = np.linalg.eigvals(build_superoperator(g).toarray())
    assert max_matched_distance(vals, oracle) < 1e-10
    assert sum(v.shape[1] for _, v in kernel) == kernel_dim == np.sum(np.abs(oracle) < 1e-9)
    assert steady_states(g).kernel_dim == kernel_dim


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
    # _kron_sum is the only computational-basis assembly left in lindblad (the
    # matrix-unit form uses it); Pauli-basis models never reach it
    def refuse(*args, **kwargs):
        raise AssertionError("the computational-basis superoperator was formed")

    monkeypatch.setattr(lindblad, "_kron_sum", refuse)
    zz = single_stabilizer_model("ZZ", 1.0)
    for g in (mini_davies(), davies_reduction(zz, full_decomps(zz), 1.0, 0.5)):
        assert steady_states(g).kernel_dim == 1
        rho0 = DensityMatrix.maximally_mixed(g.n_levels)
        for method in ("expm", "krylov"):
            trajectory(g, rho0, 1.0, 3, method=method)


def test_trajectory_from_identity_touches_one_block():
    g = mini_davies()
    form = lindblad._block_form(lindblad._sandwich_terms(g), g.n_levels)
    c0 = form.coefficients(np.eye(16) / 16)
    assert len(np.unique(form.labels[np.flatnonzero(c0)])) == 1


def test_toric_l2_davies_gap():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    ss = steady_states(davies_reduction(H, full_decomps(H), 1.0, 0.5))
    assert ss.kernel_dim == 1
    # 1024 blocks of 64, and no rounding residue stored (3,014,656 nonzeros
    # in the computational basis)
    assert ss.diagnostics["blocks"] == 1024 and ss.diagnostics["max_block"] == 64
    assert ss.diagnostics["nnz"] == 714751
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


def test_steady_state_diagnostics():
    g = two_level(1.0, 0.25)
    ss = steady_states(g)
    d = ss.diagnostics
    assert set(d) == {"basis", "blocks", "max_block", "nnz", "seconds", "margin"}
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
