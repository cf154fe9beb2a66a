"""Fixed-point conditions, ergodicity/commutant checks, attractor probes."""

import numpy as np
import pytest

from stabtherm.bath import davies_reduction
from stabtherm.lindblad import DensityMatrix, gibbs_state, steady_states
from stabtherm.toric import (
    all_excitation_ops,
    build_torus,
    eigenoperator_decomposition,
    loop_operators,
    single_vertex_model,
    toric_hamiltonian,
)
from stabtherm.verify import (
    check_fixed_point_conditions,
    commutant_dimension,
    ergodicity_check,
    uniqueness_and_attractor_probe,
)


def decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


@pytest.fixture(scope="module")
def l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    return lat, H, all_excitation_ops(lat, H)


def test_gibbs_satisfies_all_three_conditions(l2):
    lat, H, ops = l2
    beta = 1.0
    report = check_fixed_point_conditions(gibbs_state(H.to_dense(), beta), ops, beta)
    assert report.max_residual() < 1e-9


def test_maximally_mixed_breaks_detailed_balance_only(l2):
    lat, H, ops = l2
    report = check_fixed_point_conditions(DensityMatrix.maximally_mixed(256), ops, 1.0)
    assert report.max_residual("translation") < 1e-14
    assert report.max_residual("lowering") > 1e-3


def test_wrong_temperature_leaves_visible_residual(l2):
    lat, H, ops = l2
    beta = 1.0
    rho = gibbs_state(H.to_dense(), beta + 0.5)
    report = check_fixed_point_conditions(rho, ops, beta)
    assert report.max_residual("lowering") > 1e-3
    assert report.max_residual("raising") > 1e-3
    # the translation condition still holds (any Gibbs state commutes with T)
    assert report.max_residual("translation") < 1e-12


def test_residual_scales_linearly_with_perturbation(l2):
    # sanity of the residual metric: a small operator perturbation moves the
    # lowering residual linearly
    lat, H, ops = l2
    beta = 1.0
    gs = gibbs_state(H.to_dense(), beta)
    res = []
    for scale in (1e-4, 1e-3, 1e-2):
        rho = gibbs_state(H.to_dense(), beta + scale)
        r = check_fixed_point_conditions(rho, ops, beta)
        res.append(r.max_residual("lowering"))
    ratios = [res[1] / res[0], res[2] / res[1]]
    assert all(8.0 < r < 12.0 for r in ratios)


# -- ergodicity ------------------------------------------------------------------

def test_mini_model_full_set_is_ergodic():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    rep = ergodicity_check(H, [j.op for j in gen.jumps])
    assert rep.ergodic and rep.commutant_dim == 1
    # balanced words fix the ground block too
    assert rep.ground_block_commutant_dim == 1


def test_mini_model_translation_only_not_ergodic():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5, include=("translate",))
    rep = ergodicity_check(H, [j.op for j in gen.jumps])
    assert not rep.ergodic and rep.commutant_dim > 1


def test_kernel_dim_matches_commutant_dim_cross_validation():
    # the two uniqueness criteria agree on both positive and negative cases
    H = single_vertex_model(1.0)
    for include, expect_unique in ((("lower", "raise", "translate"), True),
                                   (("translate",), False)):
        gen = davies_reduction(H, decomps(H), 1.0, 0.5, include=include)
        ss = steady_states(gen, max_kernel=64)
        rep = ergodicity_check(H, [j.op for j in gen.jumps])
        assert (ss.kernel_dim == 1) == (rep.commutant_dim == 1) == expect_unique


def test_ergodicity_verdict_invariant_under_basis_change():
    rng = np.random.default_rng(19)
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    ops = [j.op.toarray() for j in gen.jumps]
    Hd = H.to_dense()
    # random unitary change of basis applied consistently
    A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    U, _ = np.linalg.qr(A)
    dim_before, _ = commutant_dimension([Hd] + ops, 16)
    rotated = [U @ m @ U.conj().T for m in [Hd] + ops]
    dim_after, _ = commutant_dimension(rotated, 16)
    assert dim_before == dim_after == 1


def test_commutant_count_is_capped_at_max_dim():
    # Z on qubit 0 of two: the commutant span{I, Z} x M_2 is 8-dimensional,
    # and a count reaching max_dim means "at least max_dim"
    z0 = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    assert commutant_dimension([z0], 4, max_dim=4)[0] == 4
    assert commutant_dimension([z0], 4, max_dim=8)[0] == 8


def test_loop_operators_not_in_commutant_of_full_set(l2):
    lat, H, _ = l2
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    # direct commutator norms: every loop operator fails to commute with some
    # jump, so no topological charge is conserved by the full set
    loops = loop_operators(lat)
    for label, w in loops.items():
        ws = w.to_sparse()
        worst = max(float(abs(ws @ j.op - j.op @ ws).max()) for j in gen.jumps)
        assert worst > 0.1, label


# -- attractor probe ---------------------------------------------------------------

def test_attractor_probe_mini_model():
    H = single_vertex_model(1.0)
    g0 = 0.5
    gen = davies_reduction(H, decomps(H), 1.0, g0)
    rep = uniqueness_and_attractor_probe(gen, trials=5, t_max=50.0 / g0, seed=1)
    assert rep.kernel_dim == 1
    assert rep.max_distance < 1e-4
    assert rep.max_pairwise_distance < 2e-4


def test_attractor_probe_translation_only_negative_control():
    H = single_vertex_model(1.0)
    g0 = 0.5
    gen = davies_reduction(H, decomps(H), 1.0, g0, include=("translate",))
    rep = uniqueness_and_attractor_probe(gen, trials=4, t_max=50.0 / g0, seed=2)
    assert rep.kernel_dim > 1
    assert rep.max_pairwise_distance > 0.01


def test_gibbs_start_stays_put():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    gs = gibbs_state(H.to_dense(), 1.0)
    from stabtherm.lindblad import evolve

    for t in (0.5, 5.0, 20.0):
        out = evolve(gen, gs, t, method="expm")
        assert out.distance(gs) < 1e-9


def test_attractor_probe_toric_l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    g0 = 1.0
    gen = davies_reduction(H, decomps(H), 1.0, g0)
    rep = uniqueness_and_attractor_probe(gen, trials=5, t_max=50.0 / g0, seed=3)
    assert rep.kernel_dim == 1
    assert rep.max_distance < 1e-4
