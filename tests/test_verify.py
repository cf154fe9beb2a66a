"""Fixed-point conditions, ergodicity/commutant checks, attractor probes."""

import numpy as np
import pytest

from stabtherm import lindblad, verify
from stabtherm.bath import davies_reduction
from stabtherm.errors import NumericalError, ParameterError
from stabtherm.lindblad import (
    DENSE_BLOCK_LIMIT,
    ROUNDOFF,
    DensityMatrix,
    JumpOp,
    LindbladGenerator,
    gibbs_state,
    steady_states,
)
from stabtherm.pauli import PauliString, PauliSum
from stabtherm.toric import (
    StabilizerHamiltonian,
    StabilizerTerm,
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
    random_density_matrix,
    uniqueness_and_attractor_probe,
)

from oracles import build_superoperator, commutant_nullity, commutant_superoperator


def decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


@pytest.fixture(scope="module")
def l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    return lat, H, decomps(H)


@pytest.fixture(scope="module")
def l2_translation_only(l2):
    _, H, _ = l2
    return H, jump_set(H, ("translate",))


def five_qubit_code():
    """[[5,1,3]]: the cyclic shifts of XZZXI."""
    strings = ["XZZXI"[-k:] + "XZZXI"[:-k] for k in range(4)]
    return StabilizerHamiltonian(5, tuple(StabilizerTerm(1.0, PauliString.from_letters(s))
                                          for s in strings))


def jump_set(H, include=("lower", "raise", "translate")):
    """The Davies jumps of H as csr matrices (davies_reduction keeps PauliSums)."""
    return [j.op.to_sparse()
            for j in davies_reduction(H, decomps(H), 1.0, 0.5, include=include).jumps]


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


def test_random_state_breaks_translation(l2):
    lat, H, ops = l2
    rho = random_density_matrix(256, np.random.default_rng(3))
    assert check_fixed_point_conditions(rho, ops, 1.0).max_residual("translation") > 1e-3


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


def test_no_jumps_reports_the_commutant_of_h():
    # {H} alone: the commutant is block diagonal over the two 8-dim
    # eigenspaces of -ZZZZ, 8^2 + 8^2 = 128 dimensions, and no jump word
    # adds to the identity's span of the ground block
    H = single_vertex_model(1.0)
    rep = ergodicity_check(H, [], max_commutant=200)
    assert not rep.ergodic and rep.commutant_dim == 128
    assert [e.commutant_dim for e in rep.eigenspaces] == [64, 64]
    assert rep.ground_word_span_dim == 1 and rep.ground_block_commutant_dim == 8


def test_kernel_dim_matches_commutant_dim_cross_validation():
    # the two uniqueness criteria agree on both positive and negative cases
    H = single_vertex_model(1.0)
    for include, expect_unique in ((("lower", "raise", "translate"), True),
                                   (("translate",), False)):
        gen = davies_reduction(H, decomps(H), 1.0, 0.5, include=include)
        ss = steady_states(gen)
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
    dim_before, _, _ = commutant_dimension([Hd] + ops, 16)
    rotated = [U @ m @ U.conj().T for m in [Hd] + ops]
    dim_after, _, _ = commutant_dimension(rotated, 16)
    assert dim_before == dim_after == 1


def test_commutant_count_is_capped_at_max_dim():
    # Z on qubit 0 of two: the commutant span{I, Z} x M_2 is 8-dimensional,
    # and a count reaching max_dim means "at least max_dim"
    z0 = np.kron(np.eye(2), np.diag([1.0, -1.0]))
    assert commutant_dimension([z0], 4, max_dim=4)[0] == 4
    assert commutant_dimension([z0], 4, max_dim=8)[0] == 8


def test_commutant_cap_must_be_an_integer_of_at_least_one():
    # the identity is always in the commutant, so no cap below 1 can be met:
    # uncapped by this check, max_commutant=0 would report the ergodic
    # [[5,1,3]] set as not ergodic with commutant_dim 0, and -1 as -1
    H = five_qubit_code()
    jumps = jump_set(H)
    for cap in (0, -1, 2.5, True):
        with pytest.raises(ParameterError, match="max_dim"):
            commutant_dimension([H.as_sum()] + jumps, 32, max_dim=cap)
        with pytest.raises(ParameterError, match="max_dim"):
            ergodicity_check(H, jumps, max_commutant=cap)
    assert commutant_dimension([H.as_sum()] + jumps, 32, max_dim=1.0)[0] == 1


def test_commutant_stacks_its_ops_and_adjoints_as_csr(monkeypatch):
    # the adjoints of csr ops are csc; the jumps are stacked as csr for G,
    # since one csc block sends scipy's vstack down its slower COO path
    formats = []
    vstack = lindblad.sparse.vstack

    def recording(blocks, **kwargs):
        formats.extend(b.format for b in blocks)
        return vstack(blocks, **kwargs)

    monkeypatch.setattr(lindblad.sparse, "vstack", recording)
    H = five_qubit_code()
    assert commutant_dimension([H.as_sum().to_sparse()] + jump_set(H), 32)[0] == 1
    assert len(formats) == 54 and set(formats) == {"csr"}  # H and 26 jumps, with adjoints


def test_commutant_refuses_operators_of_another_shape():
    # a 3 x 3 op is no operator on M_4 (it is not read as diag(1, 1, 1, 0)),
    # and a 4 x 4 op none on M_2
    with pytest.raises(ParameterError, match="shape"):
        commutant_dimension([np.eye(3)], 4)
    with pytest.raises(ParameterError, match="shape"):
        commutant_dimension([np.eye(4)], 2)
    x0 = PauliSum.from_string(PauliString.from_letters("XI"))
    with pytest.raises(ParameterError, match="shape"):
        commutant_dimension([x0], 8)
    H = single_vertex_model(1.0)
    with pytest.raises(ParameterError, match="shape"):
        ergodicity_check(H, jump_set(H), loop_ops={"X": PauliString.from_letters("XI")})
    # a PauliString is an operator like its PauliSum: span{I, X} x M_2
    string = commutant_dimension([PauliString.from_letters("XI")], 4, max_dim=16)[0]
    assert string == commutant_dimension([x0], 4, max_dim=16)[0] == 8


@pytest.mark.parametrize("sizes, basis", [((2, 3), "matrix-unit"), ((1, 3), "pauli")])
def test_commutant_is_minus_the_lindbladian_of_unit_rate_jumps(sizes, basis, monkeypatch):
    # M X = sum_O [O^dag, [O, X]] over the ops and their adjoints is -L X for
    # those ops as rate-1 jumps with no Hamiltonian (the factor-2 dissipator)
    ops = block_diagonal_set(sizes, 2, np.random.default_rng(8))
    d = sum(sizes)
    closed = ops + [m.conj().T for m in ops]
    g = LindbladGenerator(d, np.zeros((d, d)), tuple(JumpOp(m, 1.0) for m in closed))
    assert np.abs(commutant_superoperator(ops) + build_superoperator(g).toarray()).max() < 1e-12
    forms = []

    def record(terms, d, **kwargs):
        form = lindblad._block_form(terms, d, **kwargs)
        forms.append((terms, form.basis, form.T.copy()))
        return form

    monkeypatch.setattr(verify, "_block_form", record)
    commutant_dimension(ops, d)
    (terms, form_basis, T), = forms
    # dense ops reach the block form as ndarrays: every operator but the two I
    seen = [o for term in terms for o in term]
    assert sum(isinstance(o, np.ndarray) for o in seen) == len(seen) - 2 == 2 + 2 * len(closed)
    # negating the form gives the entries of the form of the negated terms
    negated = lindblad._block_form([(-A, B) for A, B in terms], d, hermitian=True)
    assert negated.basis == form_basis == basis and (negated.T != -T).nnz == 0


def random_unitary(d, rng):
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return U


def block_diagonal_set(sizes, n_ops, rng):
    """Random ops on a direct sum: the commutant holds one multiple of the
    identity per summand."""
    d = sum(sizes)
    ops = []
    for _ in range(n_ops):
        B = np.zeros((d, d), complex)
        lo = 0
        for s in sizes:
            B[lo:lo + s, lo:lo + s] = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            lo += s
        ops.append(B)
    return ops


def mini_set(include):
    H = single_vertex_model(1.0)
    return [H.to_dense()] + [m.toarray() for m in jump_set(H, include)]


def rotated(m, seed):
    U = random_unitary(len(m), np.random.default_rng(seed))
    return U @ m @ U.conj().T


@pytest.mark.parametrize("make, basis, max_block", [
    (lambda: mini_set(("lower", "raise", "translate")), "pauli", None),
    (lambda: mini_set(("translate",)), "pauli", None),
    # non-Pauli: all but the identity in one block
    (lambda: [rotated(m, 19) for m in mini_set(("lower", "raise", "translate"))],
     "pauli", 16 * 16 - 1),
    (lambda: block_diagonal_set((2, 4), 2, np.random.default_rng(4)), "matrix-unit", None),
])
def test_block_nullity_matches_dense_oracle(make, basis, max_block):
    ops = make()
    d = len(ops[0])
    count, vals, diag = commutant_dimension(ops, d, max_dim=d * d)
    assert diag["basis"] == basis
    assert max_block is None or diag["max_block"] == max_block
    assert count == diag["nullity"] == commutant_nullity(ops)
    assert diag["margin"] > 100 and np.all(vals[count:] > 0)


def test_block_above_dense_limit_goes_through_arpack():
    # a rotated sum of two 17-dim summands: one matrix-unit block of 34^2
    rng = np.random.default_rng(5)
    U = random_unitary(34, rng)
    ops = [U @ m @ U.conj().T for m in block_diagonal_set((17, 17), 2, rng)]
    count, vals, diag = commutant_dimension(ops, 34, max_dim=4)
    assert diag["max_block"] > DENSE_BLOCK_LIMIT
    assert count == diag["nullity"] == commutant_nullity(ops) == 2
    assert len(vals) == 5 and vals[2] > 100 * vals[1]
    # ARPACK starts from a fixed vector, so a second solve agrees bit for bit
    assert np.array_equal(commutant_dimension(ops, 34, max_dim=4)[1], vals)


def test_zero_set_commutes_with_everything():
    count, _, diagnostics = commutant_dimension([np.zeros((4, 4))], 4, max_dim=16)
    assert count == 16
    assert commutant_dimension([np.zeros((4, 4))], 4, max_dim=3)[0] == 3
    # the early return reports the keys of the block path, from one definition
    block_path = commutant_dimension([np.diag([1.0, -1.0, 1.0, -1.0]), np.eye(4)[::-1]], 4)[2]
    assert block_path["nnz"] > 0 and block_path["blocks"] > 1
    assert diagnostics.keys() == block_path.keys()
    assert diagnostics["blocks"] == diagnostics["nullity"] == 16 and diagnostics["nnz"] == 0


def test_ambiguous_commutant_threshold_raises():
    # {diag(0, 1), eps X}: the commutant is span{I} with a second eigenvalue
    # 8 eps^2, against a threshold of 1e-7 * 4
    n1 = np.diag([0.0, 1.0])
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NumericalError, match="ambiguous"):
        commutant_dimension([n1, 2e-4 * x], 2)
    assert commutant_dimension([n1, 1e-1 * x], 2)[0] == 1
    assert commutant_dimension([n1, 1e-6 * x], 2)[0] == 2  # far below the threshold


@pytest.mark.parametrize("max_commutant", [4, 16])
def test_translation_only_ground_space_commutant_is_everything(l2_translation_only,
                                                               max_commutant):
    # translations need an excitation to move, so on the ground space every
    # projected jump and number word is rounding residue
    H, jumps = l2_translation_only
    rep = ergodicity_check(H, jumps, max_commutant=max_commutant)
    ground = rep.eigenspaces[0]
    assert ground.dimension == 4 and ground.commutant_dim == min(16, max_commutant)


def test_matrix_unit_form_of_a_translation_only_eigenspace(l2_translation_only, monkeypatch):
    # a 48-dimensional eigenspace is no power of two, so its commutant form
    # is assembled in the matrix units; blocks and nnz pin both roundoff cuts
    H, jumps = l2_translation_only
    seen = {}

    def record(ops, dim, max_dim=8):
        result = commutant_dimension(ops, dim, max_dim)
        seen[dim] = result[2]
        return result

    monkeypatch.setattr(verify, "commutant_dimension", record)
    ergodicity_check(H, jumps)
    diagnostics = seen[48]
    assert diagnostics["basis"] == "matrix-unit"
    assert (diagnostics["blocks"], diagnostics["max_block"], diagnostics["nnz"]) == (1414, 192, 67840)
    # a Hermitian form gets eigvalsh on every block, with no bounds to screen
    assert diagnostics["bounded"] == diagnostics["refined"] == 0


@pytest.mark.parametrize("H, include", [
    (single_vertex_model(1.0), ("lower", "raise", "translate")),
    (single_vertex_model(1.0), ("translate",)),
    (five_qubit_code(), ("lower", "raise", "translate")),
    (five_qubit_code(), ("translate",)),
])
def test_sector_rotation_keeps_eigenspace_counts(H, include):
    mats = jump_set(H, include)
    sources = mats + [(m.conj().T @ m).tocsr() for m in mats]
    floor = ROUNDOFF * max(abs(m).max() for m in sources)
    rep = ergodicity_check(H, mats, max_commutant=64)
    evals, evecs = np.linalg.eigh(H.to_dense())
    rounded = np.round(evals, 9)
    for detail, energy in zip(rep.eigenspaces, np.unique(rounded)):
        V = evecs[:, rounded == energy]  # the unrotated basis
        projected = [V.conj().T @ (m @ V) for m in sources]
        for P in projected:
            P[np.abs(P) < floor] = 0
        expect = (V.shape[1] ** 2 if not any(P.any() for P in projected)
                  else commutant_nullity(projected))
        assert detail.commutant_dim == min(expect, 64)


def test_loop_operators_not_in_commutant_of_full_set(l2):
    lat, H, _ = l2
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    # direct commutator norms: every loop operator fails to commute with some
    # jump, so no topological charge is conserved by the full set
    loops = loop_operators(lat)
    for label, w in loops.items():
        ws = w.to_sparse()
        worst = max(float(abs(ws @ K - K @ ws).max())
                    for K in (j.op.to_sparse() for j in gen.jumps))
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


def test_attractor_probe_builds_the_block_form_twice(monkeypatch):
    # one build for the kernel and one for all trials together
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return block_form(*args, **kwargs)

    block_form = lindblad._block_form
    monkeypatch.setattr(lindblad, "_block_form", counted)
    for trials in (1, 4):
        builds.clear()
        uniqueness_and_attractor_probe(gen, trials=trials, t_max=5.0, seed=4)
        assert len(builds) == 2, trials


def test_gibbs_start_stays_put():
    H = single_vertex_model(1.0)
    gen = davies_reduction(H, decomps(H), 1.0, 0.5)
    gs = gibbs_state(H.to_dense(), 1.0)
    from stabtherm.lindblad import evolve

    for t in (0.5, 5.0, 20.0):
        out = evolve(gen, gs, t)
        assert out.distance(gs) < 1e-9


def test_attractor_probe_toric_l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    g0 = 1.0
    gen = davies_reduction(H, decomps(H), 1.0, g0)
    rep = uniqueness_and_attractor_probe(gen, trials=5, t_max=50.0 / g0, seed=3)
    assert rep.kernel_dim == 1
    assert rep.max_distance < 1e-4
