"""Finite groups and quantum-double vertex/plaquette/flux operators."""

import numpy as np
import pytest

from stabtherm.errors import CapacityError, ModelError, ParameterError
from stabtherm.groups import (
    Geometry,
    apply_plaquette,
    apply_vertex,
    build_group,
    commutation_suite,
    cyclic_group,
    default_geometries,
    flux_pair_creator,
    group_from_table,
    left_mult,
    nonabelian_torus_operators,
    plaquette_op,
    proj_minus,
    proj_plus,
    qudit_ops,
    right_mult_inv,
    symmetric_group,
    vertex_op,
)

from oracles import dense_commutator_norm, dense_plaquette, dense_vertex


def test_z2_structure():
    g = cyclic_group(2)
    assert g.order == 2
    assert g.conjugacy_classes() == ((0,), (1,))


def test_s3_conjugacy_classes_and_centralizers():
    s3 = symmetric_group(3)
    assert s3.order == 6
    classes = s3.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    assert classes[0] == (s3.identity,)
    # transpositions form the size-3 class; their centralizers have order 2
    transpositions = next(c for c in classes if len(c) == 3)
    for t in transpositions:
        assert len(s3.centralizer(t)) == 2
    # brute-force cross-check of one class by conjugating over all 36 pairs
    t0 = transpositions[0]
    brute = {s3.mult(s3.mult(g, t0), s3.inverse(g)) for g in range(6)}
    assert tuple(sorted(brute)) == transpositions


def test_group_validation_rejects_bad_tables():
    with pytest.raises(ModelError):
        group_from_table([[0, 0], [1, 1]])  # not a Latin square
    # Latin square that is not associative (order-5 quasigroup)
    t = np.array([
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ])
    with pytest.raises(ModelError):
        group_from_table(t)
    with pytest.raises(CapacityError):
        cyclic_group(30)


def test_build_group_specs():
    assert build_group("Z2").order == 2
    assert build_group("S3").order == 6
    assert build_group({"type": "cyclic", "n": 4}).order == 4
    with pytest.raises(ParameterError):
        build_group("Q8")


def test_oversized_groups_are_refused_before_their_tables():
    # S8 would form 40320^2 products and Z100000 a 10^10-entry table
    for spec in ("S5", "S8", "Z25", "Z100000"):
        with pytest.raises(CapacityError):
            build_group(spec)
    for spec in ({"type": "cyclic"}, {"type": "symmetric"}, {"type": "table"}):
        with pytest.raises(ParameterError):
            build_group(spec)


@pytest.mark.parametrize("n", ["abc", None, [3], 2.7, float("nan"), float("inf"), True])
def test_build_group_rejects_an_order_that_is_not_an_integer(n):
    # int() would raise its own errors, or truncate 2.7 to Z2
    for kind in ("cyclic", "symmetric"):
        with pytest.raises(ParameterError, match="must be an integer"):
            build_group({"type": kind, "n": n})


def test_build_group_accepts_integer_values():
    assert build_group({"type": "cyclic", "n": np.int64(5)}).order == 5
    assert build_group({"type": "symmetric", "n": 3.0}).order == 6


@pytest.mark.parametrize("table", [
    [[0, 1], [1]],                # ragged
    [[0.0, 1.0], [1.0, 0.0]],     # not integers
    [[True, False], [False, True]],
    [0, 1],                       # not 2-D
    5,
    [["0", "1"], ["1", "0"]],
])
def test_build_group_rejects_a_table_that_is_not_a_rectangular_integer_array(table):
    with pytest.raises(ModelError, match="rectangular integer array"):
        build_group({"type": "table", "table": table})


def test_left_mult_is_identity_at_e():
    for G in (cyclic_group(3), symmetric_group(3)):
        assert np.allclose(left_mult(G, G.identity), np.eye(G.order))
        assert np.allclose(right_mult_inv(G, G.identity), np.eye(G.order))


def test_z2_left_mult_is_exchange():
    z2 = cyclic_group(2)
    assert np.allclose(left_mult(z2, 1), np.array([[0, 1], [1, 0]]))


def test_s3_left_mult_homomorphic_on_all_products():
    s3 = symmetric_group(3)
    for g in range(6):
        for h in range(6):
            lhs = left_mult(s3, g) @ left_mult(s3, h)
            rhs = left_mult(s3, s3.mult(g, h))
            assert np.allclose(lhs, rhs)


def test_projector_completeness_and_minus_convention():
    s3 = symmetric_group(3)
    total = sum(proj_plus(s3, h) for h in range(6))
    assert np.allclose(total, np.eye(6))
    # T-^h projects onto |h^{-1}>
    for h in range(6):
        m = proj_minus(s3, h)
        assert m[s3.inverse(h), s3.inverse(h)] == 1.0 and np.trace(m) == 1.0
    ops = qudit_ops(s3)
    assert len(ops["L+"]) == 6 and len(ops["T-"]) == 6


def test_vertex_operator_is_projector():
    z2 = cyclic_group(2)
    A = vertex_op(z2).mat
    evals = np.linalg.eigvalsh(A)
    assert np.allclose(np.sort(np.unique(np.round(evals, 10))), [0, 1])
    assert int(round(np.trace(A))) == 8
    s3 = symmetric_group(3)
    A3 = vertex_op(s3).mat
    assert np.linalg.norm(A3 @ A3 - A3) < 1e-12
    assert np.linalg.norm(A3 - A3.conj().T) < 1e-12


def test_plaquette_operator_ranks():
    z2 = cyclic_group(2)
    B = plaquette_op(z2).mat
    assert int(round(np.trace(B))) == 8
    assert np.linalg.norm(B @ B - B) < 1e-14
    s3 = symmetric_group(3)
    B3 = plaquette_op(s3).mat
    assert int(round(np.trace(B3))) == 216  # g4 fixed by g1 g2 g3


def test_trivial_group_gives_identity_operators():
    t1 = group_from_table([[0]])
    assert np.allclose(vertex_op(t1).mat, np.eye(1))
    assert np.allclose(plaquette_op(t1).mat, np.eye(1))


def test_z2_vertex_matches_toric_convention_under_hadamard():
    # group-element basis: A_v = (I + X^(x)4)/2; conjugating every qudit by the
    # basis-exchange rotation maps it onto (I + Z^(x)4)/2, the projector form
    # of the Z-type toric vertex stabilizer
    z2 = cyclic_group(2)
    X = np.array([[0, 1], [1, 0]])
    Z = np.diag([1, -1])
    H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)

    def kron4(m):
        out = m
        for _ in range(3):
            out = np.kron(out, m)
        return out

    A = vertex_op(z2).mat
    assert np.allclose(A, (np.eye(16) + kron4(X)) / 2)
    assert np.allclose(kron4(H1) @ A @ kron4(H1), (np.eye(16) + kron4(Z)) / 2)


def test_joint_ground_space_nonempty():
    # shared-2 patch: A(B(|e...e>)) is a nonzero joint +1 eigenvector
    for G in (cyclic_group(2), symmetric_group(3)):
        d = G.order
        shape = (d,) * 6
        psi = np.zeros(shape, dtype=complex)
        psi[(G.identity,) * 6] = 1.0
        av = lambda s: apply_vertex(G, s, (0, 1, 2, 3), "++--")
        bp = lambda s: apply_plaquette(G, s, (1, 4, 5, 0), "++--")
        v0 = av(bp(psi))
        assert np.linalg.norm(v0) > 1e-6
        assert np.linalg.norm(av(v0) - v0) < 1e-12
        assert np.linalg.norm(bp(v0) - v0) < 1e-12


def test_gauge_transformations_at_different_vertices_commute():
    # two vertices sharing one link on a 7-link patch, matrix-free
    for G in (cyclic_group(2), symmetric_group(3)):
        d = G.order
        shape = (d,) * 7
        rng = np.random.default_rng(5)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        v /= np.linalg.norm(v)
        # vertex 1 on links (0,1,2,3), vertex 2 on links (3,4,5,6); the shared
        # link 3 leaves vertex 1 ('-' as seen from v1: entering) and enters v2
        a1 = lambda s: apply_vertex(G, s, (0, 1, 2, 3), "++--")
        a2 = lambda s: apply_vertex(G, s, (3, 4, 5, 6), "++--")
        comm = a1(a2(v)) - a2(a1(v))
        assert np.linalg.norm(comm) < 1e-12


def test_commutation_suite_z2_and_s3():
    for G in (cyclic_group(2), symmetric_group(3)):
        geos = [g for g in default_geometries() if g.name != "disjoint"]
        rep = commutation_suite(G, geometries=geos)
        results = dict((name, norm) for name, norm, _ in rep.results)
        assert results["shared-2"] < 1e-12
        assert results["shared-1"] > 1e-3  # unphysical geometry, reported only


def test_commutation_suite_disjoint_supports():
    rep = commutation_suite(cyclic_group(2),
                            geometries=[g for g in default_geometries()
                                        if g.name == "disjoint"])
    assert rep.results[0][1] < 1e-14


@pytest.mark.parametrize("G", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                         ids=lambda G: G.name)
def test_commutation_suite_exact_values(G):
    # exactly 0.0 on the commuting geometries, S3 disjoint (6^8 configurations)
    # included; shared-1 is sqrt(mean mask change / |G|): 1/2, 2/(3 sqrt 3)
    # and sqrt(5/108)
    shared_1 = {"Z2": 0.5, "Z3": 2 / (3 * np.sqrt(3)), "S3": np.sqrt(5 / 108)}
    values = {name: norm for name, norm, _ in commutation_suite(G).results}
    assert values["disjoint"] == 0.0 and values["shared-2"] == 0.0
    assert abs(values["shared-1"] - shared_1[G.name]) < 1e-12


FLIPPED = Geometry("flipped", 6, (0, 1, 2, 3), "+-+-", (1, 4, 5, 0), "++--", False)


@pytest.mark.parametrize("G, geo", [
    *[(cyclic_group(2), geo) for geo in default_geometries()],
    *[(cyclic_group(3), geo) for geo in default_geometries() if geo.name != "disjoint"],
    (cyclic_group(2), FLIPPED),
    (cyclic_group(3), FLIPPED),
], ids=lambda x: getattr(x, "name", None))
def test_commutation_suite_matches_dense_oracle(G, geo):
    expected = dense_commutator_norm(G, geo)
    norm = commutation_suite(G, [geo]).results[0][1]
    assert (norm == 0.0) == (expected < 1e-12)
    assert abs(norm - expected) < 1e-12


def test_flipped_shared_link_s3():
    # the vertex's shared link 1 enters it; Z2 (blind to orientation) and Z3
    # are checked against the dense oracle above, S3's 6^6 states are not
    norm = commutation_suite(symmetric_group(3), [FLIPPED]).results[0][1]
    assert abs(norm - 1 / 6) < 1e-12


@pytest.mark.parametrize("G", [cyclic_group(2), cyclic_group(3), symmetric_group(3)],
                         ids=lambda G: G.name)
@pytest.mark.parametrize("pattern", ["++--", "+-+-"])
def test_patch_operators_match_dense_oracle(G, pattern):
    assert np.array_equal(vertex_op(G, pattern).mat,
                          dense_vertex(G, 4, (0, 1, 2, 3), pattern))
    assert np.array_equal(plaquette_op(G, pattern).mat,
                          dense_plaquette(G, 4, (0, 1, 2, 3), pattern))


def test_matrix_free_operators_match_dense_oracle():
    # a random state on the shared-2 patch, links listed out of axis order
    G = cyclic_group(3)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(3,) * 6) + 1j * rng.normal(size=(3,) * 6)
    for apply, dense, links, pattern in (
            (apply_vertex, dense_vertex, (0, 1, 2, 3), "+-+-"),
            (apply_plaquette, dense_plaquette, (1, 4, 5, 0), "++--")):
        out = apply(G, psi, links, pattern)
        ref = dense(G, 6, links, pattern) @ psi.reshape(-1)
        assert np.linalg.norm(out.reshape(-1) - ref) < 1e-12


def test_dense_patch_operators_stop_at_order_8():
    s4 = symmetric_group(4)  # 24^4 = 331776 configurations
    with pytest.raises(CapacityError):
        vertex_op(s4)
    with pytest.raises(CapacityError):
        plaquette_op(s4)


def test_geometry_rejects_repeated_or_missing_links():
    with pytest.raises(ParameterError):
        Geometry("repeated", 6, (0, 1, 1, 3), "++--", (1, 4, 5, 0), "++--", True)
    with pytest.raises(ParameterError):
        Geometry("out-of-range", 6, (0, 1, 2, 3), "++--", (1, 4, 6, 0), "++--", True)
    with pytest.raises(ParameterError):
        Geometry("bad-pattern", 6, (0, 1, 2, 3), "++-x", (1, 4, 5, 0), "++--", True)


def test_flux_pair_creator_identity_class():
    for G in (cyclic_group(2), symmetric_group(3)):
        E = flux_pair_creator(G, (G.identity,))
        assert np.allclose(E, np.eye(G.order))


def two_plaquette_flux_check(G, cls):
    """Two plaquettes sharing link 0; start from the all-identity config."""
    d = G.order
    shape = (d,) * 7
    psi = np.zeros(shape, dtype=complex)
    psi[(G.identity,) * 7] = 1.0
    b1 = lambda s: apply_plaquette(G, s, (0, 1, 2, 3), "++--")
    b2 = lambda s: apply_plaquette(G, s, (0, 4, 5, 6), "-+--")
    assert np.linalg.norm(b1(psi) - psi) < 1e-14
    assert np.linalg.norm(b2(psi) - psi) < 1e-14
    from stabtherm.groups import apply_local

    E = flux_pair_creator(G, cls)
    excited = apply_local(psi, E, 0)
    assert np.isclose(np.linalg.norm(excited), 1.0)
    return np.linalg.norm(b1(excited)), np.linalg.norm(b2(excited))


def test_z2_flux_creator_flips_both_plaquettes():
    z2 = cyclic_group(2)
    n1, n2 = two_plaquette_flux_check(z2, (1,))
    assert n1 < 1e-14 and n2 < 1e-14  # annihilated by both flux projectors


def test_s3_transposition_flux_pair():
    s3 = symmetric_group(3)
    cls = next(c for c in s3.conjugacy_classes() if len(c) == 3)
    E = flux_pair_creator(s3, cls)
    # normalization 1/sqrt(3): a sum of 3 disjoint permutation matrices
    assert np.isclose(np.abs(E).max(), 1 / np.sqrt(3))
    assert np.isclose(np.linalg.norm(E @ np.ones(6) / np.sqrt(6)), np.sqrt(3))
    n1, n2 = two_plaquette_flux_check(s3, cls)
    assert n1 < 1e-14 and n2 < 1e-14


def test_flux_creator_rejects_non_class():
    s3 = symmetric_group(3)
    with pytest.raises(ParameterError):
        flux_pair_creator(s3, (1, 3))


def test_torus_operator_lists():
    s3 = symmetric_group(3)
    doc = nonabelian_torus_operators(s3, 3)
    assert len(doc["vertices"]) == 9 and len(doc["plaquettes"]) == 9
    for entry in doc["vertices"] + doc["plaquettes"]:
        assert len(entry["links"]) == 4 and len(entry["pattern"]) == 4
