"""Pauli string algebra against the naive Kronecker-product oracle."""

import numpy as np
import pytest

from stabtherm.errors import CapacityError, DimensionMismatchError, ParameterError
from stabtherm.pauli import PauliString, PauliSum

from oracles import dense_from_label, dense_pauli, projector_product, single_site


def test_multiply_involution():
    x0 = PauliString.single(1, 0, "x")
    r = x0 * x0
    assert r.x == 0 and r.z == 0 and r.phase == 1


def test_multiply_x_times_z_is_minus_i_y():
    x0 = PauliString.single(1, 0, "x")
    z0 = PauliString.single(1, 0, "z")
    r = x0 * z0
    oracle = dense_pauli("X") @ dense_pauli("Z")
    assert np.allclose(r.to_dense(), oracle)
    assert np.allclose(r.to_dense(), -1j * dense_pauli("Y"))


def test_multiply_overlapping_strings_phase():
    # (Z1 Z2 Z3 Z4) * (X3 X4 X5 X6) on 7 qubits, checked against the dense oracle
    a = PauliString.from_letters("IZZZZII")
    b = PauliString.from_letters("IIIXXXX")
    r = a * b
    oracle = a.to_dense() @ b.to_dense()
    assert np.allclose(r.to_dense(), oracle, atol=1e-13)
    # support pattern: Z at 1,2; Y-type overlap at 3,4; X at 5,6
    assert r.letters == "IZZYYXX"


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        PauliString.single(2, 0, "x") * PauliString.single(3, 0, "x")


def test_commutes_single_site():
    assert not PauliString.single(1, 0, "x").commutes(PauliString.single(1, 0, "z"))
    assert PauliString.single(2, 0, "x").commutes(PauliString.single(2, 1, "z"))


def test_commutes_matches_dense_commutator(rng=np.random.default_rng(42)):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        q = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        comm = p.to_dense() @ q.to_dense() - q.to_dense() @ p.to_dense()
        assert p.commutes(q) == (np.linalg.norm(comm) < 1e-12)


def test_to_dense_identity_and_z():
    assert np.allclose(PauliString.identity(1).to_dense(), np.eye(2))
    assert np.allclose(PauliString.single(1, 0, "z").to_dense(), np.diag([1, -1]))


def test_to_dense_capacity():
    with pytest.raises(CapacityError):
        PauliString.identity(15).to_dense()
    # configurable limit
    PauliString.identity(15)  # construction itself is fine


def test_labels_round_trip():
    for label in ["+1 IXYZ", "-1 ZZII", "+i XYZY", "-i YIII", "+1 I"]:
        p = PauliString.from_label(label)
        assert p.label == label
        assert np.allclose(p.to_dense(), dense_from_label(label))


def test_dense_matches_oracle_for_single_sites():
    for n in (1, 3):
        for j in range(n):
            for ax in "xyz":
                p = PauliString.single(n, j, ax)
                assert np.allclose(p.to_dense(), single_site(n, j, ax))


def test_multiply_random_pairs_against_dense_oracle():
    # spec-scale randomized check: products match the dense oracle entrywise
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        q = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        r = p * q
        if n <= 5 or rng.random() < 0.05:  # dense check on a subsample of big ones
            assert np.max(np.abs(r.to_dense() - p.to_dense() @ q.to_dense())) < 1e-12


def test_sum_product_rule_matches_string_products():
    # PauliSum * PauliSum multiplies on the (x, z) keys; its coefficients are
    # exactly those of the phase-0 string products, Y phases included
    rng = np.random.default_rng(19)

    def random_sum(n):
        return PauliSum(n, [(complex(*rng.normal(size=2)),
                             PauliString(n, int(rng.integers(0, 1 << n)),
                                         int(rng.integers(0, 1 << n)), int(rng.integers(0, 4))))
                            for _ in range(int(rng.integers(0, 7)))])

    for _ in range(300):
        n = int(rng.integers(1, 5))
        a, b = random_sum(n), random_sum(n)
        want = PauliSum(n)
        for c1, s1 in a.terms:
            for c2, s2 in b.terms:
                want._add(c1 * c2, s1 * s2)
        assert (a * b)._terms == want._terms
    with pytest.raises(DimensionMismatchError):
        random_sum(2) * random_sum(3)


def test_squares_and_adjoints():
    rng = np.random.default_rng(3)
    eye_cache = {}
    for _ in range(500):
        n = int(rng.integers(1, 7))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        assert p.square_phase() in (1, -1)
        eye = eye_cache.setdefault(n, np.eye(1 << n))
        # P * P^dag = I exactly, by phase bookkeeping alone
        r = p * p.adjoint()
        assert r.x == 0 and r.z == 0 and r.phase == 1
        assert np.allclose(p.to_dense() @ p.to_dense().conj().T, eye)


def test_unitary_and_hermiticity_classification():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        m = p.to_dense()
        assert np.allclose(m @ m.conj().T, np.eye(1 << n))
        assert p.is_hermitian() == np.allclose(m, m.conj().T)


def test_pauli_sum_merges_duplicates():
    p = PauliString.from_letters("XZ")
    s = PauliSum(2, [(1.0, p), (2.5, p)])
    assert len(s) == 1
    coeff, string = s.terms[0]
    assert np.isclose(coeff, 3.5)
    # Y strings keep real coefficients by folding i into the coefficient
    y = PauliString.single(1, 0, "y")
    sy = PauliSum.from_string(y)
    assert np.allclose(sy.to_dense(), dense_pauli("Y"))


def test_pauli_sum_algebra_against_dense():
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(30):
        terms_a = [(complex(rng.normal(), rng.normal()),
                    PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                                int(rng.integers(0, 4)))) for _ in range(3)]
        terms_b = [(complex(rng.normal(), rng.normal()),
                    PauliString(n, int(rng.integers(0, 8)), int(rng.integers(0, 8)),
                                int(rng.integers(0, 4)))) for _ in range(3)]
        a, b = PauliSum(n, terms_a), PauliSum(n, terms_b)
        assert np.allclose((a * b).to_dense(), a.to_dense() @ b.to_dense(), atol=1e-12)
        assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense(), atol=1e-12)
        assert np.allclose(a.adjoint().to_dense(), a.to_dense().conj().T, atol=1e-12)
        # the key rule gives each term exactly the string adjoint's coefficient
        by_string = PauliSum(n, [(np.conj(c), p.adjoint()) for c, p in a.terms])
        assert a.adjoint()._terms == by_string._terms


def test_projector_product_is_projector():
    h1 = PauliString.from_letters("ZZII")
    h2 = PauliString.from_letters("IZZI")
    for signs in [(1, 1), (1, -1), (-1, -1)]:
        proj = projector_product([h1, h2], list(signs))
        m = proj.to_dense()
        assert np.allclose(m @ m, m, atol=1e-13)
        assert np.allclose(m, m.conj().T)


def test_sum_toarray_is_to_dense():
    s = PauliSum(3, [(0.5, PauliString.from_letters("XYZ")),
                     (-2j, PauliString.from_letters("ZIZ"))])
    assert np.array_equal(s.toarray(), s.to_dense())


def test_sparse_matches_dense():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        p = PauliString(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)),
                        int(rng.integers(0, 4)))
        assert np.allclose(p.to_sparse().toarray(), p.to_dense())


def test_sparse_sums_each_entry_in_term_order():
    # 20 terms share one x part and one more has another, so each row holds
    # 21 entries, 20 of them at one column: to_sparse sums those in term
    # order, as to_dense does, not in the order of SciPy's in-row sort
    rng = np.random.default_rng(41)
    for _ in range(10):
        s = PauliSum(5, [(complex(*rng.normal(size=2)), PauliString(5, 0b01101, int(z)))
                         for z in rng.permutation(32)[:20]]
                     + [(complex(*rng.normal(size=2)), PauliString(5, 0b10010, 3))])
        assert len(s) == 21
        assert s.to_sparse().toarray().tobytes() == s.to_dense().tobytes()


def test_arrays_are_the_sorted_nonzero_terms():
    xyz, ziz = PauliString.from_letters("XYZ"), PauliString.from_letters("ZIZ")
    s = PauliSum(3, [(2.0, xyz), (0.5j, ziz), (1.0, PauliString.from_letters("XII"))])
    s = s - PauliSum(3, [(1.0, PauliString.from_letters("XII"))])  # a stored zero
    b, c = s.arrays()
    assert b.dtype == np.int64 and np.array_equal(b, np.sort(b))
    assert [(int(v), complex(m)) for v, m in zip(b, c)] == [
        (p.x << 3 | p.z, m) for m, p in s.terms]
    assert PauliSum.from_arrays(3, b, c)._terms == {k: v for k, v in s._terms.items() if v}
    assert [len(a) for a in PauliSum(3).arrays()] == [0, 0]
    with pytest.raises(CapacityError, match="62 bits"):
        PauliSum(32, [(1.0, PauliString.identity(32))]).arrays()


def test_bad_inputs():
    with pytest.raises(ParameterError):
        PauliString.single(2, 5, "x")
    with pytest.raises(ParameterError):
        PauliString.single(2, 0, "q")
    with pytest.raises(ParameterError):
        PauliString.from_label("+2 XX")
    with pytest.raises(ParameterError):
        PauliString.from_letters("AB")


def test_sum_times_non_finite_scalar_raises():
    # simplify() would drop a NaN or infinite term, as every comparison with it is false
    s = PauliSum(2, [(1.0, PauliString.from_letters("ZZ")), (0.5, PauliString.from_letters("XI"))])
    for c in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ParameterError, match="finite"):
            s * c
        with pytest.raises(ParameterError, match="finite"):
            c * s
    assert len((s * 2.0).simplify()) == 2
