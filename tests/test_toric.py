"""Toric lattice, Hamiltonian, loop operators, eigenoperators, excitations."""

import numpy as np
import pytest

from stabtherm.errors import ModelError, ParameterError
from stabtherm.pauli import PauliString, PauliSum
from stabtherm.toric import (
    plaquette_string,
    build_torus,
    eigenoperator_decomposition,
    fourier_form_check,
    heisenberg_reconstruction,
    loop_operators,
    single_vertex_model,
    single_stabilizer_model,
    toric_hamiltonian,
    vertex_string,
)

from oracles import single_site, toric_spectrum


@pytest.fixture(scope="module")
def l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    return lat, H


@pytest.fixture(scope="module")
def l2_dense(l2):
    lat, H = l2
    Hd = H.to_dense()
    evals, evecs = np.linalg.eigh(Hd)
    return Hd, evals, evecs


def test_lattice_counts():
    lat = build_torus(2)
    assert lat.n_links == 8
    assert len(lat.vertices) == 4 and len(lat.plaquettes) == 4
    lat3 = build_torus(3)
    assert lat3.n_links == 18
    # every link appears in exactly 2 vertex sets and 2 plaquette sets
    for links, count in ((lat3.vertices, 2), (lat3.plaquettes, 2)):
        hits = np.zeros(18, dtype=int)
        for group in links:
            for j in group:
                hits[j] += 1
        assert (hits == count).all()
    assert sum(len(v) for v in lat3.vertices) == 4 * 9
    with pytest.raises(ParameterError):
        build_torus(1)


def test_product_of_all_vertex_ops_is_identity():
    lat = build_torus(2)
    prod = PauliString.identity(8)
    for v in range(4):
        prod = prod * vertex_string(lat, v)
    assert prod.x == 0 and prod.z == 0 and prod.phase == 1


def test_hamiltonian_requires_positive_couplings():
    lat = build_torus(2)
    with pytest.raises(ParameterError):
        toric_hamiltonian(lat, 0.0, 1.0)
    with pytest.raises(ParameterError):
        toric_hamiltonian(lat, 1.0, -2.0)


def test_ground_energy_and_degeneracy(l2_dense):
    _, evals, _ = l2_dense
    assert np.isclose(evals[0], -8.0, atol=1e-10)
    assert int(np.sum(np.abs(evals - evals[0]) < 1e-9)) == 4


def test_gap_is_4_lambda(l2_dense):
    _, evals, _ = l2_dense
    above = evals[np.abs(evals - evals[0]) > 1e-9]
    assert np.isclose(above.min() - evals[0], 4.0, atol=1e-10)


def test_spectrum_matches_syndrome_enumeration():
    lat = build_torus(2)
    for lam_e, lam_m in [(1.0, 1.0), (0.7, 1.3)]:
        H = toric_hamiltonian(lat, lam_e, lam_m)
        dense = np.linalg.eigvalsh(H.to_dense())
        oracle = toric_spectrum(2, lam_e, lam_m)
        assert np.allclose(dense, oracle, atol=1e-10)


def test_loop_operators_commute_and_pair(l2, l2_dense):
    lat, H = l2
    Hd, evals, evecs = l2_dense
    loops = loop_operators(lat)
    for name, w in loops.items():
        wd = w.to_dense()
        assert np.linalg.norm(wd @ Hd - Hd @ wd) < 1e-12, name
        sq = w * w
        assert sq.x == 0 and sq.z == 0 and sq.phase == 1
    # conjugate pairing a != b anticommutes, a == b commutes
    assert loops["Wx1"].commutes(loops["Wz1"])
    assert loops["Wx2"].commutes(loops["Wz2"])
    assert not loops["Wx1"].commutes(loops["Wz2"])
    assert not loops["Wx2"].commutes(loops["Wz1"])


def test_loop_eigenvalues_split_ground_space(l2, l2_dense):
    lat, _ = l2
    _, evals, evecs = l2_dense
    V0 = evecs[:, np.abs(evals - evals[0]) < 1e-9]
    for name, w in loop_operators(lat).items():
        block = V0.conj().T @ w.to_dense() @ V0
        vals = np.sort(np.linalg.eigvalsh(block))
        assert np.allclose(np.abs(vals), 1.0, atol=1e-10)
        assert np.allclose(vals, [-1, -1, 1, 1], atol=1e-10), name


# -- eigenoperator decomposition ----------------------------------------------

def test_toric_sigma_x_components(l2):
    lat, H = l2
    dec = eigenoperator_decomposition(H, 0, "x")
    assert dec.frequencies == (0.0, 2.0)
    assert dec.m_components == 2


def test_single_vertex_decomposition():
    H = single_vertex_model(1.0)
    dec = eigenoperator_decomposition(H, 0, "x")
    assert dec.frequencies == (1.0,)
    dz = eigenoperator_decomposition(H, 0, "z")
    assert dz.frequencies == (0.0,)
    # sigma^z is its own (zero-frequency) eigenoperator
    t = dz.components[0].translation
    diff = t - PauliSum.from_string(PauliString.single(4, 0, "z"))
    assert all(abs(c) < 1e-14 for c, _ in diff.terms)


def test_pure_z_hamiltonian_z_pauli_is_self_eigenoperator():
    H = single_stabilizer_model("ZZZ", 2.0)
    dec = eigenoperator_decomposition(H, 1, "z")
    assert dec.frequencies == (0.0,)


def test_reconstruction_all_sites_and_axes(l2):
    lat, H = l2
    for j in range(8):
        for ax in ("x", "z"):
            dec = eigenoperator_decomposition(H, j, ax)
            diff = dec.reconstruct() - PauliSum.from_string(dec.source_string())
            assert all(abs(c) < 1e-12 for c, _ in diff.terms), (j, ax)


def test_lowering_commutator_convention(l2, l2_dense):
    lat, H = l2
    Hd, _, _ = l2_dense
    dec = eigenoperator_decomposition(H, 3, "x")
    for comp in dec.components:
        a = comp.lowering.to_dense()
        comm = Hd @ a - a @ Hd
        assert np.linalg.norm(comm - (-2.0 * comp.epsilon) * a) < 1e-10


def test_heisenberg_picture_identity(l2, l2_dense):
    lat, H = l2
    Hd, evals, evecs = l2_dense
    rng = np.random.default_rng(12)
    for j, ax in [(0, "x"), (5, "z"), (2, "x")]:
        dec = eigenoperator_decomposition(H, j, ax)
        sig = single_site(8, j, ax)
        for t in rng.uniform(0.0, 10.0, 6):
            U = (evecs * np.exp(1j * evals * t)) @ evecs.conj().T
            lhs = U @ sig @ U.conj().T
            rhs = heisenberg_reconstruction(dec, t).to_dense()
            assert np.linalg.norm(lhs - rhs) < 1e-10


def test_sigma_y_decomposition_against_dense_oracle(l2, l2_dense):
    # sigma^y anticommutes with both sectors; frequencies are recorded from the
    # dense Heisenberg identity rather than assumed
    lat, H = l2
    Hd, evals, evecs = l2_dense
    dec = eigenoperator_decomposition(H, 0, "y")
    freqs = sorted(dec.frequencies)
    assert freqs == [0.0, 2.0, 4.0]  # |e-pair +- m-pair| / 2 combinations
    rng = np.random.default_rng(4)
    sig = single_site(8, 0, "y")
    for t in rng.uniform(0.0, 10.0, 4):
        U = (evecs * np.exp(1j * evals * t)) @ evecs.conj().T
        assert np.linalg.norm(U @ sig @ U.conj().T
                              - heisenberg_reconstruction(dec, t).to_dense()) < 1e-10


def test_unequal_couplings_supported():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 0.5, 2.0)
    dx = eigenoperator_decomposition(H, 0, "x")
    dz = eigenoperator_decomposition(H, 0, "z")
    assert dx.frequencies == (0.0, 1.0)   # 2*lambda_e
    assert dz.frequencies == (0.0, 4.0)   # 2*lambda_m
    # sigma^y flips two vertex (0.5 each) and two plaquette (2.0 each) signs:
    # |sum of +-0.5 +-0.5 +-2 +-2| takes the values {0, 1, 3, 4, 5}
    dy = eigenoperator_decomposition(H, 0, "y")
    assert sorted(dy.frequencies) == [0.0, 1.0, 3.0, 4.0, 5.0]
    # and the Heisenberg identity validates all of them at once
    Hd = H.to_dense()
    evals, evecs = np.linalg.eigh(Hd)
    sig = single_site(8, 0, "y")
    for t in (0.37, 1.91):
        U = (evecs * np.exp(1j * evals * t)) @ evecs.conj().T
        assert np.linalg.norm(U @ sig @ U.conj().T
                              - heisenberg_reconstruction(dy, t).to_dense()) < 1e-10


def test_decomposition_rejects_noncommuting_model():
    a = PauliString.from_letters("XZ")
    b = PauliString.from_letters("ZZ")
    assert not a.commutes(b)
    from stabtherm.toric import StabilizerHamiltonian, StabilizerTerm

    with pytest.raises(ModelError):
        StabilizerHamiltonian(2, (StabilizerTerm(1.0, a), StabilizerTerm(1.0, b)))


# -- pair creation and translation components ---------------------------------

def full_decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


def split(dec):
    """(the eps > 0 component, the zero mode) of a two-component decomposition."""
    pair, = [c for c in dec.components if not c.is_zero_mode]
    zero, = [c for c in dec.components if c.is_zero_mode]
    return pair, zero


def test_excitation_resolution_of_identity(l2):
    lat, H = l2
    for axis in ("x", "z"):
        pair, zero = split(eigenoperator_decomposition(H, 0, axis))
        whole = (pair.lowering + pair.raising + zero.translation).simplify()
        diff = whole - PauliSum.from_string(PauliString.single(8, 0, axis))
        assert all(abs(c) < 1e-13 for c, _ in diff.terms)
        assert np.isclose(pair.epsilon, 2.0)  # Delta = 2*lambda
        assert zero.translation.is_hermitian()
        assert np.allclose(pair.raising.to_dense(), pair.lowering.to_dense().conj().T)


def test_pair_creation_syndromes_and_energy(l2, l2_dense):
    lat, H = l2
    Hd, evals, evecs = l2_dense
    V0 = evecs[:, np.abs(evals - evals[0]) < 1e-9]
    psi0 = V0[:, 0]
    pair, _ = split(eigenoperator_decomposition(H, 0, "x"))
    created = pair.raising.to_dense() @ psi0
    norm = np.linalg.norm(created)
    assert norm > 1e-8
    created /= norm
    v1, v2 = lat.link_vertices[0]
    for v in (v1, v2):
        av = vertex_string(lat, v).to_dense()
        assert np.isclose(np.vdot(created, av @ created).real, -1.0, atol=1e-10)
    energy = np.vdot(created, Hd @ created).real
    assert np.isclose(energy - evals[0], 4.0, atol=1e-10)  # pair costs 2*Delta


def test_translation_annihilates_ground_state(l2, l2_dense):
    lat, H = l2
    _, evals, evecs = l2_dense
    V0 = evecs[:, np.abs(evals - evals[0]) < 1e-9]
    for axis in ("x", "z"):
        _, zero = split(eigenoperator_decomposition(H, 3, axis))
        T = zero.translation.to_dense()
        assert np.linalg.norm(T @ V0) < 1e-12


def test_decomposition_bad_inputs(l2):
    lat, H = l2
    with pytest.raises(ParameterError):
        eigenoperator_decomposition(H, 99, "x")
    with pytest.raises(ParameterError):
        eigenoperator_decomposition(H, 0, "w")


# -- Fourier form of H_TC ------------------------------------------------------

def test_fourier_form_residual_and_fit(l2):
    lat, H = l2
    c, d, res = fourier_form_check(H, full_decomps(H))
    assert res < 1e-10
    # Delta = 2*lambda convention: prefactor Delta/4 = lambda/2, constant -2*lambda*L^2
    assert np.isclose(c, 0.5, atol=1e-12)
    assert np.isclose(d, -8.0, atol=1e-10)


def test_fourier_form_scales_linearly_with_coupling():
    lat = build_torus(2)
    fits = {}
    for lam in (0.5, 1.0, 2.0):
        H = toric_hamiltonian(lat, lam, lam)
        c, d, res = fourier_form_check(H, full_decomps(H))
        assert res < 1e-10
        fits[lam] = (c, d)
    assert np.isclose(fits[2.0][0], 2 * fits[1.0][0], atol=1e-12)
    assert np.isclose(fits[0.5][0], 0.5 * fits[1.0][0], atol=1e-12)


def test_fourier_sum_commutes_with_hamiltonian(l2):
    lat, H = l2
    S = np.zeros((256, 256), dtype=complex)
    for dec in full_decomps(H):
        pair, zero = split(dec)
        e = pair.lowering.to_dense()
        t = zero.translation.to_dense()
        S += 2 * e.conj().T @ e + t @ t
    Hd = H.to_dense()
    assert np.linalg.norm(S @ Hd - Hd @ S) < 1e-10


def test_fourier_form_requires_complete_set(l2):
    lat, H = l2
    decomps = full_decomps(H)
    with pytest.raises(ModelError):
        fourier_form_check(H, decomps[:-1])
    with pytest.raises(ModelError):
        fourier_form_check(H, decomps[:-1] + decomps[:1])


def test_vertex_stabilizer_dense_eigenvalues():
    lat = build_torus(2)
    av = vertex_string(lat, 0)
    # restricted to its 4-qubit support: eigenvalues +1 (x8), -1 (x8)
    sub = PauliString.from_letters("ZZZZ")
    evals = np.sort(np.linalg.eigvalsh(sub.to_dense()))
    assert np.allclose(evals[:8], -1) and np.allclose(evals[8:], 1)
    assert av.weight == 4


def test_vertex_plaquette_commutation_on_torus(l2):
    lat, H = l2
    for v in range(4):
        for p in range(4):
            assert vertex_string(lat, v).commutes(plaquette_string(lat, p))
    # a single-site Pauli anticommutes with the stabilizers it touches
    for v in range(4):
        av = vertex_string(lat, v)
        for j in lat.vertices[v]:
            assert not PauliString.single(8, j, "x").commutes(av)
