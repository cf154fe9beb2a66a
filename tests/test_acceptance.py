"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or execute the module directly. Criterion 5's kernel-dimension clause
is expected to fail and is marked xfail(strict): the stated 2-ancilla
composite provably conserves sigma^z on every undressed qubit, forcing a
32-dimensional kernel. The stationarity and convergence clauses, which pass,
carry the physical content (the combined Gibbs state is the stationary
attractor of the engineered dynamics).
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from stabtherm.bath import attach_ancillas, davies_reduction, rwa_generator
from stabtherm.circuits import (
    choi_matrix,
    compile_pauli_exponential,
    reset_channel,
    schedule_superoperator,
    schedule_unitary,
    simulate_schedule,
    trotterize,
)
from stabtherm.groups import (
    apply_plaquette,
    commutation_suite,
    default_geometries,
    flux_pair_creator,
    plaquette_op,
    symmetric_group,
    vertex_op,
)
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
    fourier_form_check,
    heisenberg_reconstruction,
    single_vertex_model,
    toric_hamiltonian,
    vertex_string,
)
from stabtherm.verify import check_fixed_point_conditions, ergodicity_check

from oracles import build_superoperator, dist_up_to_phase, single_site, toric_partition_sums


def report(num, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[criterion {num:>3}] {status}  {label} ({elapsed:.1f}s){extra}", flush=True)
    return ok


def full_decomps(H):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


@pytest.fixture(scope="module")
def toric_l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    Hd = H.to_dense()
    evals, evecs = np.linalg.eigh(Hd)
    return lat, H, Hd, evals, evecs


@pytest.fixture(scope="module")
def mini_composite_factory():
    Hm = single_vertex_model(1.0)
    decs = [eigenoperator_decomposition(Hm, 0, "x"),
            eigenoperator_decomposition(Hm, 0, "z")]

    def make(beta):
        model, _ = attach_ancillas(Hm, decs, beta=beta, gamma_minus=0.1)
        return Hm, model, rwa_generator(model)

    return make


def test_criterion_1_topological_degeneracy(toric_l2):
    t0 = time.time()
    lat, H, Hd, evals, evecs = toric_l2
    n_ground = int(np.sum(np.abs(evals - evals.min()) < 1e-9))
    ok = n_ground == 4
    assert report(1, "L=2 ground-space dimension = 4", ok, time.time() - t0,
                  f"dim={n_ground}")


def test_criterion_2_gap(toric_l2):
    t0 = time.time()
    lat, H, Hd, evals, evecs = toric_l2
    gap = evals[np.abs(evals - evals.min()) > 1e-9].min() - evals.min()
    ok = abs(gap - 4.0) < 1e-10
    # sector-resolved: with unequal couplings the two pair levels sit at
    # 4*lambda_e and 4*lambda_m above the ground energy
    H2 = toric_hamiltonian(lat, 0.8, 1.3)
    e2 = np.linalg.eigvalsh(H2.to_dense())
    for sector_gap in (4 * 0.8, 4 * 1.3):
        ok = ok and np.any(np.abs((e2 - e2.min()) - sector_gap) < 1e-10)
    assert report(2, "first excitation gap = 4*lambda in both sectors", ok,
                  time.time() - t0, f"gap={gap:.12f}")


def test_criterion_3_eigenoperator_reconstruction(toric_l2):
    t0 = time.time()
    lat, H, Hd, evals, evecs = toric_l2
    rng = np.random.default_rng(2024)
    times = rng.uniform(0.0, 10.0, 20)
    worst_rec = 0.0
    worst_heis = 0.0
    for j in range(8):
        for ax in ("x", "z"):
            dec = eigenoperator_decomposition(H, j, ax)
            diff = dec.reconstruct() - PauliSum.from_string(dec.source_string())
            worst_rec = max(worst_rec,
                            max((abs(c) for c, _ in diff.terms), default=0.0))
            sig = single_site(8, j, ax)
            for t in times:
                U = (evecs * np.exp(1j * evals * t)) @ evecs.conj().T
                lhs = U @ sig @ U.conj().T
                rhs = heisenberg_reconstruction(dec, t).to_dense()
                worst_heis = max(worst_heis, float(np.linalg.norm(lhs - rhs)))
    ok = worst_rec < 1e-10 and worst_heis < 1e-10
    assert report(3, "eigenoperator reconstruction + Heisenberg identity "
                     "(8 links x {x,z} x 20 times)", ok, time.time() - t0,
                  f"rec={worst_rec:.2e} heis={worst_heis:.2e}")


def test_criterion_4_fourier_form_of_htc():
    t0 = time.time()
    lat = build_torus(2)
    fits = {}
    worst_res = 0.0
    for lam in (0.5, 1.0, 2.0):
        H = toric_hamiltonian(lat, lam, lam)
        c, d, res = fourier_form_check(H, full_decomps(H))
        fits[lam] = (c / lam, d / lam)
        worst_res = max(worst_res, res)
    ok = worst_res < 1e-10
    # fitted prefactor and constant stable across couplings (c = lambda/2,
    # d = -2 L^2 lambda under the Delta = 2*lambda convention)
    base = fits[1.0]
    for lam, scaled in fits.items():
        ok = ok and np.allclose(scaled, base, atol=1e-9)
    ok = ok and np.isclose(base[0], 0.5, atol=1e-10) and np.isclose(base[1], -8.0, atol=1e-9)
    assert report(4, "H_TC Fourier form: residual < 1e-10, fit stable over lambda",
                  ok, time.time() - t0,
                  f"c/lambda={base[0]:.6f} d/lambda={base[1]:.6f} res={worst_res:.2e}")


def test_criterion_5_composite_thermalization(mini_composite_factory):
    t0 = time.time()
    ok = True
    details = []
    for beta in (0.5, 1.0, 2.0):
        Hm, model, gen = mini_composite_factory(beta)
        target = model.join(gibbs_state(Hm.to_dense(), beta).mat,
                            model.thermal_ancilla_state(beta))
        L = build_superoperator(gen)
        scale = abs(L).max()
        resid = float(np.linalg.norm(L @ vec(target))) / max(scale, 1.0)
        evolved = evolve(gen, DensityMatrix.maximally_mixed(model.dim), 500.0)
        dist = trace_distance(evolved.mat, target)
        ok = ok and resid < 1e-9 and dist < 1e-8
        details.append(f"beta={beta}: resid={resid:.1e} dist={dist:.1e}")
    assert report("5", "composite mini-model: gibbs x ancilla-thermal is "
                       "stationary and reached from the mixed state", ok,
                  time.time() - t0, "; ".join(details))


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: with 2 ancillas, sigma^z on each undressed qubit "
           "commutes with H_RWA and all jumps, so the kernel dimension is 32, "
           "not 1; ergodic dressing needs 7+ ancillas, beyond the stated "
           "ancilla count and the superoperator capacity (see decisions ledger)",
)
def test_criterion_5_kernel_dimension_as_stated(mini_composite_factory):
    t0 = time.time()
    _, _, gen = mini_composite_factory(1.0)
    ss = steady_states(gen)
    report("5b", "composite mini-model kernel dimension = 1 (as stated)",
           ss.kernel_dim == 1, time.time() - t0, f"kernel={ss.kernel_dim}")
    assert ss.kernel_dim == 1


@pytest.fixture(scope="module")
def davies_l2():
    lat = build_torus(2)
    H = toric_hamiltonian(lat, 1.0, 1.0)
    decomps = [eigenoperator_decomposition(H, j, a)
               for j in range(8) for a in ("x", "z")]
    return lat, H, decomps


def test_criterion_6_system_only_thermalization(davies_l2):
    t0 = time.time()
    lat, H, decomps = davies_l2
    beta, g0 = 1.0, 0.5
    gen = davies_reduction(H, decomps, beta, g0)
    ss = steady_states(gen)
    gs = gibbs_state(H.to_dense(), beta)
    ok = ss.kernel_dim == 1
    dist = ss.state.distance(gs)
    ok = ok and dist < 1e-6
    av = ss.state.expectation(vertex_string(lat, 0).to_dense())
    _, av_oracle, _, _ = toric_partition_sums(2, 1.0, 1.0, beta)
    ok = ok and abs(av - av_oracle) < 1e-6
    ss10 = steady_states(davies_reduction(H, decomps, beta, 10 * g0))
    drift = ss.state.distance(ss10.state)
    ok = ok and drift < 1e-8
    assert report(6, "davies L=2: unique steady state = gibbs, <A_v> matches "
                     "oracle, gamma0-invariant", ok, time.time() - t0,
                  f"kernel={ss.kernel_dim} dist={dist:.1e} "
                  f"dAv={abs(av - av_oracle):.1e} drift={drift:.1e}")


def test_criterion_7_fixed_point_conditions(toric_l2):
    t0 = time.time()
    lat, H, Hd, evals, evecs = toric_l2
    beta = 1.0
    decomps = full_decomps(H)
    on_gibbs = check_fixed_point_conditions(gibbs_state(Hd, beta), decomps, beta)
    ok = on_gibbs.max_residual() < 1e-9
    mixed = check_fixed_point_conditions(DensityMatrix.maximally_mixed(256), decomps, beta)
    wrong_beta = check_fixed_point_conditions(gibbs_state(Hd, beta + 0.5), decomps, beta)
    ok = ok and mixed.max_residual("lowering") > 1e-3
    ok = ok and wrong_beta.max_residual("lowering") > 1e-3
    assert report(7, "lowering/raising/translation residuals < 1e-9 on gibbs; "
                     "controls exceed 1e-3", ok, time.time() - t0,
                  f"gibbs={on_gibbs.max_residual():.1e} "
                  f"mixed={mixed.max_residual('lowering'):.1e} "
                  f"offbeta={wrong_beta.max_residual('lowering'):.1e}")


def test_criterion_8_ergodicity_controls(davies_l2):
    t0 = time.time()
    lat, H, decomps = davies_l2
    full = davies_reduction(H, decomps, 1.0, 0.5)
    rep_full = ergodicity_check(H, [j.op for j in full.jumps], max_commutant=4)
    t_only = davies_reduction(H, decomps, 1.0, 0.5, include=("translate",))
    rep_t = ergodicity_check(H, [j.op for j in t_only.jumps], max_commutant=4)
    ok = rep_full.commutant_dim == 1 and rep_full.ergodic
    ok = ok and rep_t.commutant_dim > 1 and not rep_t.ergodic
    assert report(8, "commutant dim: full jump set = 1, T-only > 1", ok,
                  time.time() - t0,
                  f"full={rep_full.commutant_dim} T-only={rep_t.commutant_dim}")


def test_criterion_9_exact_four_body_compilation():
    t0 = time.time()
    rng = np.random.default_rng(99)
    pz = PauliString.from_letters("ZZZZ")
    worst = 0.0
    for phi in rng.uniform(0.0, 2 * np.pi, 100):
        U = schedule_unitary(compile_pauli_exponential(pz, phi))
        worst = max(worst, dist_up_to_phase(U, expm(-1j * phi * pz.to_dense())))
    ok = worst < 1e-12
    # Hadamard conjugation identity for XXXX
    H1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    H4 = H1
    for _ in range(3):
        H4 = np.kron(H4, H1)
    phi = 1.234
    px = PauliString.from_letters("XXXX")
    Ux = schedule_unitary(compile_pauli_exponential(px, phi))
    Uz = schedule_unitary(compile_pauli_exponential(pz, phi))
    had = dist_up_to_phase(Ux, H4 @ Uz @ H4)
    ok = ok and had < 1e-12
    assert report(9, "exp(-i phi ZZZZ) exact over 100 angles; "
                     "U_X = H^4 U_Z H^4", ok, time.time() - t0,
                  f"worst={worst:.2e} hadamard={had:.2e}")


def test_criterion_10_trotter_scaling():
    t0 = time.time()
    from stabtherm.toric import single_stabilizer_model

    H = single_stabilizer_model("ZZ", 1.0)
    decs = [eigenoperator_decomposition(H, 0, "x"),
            eigenoperator_decomposition(H, 0, "z")]
    model, _ = attach_ancillas(H, decs, beta=1.0, gamma_minus=0.3, g=0.4)
    gen = rwa_generator(model)
    exact = expm(build_superoperator(gen).toarray() * 2.0)
    Ns = [8, 16, 32, 64, 128, 256]
    errs = [np.linalg.norm(schedule_superoperator(trotterize(gen, 2.0, N)) - exact, 2)
            for N in Ns]
    slope = -float(np.polyfit(np.log(Ns), np.log(errs), 1)[0])
    ok = abs(slope - 1.0) < 0.15
    assert report(10, "trotter error slope = 1.0 +/- 0.15 over N in {8..256}",
                  ok, time.time() - t0, f"slope={slope:.4f}")


def test_criterion_11_reset_channel():
    t0 = time.time()
    beta, omega = 0.7, 2.0
    Ca = choi_matrix(reset_channel(beta, omega, implementation="direct"))
    Cb = choi_matrix(reset_channel(beta, omega, implementation="measured"))
    choi_diff = float(np.linalg.norm(Ca - Cb))
    ok = choi_diff < 1e-12
    sched = reset_channel(beta, omega, implementation="measured")
    rng = np.random.default_rng(12)
    outs = []
    for _ in range(20):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        outs.append(simulate_schedule(sched, DensityMatrix.pure(v)).mat)
    fixed = max(np.linalg.norm(a - b) for a in outs for b in outs)
    ok = ok and fixed < 1e-12
    assert report(11, "measured reset Choi = direct reset Choi; output "
                      "input-independent", ok, time.time() - t0,
                  f"choi={choi_diff:.2e} spread={fixed:.2e}")


def test_criterion_12_nonabelian_suite():
    t0 = time.time()
    s3 = symmetric_group(3)
    sizes = sorted(len(c) for c in s3.conjugacy_classes())
    ok = sizes == [1, 2, 3]
    A = vertex_op(s3).mat
    B = plaquette_op(s3).mat
    proj_a = float(np.linalg.norm(A @ A - A))
    proj_b = float(np.linalg.norm(B @ B - B))
    ok = ok and proj_a < 1e-12 and proj_b < 1e-12
    geo = [g for g in default_geometries() if g.name == "shared-2"]
    rep = commutation_suite(s3, geometries=geo)
    comm = rep.results[0][1]
    ok = ok and comm < 1e-12
    # flux pair creator: output annihilated by both adjacent flux projectors
    cls = next(c for c in s3.conjugacy_classes() if len(c) == 3)
    d = s3.order
    psi = np.zeros((d,) * 7, dtype=complex)
    psi[(s3.identity,) * 7] = 1.0
    from stabtherm.groups import apply_local

    excited = apply_local(psi, flux_pair_creator(s3, cls), 0)
    n1 = float(np.linalg.norm(apply_plaquette(s3, excited, (0, 1, 2, 3), "++--")))
    n2 = float(np.linalg.norm(apply_plaquette(s3, excited, (0, 4, 5, 6), "-+--")))
    ok = ok and n1 < 1e-12 and n2 < 1e-12
    assert report(12, "S3: class sizes {1,3,2}, projectors exact, [A,B]=0 "
                      "shared-link, flux pair annihilated by adjacent B_p", ok,
                  time.time() - t0,
                  f"proj=({proj_a:.1e},{proj_b:.1e}) comm={comm:.2e} "
                  f"flux=({n1:.1e},{n2:.1e})")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
