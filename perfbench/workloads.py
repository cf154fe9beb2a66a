"""The four benchmark workloads.

Each workload draws its parameters from the seed, builds its inputs (the
set-up the benchmark times), lists the operations of one pass and checks
their outputs against the benchmark's own oracles (``oracles.py``) or
against properties the method must have. Package functions are looked up on
their modules at call time, so a traced run sees every call.
"""

from __future__ import annotations

import csv
import random

import numpy as np

import oracles
from stabtherm import bath, circuits, cli, lindblad, pauli, toric, verify

L = 2
THERMALIZE_T = 10.0
THERMALIZE_POINTS = 3
EXACT_STEPS, EXACT_T = 600, 60.0      # exact partial resets, dt = 0.1
PINNED_STEPS, PINNED_T = 300, 60.0    # full resets, dt = 0.2
ERGODICITY_MAX_COMMUTANT = 2
FIVE_QUBIT_CODE = "XZZXI"


def _toric_params(seed: int) -> dict:
    rng = random.Random(seed)
    return {"beta": rng.uniform(0.9, 1.1), "gamma0": rng.uniform(0.45, 0.55),
            "lambda_e": rng.uniform(0.9, 1.1), "lambda_m": rng.uniform(0.9, 1.1)}


def _decompositions(H):
    return [toric.eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


def _failures(checks) -> list[str]:
    return [what for ok, what in checks if not ok]


class DaviesSteadyL2:
    """Kernel of the L=2 Davies superoperator by shift-invert ARPACK."""

    name = "davies-steady-l2"

    params = staticmethod(_toric_params)

    def build(self, p):
        lat = toric.build_torus(L)
        H = toric.toric_hamiltonian(lat, p["lambda_e"], p["lambda_m"])
        return bath.davies_reduction(H, _decompositions(H), p["beta"], p["gamma0"])

    def reference(self, p):
        H, A, B = oracles.toric_hamiltonian(L, p["lambda_e"], p["lambda_m"])
        return {"H": H, "A": A, "B": B, "gibbs": oracles.gibbs(H, p["beta"]),
                "sums": oracles.toric_partition_sums(L, p["lambda_e"], p["lambda_m"], p["beta"])}

    def operations(self, gen, p, out_dir):
        return [("steady_states", lambda: lindblad.steady_states(gen))]

    def check(self, x, out, ref, p):
        ss = out["steady_states"]
        if ss.kernel_dim != 1:
            return [f"kernel dimension {ss.kernel_dim}, expected 1"]
        rho = ss.state.mat
        sums = ref["sums"]
        a_v = np.mean([oracles.expectation(P, rho) for P in ref["A"]])
        b_p = np.mean([oracles.expectation(P, rho) for P in ref["B"]])
        energy = oracles.expectation(ref["H"], rho)
        return _failures([
            (oracles.trace_distance(rho, ref["gibbs"]) < 1e-8, "trace distance to Gibbs"),
            (abs(a_v - sums["A_v"]) < 1e-8, "<A_v> vs partition sum"),
            (abs(b_p - sums["B_p"]) < 1e-8, "<B_p> vs partition sum"),
            (abs(energy - sums["energy"]) < 1e-7, "<H> vs partition sum"),
        ])


class ThermalizeL2:
    """`stabtherm thermalize` run in-process, Krylov evolution, 3 points."""

    name = "thermalize-l2"

    params = staticmethod(_toric_params)

    def build(self, p):
        return [
            "thermalize", "--model", "toric", "--L", str(L),
            "--lambda-e", repr(p["lambda_e"]), "--lambda-m", repr(p["lambda_m"]),
            "--beta", repr(p["beta"]), "--gamma0", repr(p["gamma0"]),
            "--t", repr(THERMALIZE_T), "--points", str(THERMALIZE_POINTS),
            "--method", "krylov", "--observables", "energy,gibbs_distance,A_v,B_p",
        ]

    def reference(self, p):
        H, _, _ = oracles.toric_hamiltonian(L, p["lambda_e"], p["lambda_m"])
        d = len(H)
        return {"sums": oracles.toric_partition_sums(L, p["lambda_e"], p["lambda_m"], p["beta"]),
                "start_distance": oracles.trace_distance(np.eye(d) / d,
                                                         oracles.gibbs(H, p["beta"]))}

    def operations(self, argv, p, out_dir):
        path = out_dir / f"thermalize-{p['seed']}.csv"

        def run():
            code = cli.main(argv + ["-o", str(path)])
            if code != 0:
                raise RuntimeError(f"thermalize exited with {code}")
            with open(path, newline="") as fh:
                return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]

        return [("thermalize", run)]

    def check(self, x, out, ref, p):
        rows = out["thermalize"]
        if len(rows) != THERMALIZE_POINTS:
            return [f"{len(rows)} rows, expected {THERMALIZE_POINTS}"]
        n = L * L
        dist = [r["gibbs_distance"] for r in rows]
        energy_split = max(
            abs(r["energy"] + n * (p["lambda_e"] * r["A_v"] + p["lambda_m"] * r["B_p"]))
            for r in rows)
        return _failures([
            (np.allclose([r["t"] for r in rows], np.linspace(0, THERMALIZE_T, THERMALIZE_POINTS)),
             "time grid"),
            (abs(dist[0] - ref["start_distance"]) < 1e-10, "initial distance to Gibbs"),
            (all(b <= a + 1e-12 for a, b in zip(dist, dist[1:])),
             "gibbs_distance does not increase"),
            (energy_split < 1e-9, "energy = -L^2 (lambda_e <A_v> + lambda_m <B_p>)"),
            (abs(rows[-1]["energy"] - ref["sums"]["energy"]) < 1e-4,
             "final energy vs Gibbs partition sum"),
        ])


class TrotterComposite:
    """Trotterized RWA dynamics of the fully dressed ZZ composite (d = 64)."""

    name = "trotter-composite"

    def params(self, seed):
        rng = random.Random(seed)
        return {"beta": rng.uniform(0.9, 1.1), "gamma_minus": rng.uniform(0.27, 0.33),
                "g": rng.uniform(0.36, 0.44), "lam": rng.uniform(0.9, 1.1)}

    def build(self, p):
        H = toric.single_stabilizer_model("ZZ", p["lam"])
        model, _ = bath.attach_ancillas(H, _decompositions(H), p["beta"],
                                        p["gamma_minus"], g=p["g"])
        gen = bath.rwa_generator(model)
        pinned = circuits.trotterize(gen, PINNED_T, PINNED_STEPS, pin_resets=True)
        return {
            "exact": circuits.trotterize(gen, EXACT_T, EXACT_STEPS),
            "pinned": pinned,
            "measured": self._measured_resets(pinned),
            "rho0": lindblad.DensityMatrix.maximally_mixed(model.dim),
        }

    @staticmethod
    def _measured_resets(sched):
        """The same schedule with each full reset as measure + sample + pulses."""
        gates = []
        for g in sched.gates:
            if g.kind == circuits.THERMAL_RESET:
                if g.relax != 1.0:
                    raise ValueError("only full resets have a measured realisation")
                gates += circuits.reset_channel(g.beta, g.omega, g.qubit, sched.n_qubits,
                                                implementation="measured").gates
            else:
                gates.append(g)
        return circuits.GateSchedule(sched.n_qubits, tuple(gates), 2,
                                     sched.total_time, sched.steps)

    def reference(self, p):
        return {"fixed_point": oracles.zz_composite_fixed_point(p["lam"], p["beta"])}

    def operations(self, x, p, out_dir):
        return [(k, lambda k=k: circuits.simulate_schedule(x[k], x["rho0"]))
                for k in ("exact", "pinned", "measured")]

    def check(self, x, out, ref, p):
        return _failures([
            (oracles.trace_distance(out["exact"].mat, ref["fixed_point"]) < 1e-6,
             "exact-reset output vs Gibbs x thermal ancillas"),
            (oracles.trace_distance(out["pinned"].mat, out["measured"].mat) <= 1e-12,
             "THERMAL_RESET and measured reset agree"),
        ])


class Ergodicity:
    """Commutant verdicts: [[5,1,3]] full Davies set, L=2 translation-only."""

    name = "ergodicity"

    def params(self, seed):
        rng = random.Random(seed)
        # one coupling per model: unequal couplings would split eigenspaces
        # and change the work ergodicity_check does
        return {"beta": rng.uniform(0.9, 1.1), "gamma0": rng.uniform(0.45, 0.55),
                "lam_code": rng.uniform(0.9, 1.1), "lam_torus": rng.uniform(0.9, 1.1)}

    def build(self, p):
        strings = oracles.cyclic_code_strings(FIVE_QUBIT_CODE)
        code = toric.StabilizerHamiltonian(5, tuple(
            toric.StabilizerTerm(p["lam_code"], pauli.PauliString.from_letters(s))
            for s in strings))
        full = bath.davies_reduction(code, _decompositions(code), p["beta"], p["gamma0"])
        lat = toric.build_torus(L)
        torus = toric.toric_hamiltonian(lat, p["lam_torus"], p["lam_torus"])
        t_only = bath.davies_reduction(torus, _decompositions(torus), p["beta"], p["gamma0"],
                                       include=("translate",))
        return {"code": (code, [j.op for j in full.jumps]),
                "torus": (torus, [j.op for j in t_only.jumps])}

    def reference(self, p):
        H, _, _ = oracles.toric_hamiltonian(L, p["lam_torus"], p["lam_torus"])
        return {"torus_H": H}

    def operations(self, x, p, out_dir):
        return [(k, lambda k=k: verify.ergodicity_check(
                    *x[k], max_commutant=ERGODICITY_MAX_COMMUTANT))
                for k in ("code", "torus")]

    def check(self, x, out, ref, p):
        code, torus = out["code"], out["torus"]
        # I and H commute with every translation jump and its adjoint, and H
        # is not a multiple of I, so the commutant is at least 2-dimensional
        H = ref["torus_H"]
        jumps = [T.toarray() for T in x["torus"][1]]
        worst = max(np.abs(H @ K - K @ H).max() for T in jumps for K in (T, T.conj().T))
        traceless = H - np.trace(H) / len(H) * np.eye(len(H))
        return _failures([
            (code.ergodic and code.commutant_dim == 1, "[[5,1,3]] full set is ergodic"),
            (not torus.ergodic and torus.commutant_dim >= 2,
             "L=2 translation-only set is not ergodic"),
            (len(jumps) > 0 and worst < 1e-12 and np.abs(traceless).max() > 0.1,
             "I and H lie in the translation-only commutant"),
        ])


WORKLOADS = {w.name: w for w in (DaviesSteadyL2(), ThermalizeL2(), TrotterComposite(),
                                 Ergodicity())}
