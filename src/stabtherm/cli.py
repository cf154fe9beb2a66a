"""stabtherm command line: build models, thermalize, verify, compile.

Exit codes: 0 success, 2 config error, 3 capacity error, 4 numerical failure.
Energies are in units of the coupling lambda, temperatures as beta*lambda.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    ConfigError,
    ModelError,
    NumericalError,
    ParameterError,
    ScheduleError,
)
from .lindblad import (
    DensityMatrix,
    Sectors,
    _check_capacity,
    gibbs_populations,
    gibbs_state,
    sector_trajectory,
    steady_states,
    trace_product,
)
from .pauli import DENSE_LIMIT, PauliString, _check_limit
from .serialize import (
    config_hash,
    csv_text,
    hamiltonian_to_json,
    lattice_to_json,
    state_to_json,
    strict_json,
    write_csv,
)
from .toric import (
    StabilizerHamiltonian,
    ToricLattice,
    build_torus,
    eigenoperator_decomposition,
    fourier_form_check,
    loop_operators,
    single_vertex_model,
    single_stabilizer_model,
    toric_hamiltonian,
    vertex_string,
    plaquette_string,
)


# ---------------------------------------------------------------------------
# model construction helpers
# ---------------------------------------------------------------------------

def _build_model(spec: dict) -> tuple[StabilizerHamiltonian, ToricLattice | None]:
    kind = spec.get("type")
    if kind == "toric":
        L = int(spec.get("L", 2))
        lam_e = float(spec.get("lambda_e", 1.0))
        lam_m = float(spec.get("lambda_m", 1.0))
        lat = build_torus(L)
        return toric_hamiltonian(lat, lam_e, lam_m), lat
    if kind == "mini-vertex":
        return single_vertex_model(float(spec.get("lam", 1.0))), None
    if kind == "single-stabilizer":
        return single_stabilizer_model(spec["letters"], float(spec.get("lam", 1.0))), None
    raise ConfigError(f"unknown model type {spec.get('type')!r}")


def _model_spec_from_args(args) -> dict:
    if args.model == "toric":
        return {"type": "toric", "L": args.L,
                "lambda_e": args.lambda_e, "lambda_m": args.lambda_m}
    return {"type": "mini-vertex", "lam": args.lambda_e}


def _full_decompositions(H: StabilizerHamiltonian):
    return [eigenoperator_decomposition(H, j, a)
            for j in range(H.n_qubits) for a in ("x", "z")]


def _davies_generator(H: StabilizerHamiltonian, decomps, beta: float, gamma0: float):
    """The full Davies generator of H from its decompositions, after checking
    that its superoperator is within capacity (building the bath is the slow
    part of a refusal)."""
    from .bath import davies_reduction

    _check_capacity(1 << H.n_qubits)
    return davies_reduction(H, decomps, beta, gamma0)


def _observable_rows(names: list[str], H, lat, beta: float, sectors: Sectors,
                     pops: np.ndarray | None = None) -> list[list[float]]:
    """The named observables on each row of syndrome-sector populations
    ``pops`` of ``sectors`` (default the Gibbs state), one row each, from the
    stabilizer strings' values on the sectors."""
    energy = -np.array(H.couplings) @ sectors.characters([t.stabilizer for t in H.terms])
    gibbs = gibbs_populations(energy, beta)
    pops = gibbs[None] if pops is None else pops
    columns = []
    for name in names:
        if name in ("A_v", "B_p") and lat is None:
            raise ConfigError(f"observable {name!r} requires a toric model")
        if name == "energy":
            columns.append(pops @ energy)
        elif name in ("A_v", "B_p"):
            string, sites = ((vertex_string, lat.vertices) if name == "A_v"
                             else (plaquette_string, lat.plaquettes))
            values = sectors.characters([string(lat, i) for i in range(len(sites))])
            columns.append((pops @ values.T).mean(axis=1))
        elif name == "gibbs_distance":
            columns.append(np.abs(pops - gibbs).sum(axis=1) / 2)
        else:
            raise ConfigError(f"unknown observable {name!r}")
    return np.array(columns, dtype=float).reshape(len(names), len(pops)).T.tolist()


def _stabilizer_sectors(H: StabilizerHamiltonian) -> Sectors:
    """The syndrome sectors of the group the stabilizer terms generate."""
    return Sectors([(t.stabilizer.x << H.n_qubits) | t.stabilizer.z for t in H.terms],
                   1 << H.n_qubits)


def _state_observables(names: list[str], H, lat, beta: float, state: DensityMatrix) -> list:
    """The named observables of a state, from its syndrome-sector populations."""
    sectors = _stabilizer_sectors(H)
    return _observable_rows(names, H, lat, beta, sectors, sectors.state(state.mat))[0]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build_model(args) -> int:
    lat = build_torus(args.L)
    H = toric_hamiltonian(lat, args.lambda_e, args.lambda_m)
    doc = {"lattice": lattice_to_json(lat), "hamiltonian": hamiltonian_to_json(H)}
    text = json.dumps(doc, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_decompose(args) -> int:
    lat = build_torus(args.L)
    H = toric_hamiltonian(lat, args.lambda_e, args.lambda_m)
    dec = eigenoperator_decomposition(H, args.site, args.axis)
    print(f"sigma^{args.axis}_{args.site} on toric L={args.L}: "
          f"{dec.m_components} Fourier components")
    print(f"{'eps_k':>12}  {'n_terms(a)':>10}  {'|coeffs|(a)':>12}  {'zero-mode':>9}")
    for c in dec.components:
        print(f"{c.epsilon:12.6g}  {len(c.lowering):10d}  "
              f"{c.lowering.norm_coeffs():12.6g}  {str(c.is_zero_mode):>9}")
    return 0


def _thermalize_rows(H, lat, decomps, beta: float, gamma0: float, t: float, points: int,
                     names: list[str]) -> tuple[list[list[float]], dict]:
    """Observables along a Davies trajectory from the maximally mixed state,
    and its diagnostics (``sector_trajectory``)."""
    gen = _davies_generator(H, decomps, beta, gamma0)
    sectors, pops, diagnostics = sector_trajectory(gen, t, points)
    rows = _observable_rows(names, H, lat, beta, sectors, pops)
    return [[ti] + row for ti, row in zip(np.linspace(0.0, t, points), rows)], diagnostics


def cmd_thermalize(args) -> int:
    H, lat = _build_model(_model_spec_from_args(args))
    names = args.observables.split(",") if args.observables else ["energy"]
    rows, _ = _thermalize_rows(H, lat, _full_decompositions(H), args.beta, args.gamma0, args.t,
                               args.points, names)
    header = ["t"] + names
    if args.output:
        write_csv(args.output, header, rows)
        print(f"wrote {args.output}")
    else:
        print(csv_text(header, rows), end="")
    return 0


def cmd_steady_state(args) -> int:
    H, lat = _build_model(_model_spec_from_args(args))
    gen = _davies_generator(H, _full_decompositions(H), args.beta, args.gamma0)
    ss = steady_states(gen)
    out = {
        "kernel_dim": ss.kernel_dim,
        "unique": ss.unique,
        "kernel_residual": ss.residual,
        "trace_distance_to_gibbs": (_state_observables(["gibbs_distance"], H, lat, args.beta,
                                                       ss.states[0])[0] if ss.states else None),
        "diagnostics": ss.diagnostics,
    }
    print(json.dumps(out, indent=2))
    if args.output:
        doc = dict(out)
        if ss.states:
            doc["state"] = state_to_json(ss.states[0].mat)
        Path(args.output).write_text(json.dumps(doc))
        print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    from .verify import check_fixed_point_conditions, ergodicity_check

    lat = build_torus(args.L)
    H = toric_hamiltonian(lat, args.lambda_e, args.lambda_m)
    decomps = _full_decompositions(H)
    gs = gibbs_state(H.to_dense(), args.beta)
    report = check_fixed_point_conditions(gs, decomps, args.beta)
    summary = {
        "max_lowering": report.max_residual("lowering"),
        "max_raising": report.max_residual("raising"),
        "max_translation": report.max_residual("translation"),
    }
    doc = report.to_json()
    if args.ergodicity:
        gen = _davies_generator(H, decomps, args.beta, args.gamma0)
        erg = ergodicity_check(H, [j.op for j in gen.jumps],
                               loop_ops=loop_operators(lat))
        ss = steady_states(gen)
        doc["ergodicity"] = erg.to_json()
        doc["kernel_dim"] = ss.kernel_dim
        doc["trace_distance_to_gibbs"] = (_state_observables(
            ["gibbs_distance"], H, lat, args.beta, ss.states[0])[0] if ss.states else None)
        doc["ergodic"] = erg.ergodic
        summary["ergodic"] = erg.ergodic
        summary["kernel_dim"] = ss.kernel_dim
    print("fixed-point residuals on gibbs(H, beta):")
    for k, v in summary.items():
        print(f"  {k}: {v}")
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=2))
        print(f"wrote {args.output}")
    return 0


def cmd_compile(args) -> int:
    from .circuits import compile_pauli_exponential

    p = PauliString.from_letters(args.pauli)
    sched = compile_pauli_exponential(p, args.phi)
    print(f"compiled exp(-i*{args.phi}*{args.pauli}): {len(sched)} gates "
          f"on {sched.n_qubits} qubits")
    if args.emit_schedule:
        Path(args.emit_schedule).write_text(sched.to_jsonl())
        print(f"wrote {args.emit_schedule}")
    return 0


def cmd_simulate_schedule(args) -> int:
    from .circuits import GateSchedule, run_schedule

    sched = GateSchedule.from_jsonl(Path(args.schedule).read_text())
    _check_limit(sched.n_qubits, DENSE_LIMIT, "dense")
    dim = 1 << sched.n_qubits
    if args.initial == "zero":
        psi = np.zeros(dim)
        psi[0] = 1.0
        rho0 = DensityMatrix.pure(psi)
    elif args.initial == "plus":
        rho0 = DensityMatrix.pure(np.ones(dim) / np.sqrt(dim))
    else:  # mixed
        rho0 = DensityMatrix.maximally_mixed(dim)
    out, entries = run_schedule(sched, rho0)
    purity = trace_product(out.mat, out.mat).real
    print(f"simulated {len(sched)} gates on {sched.n_qubits} qubits; "
          f"purity {purity:.6f}")
    print("steps on the full state" if entries == dim * dim
          else f"steps on {entries} of {dim * dim} entries")
    if args.output:
        Path(args.output).write_text(json.dumps(state_to_json(out.mat)))
        print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# config-driven experiments
# ---------------------------------------------------------------------------

_EXPERIMENTS = ("gibbs-sweep", "verify-appendix", "steady-state", "thermalize")
_METHODS = ("auto", "expm", "krylov")
_MODEL_TYPES = ("toric", "mini-vertex", "single-stabilizer")
_OBSERVABLES = ("energy", "A_v", "B_p", "gibbs_distance")
_KEYS = {
    "config": {"experiment", "model", "dynamics", "beta_grid", "observables",
               "seed", "output_dir"},
    "model": {"type", "L", "lambda_e", "lambda_m", "lam", "letters"},
    "dynamics": {"beta", "gamma0", "t", "points", "method"},
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return _is_number(x) and float(x).is_integer()


def _reject_unknown_keys(where: str, doc: dict) -> None:
    unknown = sorted(set(doc) - _KEYS[where])
    if unknown:
        raise ConfigError(f"unknown {where} keys {unknown}")


def validate_config(cfg: dict) -> None:
    """Schema validation (the shipped JSON schema, enforced in code)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown_keys("config", cfg)
    exp = cfg.get("experiment")
    if exp not in _EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {_EXPERIMENTS}, got {exp!r}")
    model = cfg.get("model")
    if not isinstance(model, dict) or "type" not in model:
        raise ConfigError("config.model must be an object with a 'type'")
    _reject_unknown_keys("model", model)
    if model["type"] not in _MODEL_TYPES:
        raise ConfigError(f"unknown model type {model['type']!r}")
    if "L" in model and not (_is_integer(model["L"]) and model["L"] >= 2):
        raise ConfigError("model.L must be an integer >= 2")
    for key in ("lambda_e", "lambda_m", "lam"):
        if key in model and not (_is_number(model[key]) and model[key] > 0):
            raise ConfigError(f"model.{key} must be positive")
    if model["type"] == "single-stabilizer" and "letters" not in model:
        raise ConfigError("a single-stabilizer model needs letters")
    if "letters" in model and not (isinstance(model["letters"], str)
                                   and re.fullmatch("[IXYZ]+", model["letters"])):
        raise ConfigError("model.letters must be a nonempty string over IXYZ")
    dyn = cfg.get("dynamics", {})
    if not isinstance(dyn, dict):
        raise ConfigError("config.dynamics must be an object")
    _reject_unknown_keys("dynamics", dyn)
    for key in ("beta", "t"):
        if key in dyn and not (_is_number(dyn[key]) and dyn[key] >= 0):
            raise ConfigError(f"dynamics.{key} must be a nonnegative number")
    if "gamma0" in dyn and not (_is_number(dyn["gamma0"]) and dyn["gamma0"] > 0):
        raise ConfigError("dynamics.gamma0 must be positive")
    if "points" in dyn and not (_is_integer(dyn["points"]) and dyn["points"] >= 2):
        raise ConfigError("dynamics.points must be an integer >= 2")
    if "method" in dyn and dyn["method"] not in _METHODS:
        raise ConfigError(f"dynamics.method must be one of {_METHODS}, got {dyn['method']!r}")
    if "beta_grid" in cfg:
        grid = cfg["beta_grid"]
        if (not isinstance(grid, list) or not grid
                or not all(_is_number(b) and b >= 0 for b in grid)):
            raise ConfigError("beta_grid must be a nonempty list of nonnegative numbers")
    obs = cfg.get("observables", [])
    if not isinstance(obs, list) or not all(o in _OBSERVABLES for o in obs):
        raise ConfigError(f"observables must be a list of names from {_OBSERVABLES}")
    if model["type"] != "toric" and (exp == "verify-appendix"
                                     or any(o in ("A_v", "B_p") for o in obs)):
        raise ConfigError("verify-appendix and the A_v, B_p observables need a toric model")
    if "seed" in cfg and not _is_integer(cfg["seed"]):
        raise ConfigError("seed must be an integer")
    if "output_dir" in cfg and not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be a string")


def cmd_run(args) -> int:
    cfg = strict_json(Path(args.config).read_text(), ConfigError)
    validate_config(cfg)
    h = config_hash(cfg)
    outdir = Path(cfg.get("output_dir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    result = {"config_hash": h, "stabtherm_version": __version__, "config": cfg}

    H, lat = _build_model(cfg["model"])
    decomps = _full_decompositions(H)
    dyn = cfg.get("dynamics", {})
    beta = float(dyn.get("beta", 1.0))
    observables = cfg.get("observables", [])
    exp = cfg["experiment"]

    if exp == "gibbs-sweep":
        grid = [float(b) for b in cfg.get("beta_grid", [beta])]
        sectors = _stabilizer_sectors(H)
        rows = [[b] + _observable_rows(observables, H, lat, b, sectors)[0] for b in grid]
        csv_path = outdir / "gibbs_sweep.csv"
        write_csv(csv_path, ["beta"] + observables, rows)
        result["csv"] = str(csv_path)
        result["rows"] = rows
    elif exp == "verify-appendix":
        from .verify import check_fixed_point_conditions

        gs = gibbs_state(H.to_dense(), beta)
        report = check_fixed_point_conditions(gs, decomps, beta)
        result["fixed_point_report"] = report.to_json()
        result["max_residual"] = report.max_residual()
    elif exp == "steady-state":
        gen = _davies_generator(H, decomps, beta, float(dyn.get("gamma0", 0.5)))
        ss = steady_states(gen)
        result["kernel_dim"] = ss.kernel_dim
        result["kernel_residual"] = ss.residual
        result["diagnostics"] = ss.diagnostics
        if ss.states:
            result["observables"] = dict(zip(observables, _state_observables(
                observables, H, lat, beta, ss.states[0])))
    elif exp == "thermalize":
        rows, result["trajectory"] = _thermalize_rows(
            H, lat, decomps, beta, float(dyn.get("gamma0", 0.5)), float(dyn.get("t", 1.0)),
            int(dyn.get("points", 11)), observables)
        csv_path = outdir / "thermalize.csv"
        write_csv(csv_path, ["t"] + observables, rows)
        result["csv"] = str(csv_path)

    # the Fourier-form fit, recorded for lineage on toric models
    if lat is not None and H.n_qubits <= 10:
        c, d, res = fourier_form_check(H, decomps)
        result["fourier_form"] = {"prefactor": c, "constant": d, "residual": res}

    out_path = outdir / "result.json"
    out_path.write_text(json.dumps(result, indent=2, default=float))
    print(f"wrote {out_path} (config {h[:12]})")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stabtherm",
        description="Stabilizer-Hamiltonian thermalization toolkit "
                    "(energies in units of lambda, hbar = 1).",
    )
    ap.add_argument("--version", action="version", version=f"stabtherm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_lattice_args(p):
        p.add_argument("--L", type=int, default=2)
        p.add_argument("--lambda-e", dest="lambda_e", type=float, default=1.0)
        p.add_argument("--lambda-m", dest="lambda_m", type=float, default=1.0)

    def add_model_args(p):
        p.add_argument("--model", default="toric", choices=["toric", "mini-vertex"])
        add_lattice_args(p)

    p = sub.add_parser("build-model", help="emit lattice + Hamiltonian JSON")
    add_lattice_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_build_model)

    p = sub.add_parser("decompose", help="Fourier components of a local Pauli")
    add_lattice_args(p)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--axis", choices=["x", "y", "z"], required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("thermalize", help="evolve under the system-only thermal generator")
    add_model_args(p)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma0", type=float, default=0.5)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--points", type=int, default=11)
    p.add_argument("--method", default="auto", choices=_METHODS,
                   help="kept for old command lines; selects nothing (one evolution rule)")
    p.add_argument("--observables", default="energy,gibbs_distance")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_thermalize)

    p = sub.add_parser("steady-state", help="kernel of the thermal generator")
    add_model_args(p)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma0", type=float, default=0.5)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_steady_state)

    p = sub.add_parser("verify", help="numerical Appendix checks")
    p.add_argument("what", choices=["appendix"])
    p.add_argument("--model", default="toric", choices=["toric"])
    add_lattice_args(p)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma0", type=float, default=0.5)
    p.add_argument("--ergodicity", action="store_true",
                   help="also run the commutant-based ergodicity check")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compile", help="compile exp(-i phi P) to gates")
    p.add_argument("--pauli", required=True, help="letter string, e.g. ZZZZ")
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--emit-schedule", dest="emit_schedule")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("simulate-schedule", help="run a schedule file exactly")
    p.add_argument("schedule")
    p.add_argument("--initial", default="plus", choices=["plus", "zero", "mixed"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_simulate_schedule)

    p = sub.add_parser("run", help="run a JSON experiment config")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, ModelError, ScheduleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except json.JSONDecodeError as exc:
        print(f"config error: bad JSON ({exc})", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
