"""CLI subcommands, config validation, exit codes, file round-trips."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from stabtherm import bath, cli, lindblad
from stabtherm.circuits import GateSchedule, run_schedule
from stabtherm.cli import main, validate_config
from stabtherm.errors import CapacityError, ConfigError, ScheduleError
from stabtherm.serialize import (
    config_hash,
    group_from_json,
    group_to_json,
    hamiltonian_from_json,
    hamiltonian_to_json,
    lattice_from_json,
    lattice_to_json,
    state_from_json,
    state_to_json,
)
from stabtherm.groups import symmetric_group
from stabtherm.lindblad import DensityMatrix, gibbs_state, steady_states, trajectory
from stabtherm.pauli import PauliString
from stabtherm.toric import build_torus, plaquette_string, toric_hamiltonian, vertex_string

from oracles import toric_partition_sums


def run_cli(*args):
    return main(list(args))


def test_build_model_emits_lattice_json(tmp_path, capsys):
    out = tmp_path / "model.json"
    assert run_cli("build-model", "--L", "2", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["lattice"]["n_links"] == 8
    assert len(doc["hamiltonian"]["terms"]) == 8


def test_decompose_prints_component_table(capsys):
    assert run_cli("decompose", "--L", "2", "--site", "3", "--axis", "x") == 0
    out = capsys.readouterr().out
    assert "2 Fourier components" in out


def test_compile_and_simulate_round_trip(tmp_path, capsys):
    sched_path = tmp_path / "s.jsonl"
    assert run_cli("compile", "--pauli", "ZZZZ", "--phi", "0.3",
                   "--emit-schedule", str(sched_path)) == 0
    state_path = tmp_path / "state.json"
    assert run_cli("simulate-schedule", str(sched_path), "--initial", "plus",
                   "-o", str(state_path)) == 0
    rho = state_from_json(json.loads(state_path.read_text()))
    # unitary schedule on a pure state stays pure
    assert np.isclose(np.trace(rho @ rho).real, 1.0, atol=1e-10)


def test_simulate_schedule_reports_where_the_steps_ran(tmp_path, capsys):
    # exp(-i phi ZZZZ) is diagonal once cut at ROUNDOFF: it keeps
    # |0000><0000| on its one entry and I/16 on its 16; |+> fills all 256
    sched_path = tmp_path / "s.jsonl"
    assert run_cli("compile", "--pauli", "ZZZZ", "--phi", "0.3",
                   "--emit-schedule", str(sched_path)) == 0
    capsys.readouterr()
    for initial, purity, where in (("zero", "1.000000", "steps on 1 of 256 entries"),
                                   ("mixed", "0.062500", "steps on 16 of 256 entries"),
                                   ("plus", "1.000000", "steps on the full state")):
        assert run_cli("simulate-schedule", str(sched_path), "--initial", initial) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"simulated 31 gates on 4 qubits; purity {purity}", where]


def test_verify_appendix_small_residuals(tmp_path, capsys):
    path = tmp_path / "verify.json"
    assert run_cli("verify", "appendix", "--model", "toric", "--L", "2",
                   "--beta", "1", "-o", str(path)) == 0
    out = capsys.readouterr().out
    assert "max_lowering" in out
    for line in out.splitlines():
        if "max_" in line:
            assert float(line.split(":")[1]) < 1e-9
    # one entry per decomposition, keyed site:axis
    doc = json.loads(path.read_text())
    assert set(doc) == {"beta", "residuals"}
    assert set(doc["residuals"]) == {f"{j}:{a}" for j in range(8) for a in "xz"}


def test_steady_state_output_parses(tmp_path, capsys):
    out = tmp_path / "ss.json"
    assert run_cli("steady-state", "--model", "mini-vertex", "--beta", "1",
                   "--gamma0", "0.5", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kernel_dim"] == 1
    assert doc["trace_distance_to_gibbs"] < 1e-8
    diag = doc["diagnostics"]
    assert diag["basis"] == "pauli" and diag["blocks"] > 1 and diag["margin"] > 100
    assert 0 < diag["refined"] <= diag["bounded"] <= diag["blocks"]
    assert json.loads(capsys.readouterr().out.split("wrote")[0])["diagnostics"] == diag


@pytest.mark.parametrize("model, spec", [(("--model", "mini-vertex"), {"type": "mini-vertex"}),
                                         (("--L", "2"), {"type": "toric", "L": 2})])
def test_steady_state_gibbs_distance_reads_sector_populations(model, spec, capsys, monkeypatch):
    # the distance comes from the steady state's syndrome-sector populations,
    # with no dense Gibbs state; the dense trace distance of the same state
    # agrees to 1e-12
    found = []

    def solve(gen):
        found.append(steady_states(gen))
        return found[-1]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense Gibbs state was formed")

    monkeypatch.setattr(cli, "steady_states", solve)
    monkeypatch.setattr(cli, "gibbs_state", refuse)
    assert run_cli("steady-state", *model, "--beta", "1", "--gamma0", "0.5") == 0
    distance = json.loads(capsys.readouterr().out)["trace_distance_to_gibbs"]
    H, _ = cli._build_model(spec)
    dense = found[0].state.distance(gibbs_state(H.to_dense(), 1.0))
    assert abs(distance - dense) < 1e-12


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_bad_model_l_exits_2(capsys):
    assert run_cli("build-model", "--L", "1") == 2


def test_capacity_error_exits_3(tmp_path, monkeypatch, capsys):
    # the solvers' capacity check comes before any d^2-sized step (the L=3
    # bath itself is Pauli algebra, a few ms)
    def refuse(*args, **kwargs):
        raise AssertionError("a d^2-sized step ran for a model beyond capacity")

    for name in ("_pauli_transfer", "_commuting_classes", "_factored_kernel"):
        monkeypatch.setattr(lindblad, name, refuse)
    for experiment in ("steady-state", "thermalize"):
        cfg = {"experiment": experiment, "model": {"type": "toric", "L": 3},
               "dynamics": {"beta": 1.0, "gamma0": 0.5}, "observables": [],
               "output_dir": str(tmp_path)}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run_cli("run", str(p)) == 3  # L=3 superoperator exceeds capacity
    for command in ("steady-state", "thermalize"):
        assert run_cli(command, "--L", "3") == 3
    assert capsys.readouterr().err.count("dim 262144 exceeds") == 4


def test_gibbs_sweep_reads_the_l3_sectors_and_refuses_l4(tmp_path, capsys):
    # 2^16 syndrome sectors hold the L=3 sweep; L=4 labels need 64 bits
    cfg = {"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 3},
           "beta_grid": [0.5, 1.0], "observables": ["A_v", "B_p", "energy"],
           "output_dir": str(tmp_path)}
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 0
    rows = json.loads((tmp_path / "result.json").read_text())["rows"]
    for beta, a_v, b_p, energy in rows:
        _, av, bp, e = toric_partition_sums(3, 1.0, 1.0, beta)
        assert np.abs(np.array([a_v, b_p, energy]) - [av, bp, e]).max() < 1e-10
    cfg["model"]["L"] = 4
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 3
    assert "62 bits" in capsys.readouterr().err


def test_oversized_schedule_exits_3_before_building_a_state(tmp_path):
    p = tmp_path / "s.jsonl"
    p.write_text(json.dumps({"header": {"n_qubits": 40}}) + "\n")
    assert run_cli("simulate-schedule", str(p)) == 3
    with pytest.raises(CapacityError, match="40 qubits"):
        run_schedule(GateSchedule(40, ()), np.eye(2))


def test_verify_ergodicity_records_diagnostics(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run_cli("verify", "appendix", "--L", "2", "--ergodicity", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ergodic"] is True and doc["ergodicity"]["commutant_dim"] == 1
    diag = doc["ergodicity"]["diagnostics"]
    assert {"nullity", "margin", "blocks", "max_block", "seconds"} <= set(diag)
    assert diag["nullity"] == 1 and diag["margin"] > 100
    # the Pauli-basis commutant form of the full Davies set: blocks and nnz
    # pin the term builder and both roundoff cuts
    assert diag["basis"] == "pauli"
    assert (diag["blocks"], diag["max_block"], diag["nnz"]) == (13088, 32, 475135)


def test_run_gibbs_sweep_matches_partition_oracle(tmp_path):
    cfg = {
        "experiment": "gibbs-sweep",
        "model": {"type": "toric", "L": 2, "lambda_e": 1.0, "lambda_m": 1.0},
        "beta_grid": [0.2, 1.0, 2.0, 5.0],
        "observables": ["A_v", "energy"],
        "seed": 0,
        "output_dir": str(tmp_path),
    }
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["config_hash"] == config_hash(cfg)
    for beta, av, energy in result["rows"]:
        _, av_oracle, _, e_oracle = toric_partition_sums(2, 1.0, 1.0, beta)
        assert abs(av - av_oracle) < 1e-8
        assert abs(energy - e_oracle) < 1e-8
    # fitted Fourier-form quantities are embedded in the result
    assert abs(result["fourier_form"]["prefactor"] - 0.5) < 1e-10


def test_run_empty_observables_emits_config_echo(tmp_path):
    cfg = {"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 2},
           "beta_grid": [1.0], "observables": [], "output_dir": str(tmp_path)}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["config"] == cfg


def test_run_reproducible_outputs(tmp_path):
    cfg = {"experiment": "verify-appendix", "model": {"type": "toric", "L": 2},
           "dynamics": {"beta": 1.0}, "observables": [],
           "output_dir": str(tmp_path)}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 0
    first = (tmp_path / "result.json").read_text()
    assert run_cli("run", str(p)) == 0
    assert (tmp_path / "result.json").read_text() == first


def test_validate_config_rejects_bad_documents():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "nope", "model": {"type": "toric"}})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 1}})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "gibbs-sweep",
                         "model": {"type": "toric"}, "beta_grid": []})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "gibbs-sweep",
                         "model": {"type": "toric"}, "observables": "energy"})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "thermalize", "model": {"type": "toric"},
                         "dynamics": {"method": "rk4"}})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "thermalize", "model": {"type": "toric"},
                         "dynamics": {"points": 1}})


_TORIC = {"type": "toric", "L": 2}
_CONFIG_CORPUS = [
    # (document, valid)
    ({"experiment": "gibbs-sweep", "model": _TORIC}, True),
    ({"experiment": "thermalize", "model": {"type": "mini-vertex", "lam": 0.5},
      "dynamics": {"beta": 1, "gamma0": 0.5, "t": 2.0, "points": 3, "method": "krylov"},
      "observables": ["energy", "gibbs_distance"], "seed": 3, "output_dir": "out"}, True),
    ({"experiment": "steady-state",
      "model": {"type": "single-stabilizer", "letters": "ZZ", "lam": 1.0}}, True),
    ({"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 2.0},
      "beta_grid": [0, 0.5]}, True),
    ({"experiment": "steady-state", "model": {"type": "single-stabilizer"}}, False),
    ({"experiment": "steady-state",
      "model": {"type": "single-stabilizer", "letters": "zz"}}, False),
    ({"experiment": "steady-state",
      "model": {"type": "single-stabilizer", "letters": ""}}, False),
    ({"experiment": "gibbs-sweep", "model": _TORIC, "observables": ["entropy"]}, False),
    ({"experiment": "gibbs-sweep", "model": _TORIC, "extra": 1}, False),
    ({"experiment": "gibbs-sweep", "model": {"type": "toric", "size": 2}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"type": "rwa"}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"g": 0.1}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"steps": 4}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"gamma0": 0}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"beta": True}}, False),
    ({"experiment": "thermalize", "model": _TORIC, "dynamics": {"points": 2.5}}, False),
    ({"experiment": "gibbs-sweep", "model": _TORIC, "seed": "1"}, False),
    ({"experiment": "gibbs-sweep", "model": _TORIC, "output_dir": 5}, False),
    ({"experiment": "gibbs-sweep"}, False),
    ({"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 1}}, False),
    ({"experiment": "gibbs-sweep", "model": _TORIC, "beta_grid": [-1]}, False),
    ({"experiment": "verify-appendix", "model": {"type": "mini-vertex"}}, False),
    ({"experiment": "gibbs-sweep", "model": {"type": "mini-vertex"},
      "observables": ["energy", "B_p"]}, False),
]


def test_validate_config_agrees_with_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    path = Path(__file__).resolve().parents[1] / "docs" / "schema" / "config.schema.json"
    schema = jsonschema.Draft7Validator(json.loads(path.read_text()))
    for doc, valid in _CONFIG_CORPUS:
        try:
            validate_config(doc)
            code_valid = True
        except ConfigError:
            code_valid = False
        assert schema.is_valid(doc) == code_valid == valid, doc


_HEADER = {"header": {"n_qubits": 2, "n_classical": 2}}
_ROT = {"kind": "ROT1", "qubit": 0, "axis": "x", "angle": 0.1}
_MEASURE = {"kind": "MEASURE_Z", "qubit": 1, "cbit": 0}
# (lines, valid), each line checked alone against the schema. Left out: a
# CPHASE on one qubit twice and a condition naming one bit with two values,
# which the schema cannot express (see test_malformed_schedules_exit_2),
# a negative or non-finite beta*omega (test_negative_temperature_schedules_exit_2),
# and out-of-range qubits or bits read before they are written, which need the
# whole file
_SCHEDULE_CORPUS = [
    ([_HEADER], True),
    ([{"header": {"n_qubits": 2.0, "steps": 3.0, "total_time": 1.5}}], True),
    ([_HEADER, _ROT, {"kind": "CPHASE", "qubit": 0, "qubit2": 1}], True),
    ([_HEADER, _MEASURE, {"kind": "COND_PULSE", "qubit": 1, "axis": "y",
                          "angle": 3.1, "condition": [[0, 1]]}], True),
    ([_HEADER, {"kind": "SAMPLE_BOLTZMANN_BIT", "beta": 1, "omega": 2, "cbit": 1},
      {"kind": "THERMAL_RESET", "qubit": 1.0, "beta": 1, "omega": 2, "relax": 0.5}], True),
    ([_HEADER, dict(_ROT, phase=1)], False),
    ([_HEADER, {"kind": "ROT1", "qubit": 0, "angle": 0.1}], False),
    ([_HEADER, dict(_ROT, axis="w")], False),
    ([_HEADER, dict(_ROT, axis="X")], False),
    ([_HEADER, {"kind": "THERMAL_RESET", "qubit": 0, "omega": 1.0}], False),
    ([_HEADER, {"kind": "CPHASE", "qubit": 0}], False),
    ([_HEADER, {"kind": "MEASURE_Z", "qubit": 0}], False),
    ([_HEADER, {"qubit": 0}], False),
    ([_HEADER, 5], False),
    ([{"header": 5}], False),
    ([[_HEADER]], False),
    ([_HEADER, {"kind": "SWAP", "qubit": 0}], False),
    ([_HEADER, dict(_ROT, qubit=0.5)], False),
    ([{"header": {"n_qubits": 1.7, "steps": 2.5}}], False),
    ([{"header": {"n_qubits": 2, "n_classical": 0.5}}], False),
    ([{"header": {"n_qubits": 2, "steps": True}}], False),
    ([{"header": {"steps": 2}}], False),
    ([{"header": {"n_qubits": 2, "depth": 3}}], False),
    ([{"header": {"n_qubits": 0}}], False),
    ([{"header": {"n_qubits": 2, "total_time": -1.0}}], False),
    ([{"header": {"n_qubits": 2, "total_time": "1"}}], False),
    ([_HEADER, dict(_ROT, angle="0.1")], False),
    ([_HEADER, {"kind": "THERMAL_RESET", "qubit": 0, "beta": 1, "omega": 2, "relax": 1.5}],
     False),
    ([_HEADER, _MEASURE, {"kind": "COND_PULSE", "qubit": 1, "axis": "y",
                          "angle": 3.1, "condition": [[0]]}], False),
    ([_HEADER, _MEASURE, {"kind": "COND_PULSE", "qubit": 1, "axis": "y",
                          "angle": 3.1, "condition": []}], False),
    ([_HEADER, _MEASURE, {"kind": "SAMPLE_BOLTZMANN_BIT", "beta": 1, "omega": 2, "cbit": 1},
      {"kind": "COND_PULSE", "qubit": 1, "axis": "y", "angle": 3.1,
       "condition": [[0, 1], [1, 0]]}], True),
    ([_HEADER, _MEASURE, {"kind": "COND_PULSE", "qubit": 1, "axis": "y",
                          "angle": 3.1, "condition": [[0, 2]]}], False),
    ([_HEADER, _MEASURE, {"kind": "COND_PULSE", "qubit": 1, "axis": "y",
                          "angle": 3.1, "condition": [[0, 1], [0, 1]]}], False),
]


def test_schedule_loader_agrees_with_shipped_schema():
    jsonschema = pytest.importorskip("jsonschema")
    path = Path(__file__).resolve().parents[1] / "docs" / "schema" / "schedule.schema.json"
    schema = jsonschema.Draft7Validator(json.loads(path.read_text()))
    for lines, valid in _SCHEDULE_CORPUS:
        try:
            GateSchedule.from_jsonl("\n".join(json.dumps(ln) for ln in lines))
            code_valid = True
        except ScheduleError:
            code_valid = False
        assert all(schema.is_valid(ln) for ln in lines) == code_valid == valid, lines


def test_malformed_schedules_exit_2(tmp_path):
    rot = json.dumps(_ROT)
    for header, gate in ((_HEADER, dict(_ROT, phase=1)),
                         (_HEADER, {"kind": "ROT1", "qubit": 0, "angle": 0.1}),
                         (_HEADER, dict(_ROT, axis="w")),
                         (_HEADER, {"kind": "THERMAL_RESET", "qubit": 0, "omega": 1.0}),
                         ({"header": {"n_qubits": 1.7, "steps": 2.5}}, _ROT),
                         (_HEADER, {"kind": "CPHASE", "qubit": 1, "qubit2": 1})):
        p = tmp_path / "s.jsonl"
        p.write_text(json.dumps(header) + "\n" + json.dumps(gate) + "\n")
        assert run_cli("simulate-schedule", str(p)) == 2, gate
    pulse = {"kind": "COND_PULSE", "qubit": 1, "axis": "x", "angle": 3.1}
    # a bit named with two values can never match; a value of 2 never either
    for cond in ([[0, 1], [0, 0]], [[0, 2]]):
        p.write_text("\n".join(json.dumps(ln) for ln in
                               (_HEADER, _MEASURE, dict(pulse, condition=cond))) + "\n")
        assert run_cli("simulate-schedule", str(p)) == 2, cond
    p.write_text(json.dumps(_HEADER) + "\n" + rot + "\n")
    assert run_cli("simulate-schedule", str(p)) == 0


def test_negative_temperature_schedules_exit_2(tmp_path):
    p = tmp_path / "s.jsonl"
    reset = {"kind": "THERMAL_RESET", "qubit": 0, "relax": 1.0}
    sample = {"kind": "SAMPLE_BOLTZMANN_BIT", "cbit": 0}
    # beta*omega = -1000 would overflow math.exp; -1 is a negative temperature
    for gate in (dict(reset, beta=-1.0, omega=1000.0), dict(sample, beta=-1000.0, omega=1.0),
                 dict(reset, beta=-1.0, omega=1.0), dict(sample, beta=1.0, omega=-1.0),
                 dict(reset, beta=float("inf"), omega=1.0),
                 dict(sample, beta=1.0, omega=float("nan"))):
        p.write_text(json.dumps(_HEADER) + "\n" + json.dumps(gate) + "\n")
        assert run_cli("simulate-schedule", str(p)) == 2, gate
    p.write_text(json.dumps(_HEADER) + "\n" + json.dumps(dict(reset, beta=0.0, omega=-1.0)) + "\n")
    assert run_cli("simulate-schedule", str(p)) == 0


def test_run_rejects_bad_model_and_observables_before_output(tmp_path):
    for cfg in ({"experiment": "steady-state", "model": {"type": "single-stabilizer"}},
                {"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 2},
                 "observables": ["entropy"]},
                {"experiment": "verify-appendix", "model": {"type": "mini-vertex"}}):
        out = tmp_path / "out"
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(cfg, output_dir=str(out))))
        assert run_cli("run", str(p)) == 2
        assert not out.exists()


def test_invalid_beta_and_non_finite_json_exit_2(tmp_path, monkeypatch):
    # an infinite (or negative) beta is refused before the bath is built, so
    # no kernel is solved
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel was solved for an invalid beta")

    monkeypatch.setattr(cli, "steady_states", refuse)
    for beta in ("inf", "nan", "-1"):
        assert run_cli("steady-state", "--model", "mini-vertex", "--beta", beta) == 2
    # Python's json accepts these tokens; JSON does not
    out = tmp_path / "out"
    cfg, sched = tmp_path / "cfg.json", tmp_path / "s.jsonl"
    for token in ("Infinity", "-Infinity", "NaN"):
        cfg.write_text('{"experiment": "gibbs-sweep", "model": {"type": "mini-vertex"}, '
                       f'"beta_grid": [{token}], "output_dir": {json.dumps(str(out))}}}')
        assert run_cli("run", str(cfg)) == 2, token
        sched.write_text('{"header": {"n_qubits": 1, "total_time": %s}}\n' % token
                         + json.dumps(_ROT) + "\n")
        assert run_cli("simulate-schedule", str(sched)) == 2, token
    assert not out.exists()


def test_bad_config_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_cli("run", str(p)) == 2
    assert run_cli("run", str(tmp_path / "missing.json")) == 2


# -- serialization round-trips ---------------------------------------------------

def test_lattice_and_hamiltonian_round_trip():
    lat = build_torus(3)
    H = toric_hamiltonian(lat, 0.7, 1.3)
    lat2 = lattice_from_json(lattice_to_json(lat))
    assert lat2.vertices == lat.vertices
    H2 = hamiltonian_from_json(hamiltonian_to_json(H))
    assert H2.n_qubits == H.n_qubits
    assert all(t1.stabilizer == t2.stabilizer and t1.coupling == t2.coupling
               for t1, t2 in zip(H.terms, H2.terms))


def test_state_round_trip():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    back = state_from_json(state_to_json(m))
    assert np.array_equal(back, m.astype(np.complex128))


def test_group_round_trip():
    s3 = symmetric_group(3)
    back = group_from_json(group_to_json(s3))
    assert np.array_equal(back.table, s3.table)
    assert back.element_names == s3.element_names


def test_thermalize_writes_time_series(tmp_path):
    out = tmp_path / "series.csv"
    assert run_cli("thermalize", "--model", "mini-vertex", "--beta", "1",
                   "--gamma0", "0.5", "--t", "4", "--points", "5",
                   "--observables", "energy,gibbs_distance",
                   "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,energy,gibbs_distance"
    assert len(lines) == 6
    last = [float(x) for x in lines[-1].split(",")]
    assert last[2] < 0.05  # close to thermal by t = 4/gamma-ish


def test_thermalize_non_finite_or_overflowing_time_exit_codes(capsys):
    # a non-finite t is refused before any propagation; one so large that
    # the propagation overflows is a numerical failure
    for t in ("nan", "inf"):
        assert run_cli("thermalize", "--model", "mini-vertex", "--t", t) == 2
        assert "t must be finite" in capsys.readouterr().err
    assert run_cli("thermalize", "--model", "mini-vertex", "--t", "1e300") == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [{"type": "toric", "L": 2, "lambda_e": 0.9, "lambda_m": 1.1},
                                  {"type": "mini-vertex", "lam": 0.8}], ids=["toric", "mini"])
def test_thermalize_rows_match_trajectory_and_dense_observables(spec):
    H, lat = cli._build_model(spec)
    decomps = cli._full_decompositions(H)
    names = ["energy", "gibbs_distance"] + (["A_v", "B_p"] if lat else [])
    g = bath.davies_reduction(H, decomps, 1.2, 0.5)
    gs = gibbs_state(H.to_dense(), 1.2)
    rows, diag = cli._thermalize_rows(H, lat, decomps, 1.2, 0.5, 3.0, 4, names)
    states = trajectory(g, DensityMatrix.maximally_mixed(1 << H.n_qubits), 3.0, 4)
    for row, rho in zip(rows, states):
        expected = [rho.expectation(H.to_dense()), rho.distance(gs)]
        if lat:
            expected += [np.mean([rho.expectation(f(lat, i).to_dense())
                                  for i in range(len(sites))])
                         for f, sites in ((vertex_string, lat.vertices),
                                          (plaquette_string, lat.plaquettes))]
        assert np.abs(np.array(row[1:]) - expected).max() < 1e-12
    assert diag["support"] == (64 if lat else 2) and diag["blocks"] == 1
    assert diag["method"] == "expm" and diag["clipped"] == 0 and diag["smallest"] > 0


def test_thermalize_forms_no_dense_state_and_diagonalizes_nothing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense work on the thermalize path")

    # the 64-element block steps by its dense exponential, not expm_multiply;
    # --method selects nothing, so every value writes the same bytes
    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                        (DensityMatrix, "__post_init__"), (PauliString, "to_dense"),
                        (scipy.sparse.linalg, "expm_multiply")):
        monkeypatch.setattr(owner, name, refuse)
    texts = []
    for method in ([], ["--method", "krylov"], ["--method", "expm"]):
        out = tmp_path / "rows.csv"
        assert run_cli("thermalize", "--L", "2", "--t", "10", "--points", "3", *method,
                       "--observables", "energy,gibbs_distance,A_v,B_p", "-o", str(out)) == 0
        texts.append(out.read_text())
    lines = texts[0].splitlines()
    assert lines[0] == "t,energy,gibbs_distance,A_v,B_p" and len(lines) == 4
    assert texts == texts[:1] * 3


def test_thermalize_method_expm_exponentiates_no_block_above_the_dense_limit(
        tmp_path, monkeypatch):
    # --method expm once took the dense exponential of every touched block,
    # whatever its size; with the limit at 32 the 64-element block must take
    # expm_multiply and give the rows of the dense step
    def run(name):
        out = tmp_path / name
        assert run_cli("thermalize", "--L", "2", "--t", "10", "--points", "3", "--method", "expm",
                       "--observables", "energy,gibbs_distance,A_v,B_p", "-o", str(out)) == 0
        return np.loadtxt(out, delimiter=",", skiprows=1)

    dense = run("dense.csv")
    expm = scipy.linalg.expm

    def small_only(a):
        assert a.shape[-1] <= 32, f"dense exponential of a {a.shape[-1]}-element block"
        return expm(a)

    monkeypatch.setattr(lindblad, "DENSE_BLOCK_LIMIT", 32)
    monkeypatch.setattr(scipy.linalg, "expm", small_only)
    assert np.abs(run("patched.csv") - dense).max() < 1e-12
    with pytest.raises(SystemExit) as exc:
        run_cli("thermalize", "--L", "2", "--method", "rk4")
    assert exc.value.code == 2


def test_run_thermalize_records_trajectory_diagnostics(tmp_path):
    cfg = {"experiment": "thermalize", "model": {"type": "mini-vertex"},
           "dynamics": {"t": 2.0, "points": 3, "method": "krylov"}, "observables": ["energy"],
           "output_dir": str(tmp_path)}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run_cli("run", str(p)) == 0
    diag = json.loads((tmp_path / "result.json").read_text())["trajectory"]
    assert set(diag) == {"support", "blocks", "method", "seconds", "clipped", "smallest"}
    # the config's method selects nothing: the one block of 2 stepped densely
    assert diag["method"] == "expm" and diag["support"] == 2 and diag["blocks"] == 1
    assert diag["clipped"] == 0 and 0 < diag["smallest"] <= 1 / 16


def test_run_reads_gibbs_sweep_and_steady_state_from_sector_populations(tmp_path, monkeypatch):
    # neither experiment forms a Gibbs state or a dense observable; on the
    # mini model <H> = -lam tanh(beta lam)
    def refuse(*args, **kwargs):
        raise AssertionError("a dense Gibbs state or observable was formed")

    monkeypatch.setattr(cli, "gibbs_state", refuse)
    monkeypatch.setattr(PauliString, "to_dense", refuse)
    names = ["energy", "gibbs_distance"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "gibbs-sweep", "model": {"type": "mini-vertex"},
                             "beta_grid": [0.5, 2.0], "observables": names,
                             "output_dir": str(tmp_path)}))
    assert run_cli("run", str(p)) == 0
    for beta, energy, dist in json.loads((tmp_path / "result.json").read_text())["rows"]:
        assert abs(energy + np.tanh(beta)) < 1e-14 and dist == 0.0
    p.write_text(json.dumps({"experiment": "steady-state", "model": {"type": "mini-vertex"},
                             "dynamics": {"beta": 0.7}, "observables": names,
                             "output_dir": str(tmp_path)}))
    assert run_cli("run", str(p)) == 0
    obs = json.loads((tmp_path / "result.json").read_text())["observables"]
    assert abs(obs["energy"] + np.tanh(0.7)) < 1e-9 and obs["gibbs_distance"] < 1e-9


def test_run_steady_state_records_kernel_diagnostics(tmp_path, capsys):
    # the diagnostics the steady-state subcommand prints, timing aside
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"experiment": "steady-state", "model": {"type": "mini-vertex"},
                             "dynamics": {"beta": 1.0, "gamma0": 0.5}, "observables": [],
                             "output_dir": str(tmp_path)}))
    assert run_cli("run", str(p)) == 0
    diag = json.loads((tmp_path / "result.json").read_text())["diagnostics"]
    assert diag["basis"] == "pauli" and diag["blocks"] > 1 and diag["margin"] > 100
    assert 0 < diag["refined"] <= diag["bounded"] <= diag["blocks"]
    capsys.readouterr()
    assert run_cli("steady-state", "--model", "mini-vertex", "--beta", "1", "--gamma0", "0.5") == 0
    printed = json.loads(capsys.readouterr().out)["diagnostics"]
    assert set(diag) == set(printed)
    assert {k: v for k, v in diag.items() if k != "seconds"} == \
        {k: v for k, v in printed.items() if k != "seconds"}
