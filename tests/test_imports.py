"""SciPy is imported on first use: ``import stabtherm`` loads none of it, and
the numpy-only paths (build-model, decompose, compile, simulate-schedule, the
gibbs-sweep experiment and the Trotter composites) run with SciPy made
unimportable, giving the bytes of an ordinary run. So do the Davies steady
states (steady-state, verify appendix without --ergodicity and the
steady-state experiment), but for their ``seconds`` diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabtherm
from stabtherm import verify

SRC = Path(stabtherm.__file__).resolve().parents[1]

# a -c prelude under which any import of scipy or scipy.* raises ImportError
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""

NO_SCIPY_LOADED = """
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
"""

# each command line through cli.main in one process: its exit code and stdout
RUN_COMMANDS = """
import contextlib, io, json
from stabtherm.cli import main

codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(main(argv))
    with open(f"stdout{i}.txt", "w") as fh:
        fh.write(out.getvalue())
print(json.dumps(codes))
"""

# the trotter-composite benchmark's library path: the dressed ZZ composite,
# exact and pinned Trotter schedules, measured resets, each simulated from I/d
TROTTER_COMPOSITE = """
import hashlib
from stabtherm import bath, circuits, toric
from stabtherm.lindblad import DensityMatrix

H = toric.single_stabilizer_model("ZZ", 1.0)
decomps = [toric.eigenoperator_decomposition(H, j, a) for j in range(2) for a in "xz"]
model, _ = bath.attach_ancillas(H, decomps, 1.0, 0.3, g=0.4)
gen = bath.rwa_generator(model)
exact = circuits.trotterize(gen, 60.0, 600)
pinned = circuits.trotterize(gen, 60.0, 300, pin_resets=True)
gates = []
for g in pinned.gates:
    gates += (circuits.reset_channel(g.beta, g.omega, g.qubit, pinned.n_qubits,
                                     implementation="measured").gates
              if g.kind == circuits.THERMAL_RESET else [g])
measured = circuits.GateSchedule(pinned.n_qubits, tuple(gates), 2, pinned.total_time,
                                 pinned.steps)
rho0 = DensityMatrix.maximally_mixed(model.dim)
for sched in (exact, pinned, measured):
    print(hashlib.sha256(circuits.simulate_schedule(sched, rho0).mat.tobytes()).hexdigest())
"""

COMMANDS = [
    ["build-model", "--L", "2"],
    ["decompose", "--L", "2", "--site", "3", "--axis", "x"],
    ["compile", "--pauli", "ZZZZ", "--phi", "0.3", "--emit-schedule", "s.jsonl"],
    ["simulate-schedule", "s.jsonl", "--initial", "plus"],
    ["simulate-schedule", "s.jsonl", "--initial", "mixed"],
    ["run", "sweep2.json"],
    ["run", "sweep3.json"],
]

SWEEPS = {
    "sweep2.json": {"experiment": "gibbs-sweep",
                    "model": {"type": "toric", "L": 2, "lambda_e": 1.0, "lambda_m": 1.0},
                    "beta_grid": [0.2, 0.5, 1.0, 2.0, 5.0], "observables": ["A_v", "energy"],
                    "output_dir": "out2"},
    "sweep3.json": {"experiment": "gibbs-sweep", "model": {"type": "toric", "L": 3},
                    "beta_grid": [0.5, 1.0], "observables": ["A_v", "energy"],
                    "output_dir": "out3"},
}

# the Davies steady-state paths: numpy only, their outputs but for ``seconds``
DAVIES_COMMANDS = [
    ["steady-state", "--L", "2"],
    ["steady-state", "--model", "mini-vertex"],
    ["verify", "appendix", "--model", "toric", "--L", "2", "--beta", "1"],
    ["run", "steady.json"],
]

STEADY = {"experiment": "steady-state", "model": {"type": "toric", "L": 2},
          "dynamics": {"beta": 1.0, "gamma0": 0.5},
          "observables": ["energy", "A_v", "B_p", "gibbs_distance"], "output_dir": "out"}


def python(code: str, *args, cwd=None) -> str:
    """Standard output of ``python -c code args`` in a fresh process on this
    checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def without_seconds(data: bytes):
    """A JSON document with every ``seconds`` entry dropped, other bytes as
    they are."""
    def strip(o):
        if isinstance(o, dict):
            return {k: strip(v) for k, v in o.items() if k != "seconds"}
        return [strip(v) for v in o] if isinstance(o, list) else o
    try:
        return strip(json.loads(data))
    except ValueError:
        return data


def test_import_loads_no_scipy_and_every_module():
    python("import sys\nimport stabtherm\n" + NO_SCIPY_LOADED + """
modules = {"pauli", "toric", "lindblad", "bath", "verify", "circuits", "groups"}
assert all(f"stabtherm.{m}" in sys.modules for m in modules), sorted(sys.modules)
import stabtherm.cli
""" + NO_SCIPY_LOADED)


def test_verify_lobpcg_is_scipys():
    import scipy.sparse.linalg

    assert verify.lobpcg is scipy.sparse.linalg.lobpcg
    with pytest.raises(AttributeError, match="no_such_name"):
        verify.no_such_name


def test_numpy_only_commands_run_without_scipy_and_write_the_same_bytes(tmp_path):
    runs = {}
    for mode, prelude in (("plain", "import sys\n"), ("blocked", BLOCK_SCIPY)):
        cwd = tmp_path / mode
        cwd.mkdir()
        for name, cfg in SWEEPS.items():
            (cwd / name).write_text(json.dumps(cfg))
        codes = python(prelude + RUN_COMMANDS, json.dumps(COMMANDS), cwd=cwd)
        assert json.loads(codes) == [0] * len(COMMANDS), (mode, codes)
        runs[mode] = tree(cwd)
    assert {"s.jsonl", "out2/gibbs_sweep.csv", "out2/result.json",
            "out3/result.json"} <= set(runs["plain"])
    assert runs["blocked"] == runs["plain"]


def test_trotter_composite_runs_without_scipy_and_gives_the_same_states():
    plain = python("import sys\n" + TROTTER_COMPOSITE)
    assert len(plain.split()) == 3
    assert python(BLOCK_SCIPY + TROTTER_COMPOSITE + NO_SCIPY_LOADED) == plain


def test_davies_steady_states_run_without_scipy_and_match_but_for_seconds(tmp_path):
    runs = {}
    for mode, prelude in (("plain", "import sys\n"), ("blocked", BLOCK_SCIPY)):
        cwd = tmp_path / mode
        cwd.mkdir()
        (cwd / "steady.json").write_text(json.dumps(STEADY))
        # the ordinary run loads no SciPy either
        codes = python(prelude + RUN_COMMANDS + NO_SCIPY_LOADED, json.dumps(DAVIES_COMMANDS),
                       cwd=cwd)
        assert json.loads(codes) == [0] * len(DAVIES_COMMANDS), (mode, codes)
        runs[mode] = {name: without_seconds(data) for name, data in tree(cwd).items()}
    plain = runs["plain"]
    assert plain["stdout0.txt"]["kernel_dim"] == plain["stdout1.txt"]["kernel_dim"] == 1
    assert plain["out/result.json"]["kernel_dim"] == 1
    assert b"max_translation" in plain["stdout2.txt"]
    assert runs["blocked"] == plain
