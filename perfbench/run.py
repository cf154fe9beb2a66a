"""stabtherm benchmark: run workloads, each in its own process.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Each workload runs in a fresh process
(worker.py) with one BLAS thread; two more processes only set up, and
setup_s is the median of the three. The last line of standard output
is one JSON object: correct, attempted, failed and the metrics, the
end-to-end ones with --trace 0 and the per-layer ones with --trace 1. With
--workload all every workload prints its own line. Exits 1 when an output
check fails and 2 when the checkout or a worker is unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("davies-steady-l2", "thermalize-l2", "trotter-composite", "ergodicity")
WORKER_TIMEOUT_S = 150
SETUP_PROCESSES = 2  # set-up-only processes per run, besides the measured one
BLAS_THREADS = "1"


def _spawn(name: str, seed: int, seconds: float, trace: int, result: Path,
           extra=()) -> dict | None:
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", str(result), *extra]
    try:
        # the worker's own output goes to stderr: stdout carries only results
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], env=env,
                              stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: worker timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    if not result.is_file():
        print(f"{name}: worker exited with {proc.returncode} and no result", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    """The worker's result; untraced, setup_s is the median over several processes."""
    stem = RESULTS / f"{name}-seed{seed}-trace{trace}"
    setups = []
    for i in range(SETUP_PROCESSES if not trace else 0):
        path = stem.with_suffix(f".setup{i}.json")
        doc = _spawn(name, seed, seconds, trace, path, ["--setup-only"])
        if doc is None:
            return None
        setups.append(doc["setup_s"])
        path.unlink()
    path = stem.with_suffix(".json")
    doc = _spawn(name, seed, seconds, trace, path)
    if doc is not None and setups:
        doc["setup_s_each"] = setups + [doc["metrics"]["setup_s"]["value"]]
        doc["metrics"]["setup_s"]["value"] = statistics.median(doc["setup_s_each"])
        path.write_text(json.dumps(doc, indent=1))
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stabtherm" / "__init__.py").is_file():
        print(f"no stabtherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, args.trace)
        if doc is None:
            return 2
        metrics = doc["layer_metrics"] if args.trace else doc["metrics"]
        shown = " ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
        print(f"{name} seed={args.seed}: {shown} attempted={doc['attempted']} "
              f"failed={doc['failed']} correct={doc['correct']}")
        line = {"correct": doc["correct"], "attempted": doc["attempted"],
                "failed": doc["failed"], "metrics": metrics}
        if args.workload == "all":
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
        if not doc["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
