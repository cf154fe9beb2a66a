"""One workload in one process; started by run.py.

Imports stabtherm from the checkout's ``src`` and builds the workload's
inputs several times (set-up; ``--setup-only`` stops here). Then it checks
the benchmark's oracles and runs whole passes until ``--seconds`` have
passed, checking the outputs of every pass. Writes a result document, and with
``--trace 1`` the spans, to ``--result``; exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import stabtherm  # noqa: F401  (timed: part of set-up)

    import_s = time.monotonic() - args.spawned_at
    if Path(stabtherm.__file__).resolve().parent != SRC / "stabtherm":
        raise SystemExit(f"stabtherm imported from {stabtherm.__file__}, not from {SRC}")

    import oracles
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    p = dict(wl.params(args.seed), seed=args.seed)
    out_dir = args.result.parent

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    build_s = []
    for i in range(SETUP_REPEATS):
        if tracer is not None and i == SETUP_REPEATS - 1:
            tracer.reset()  # keep the spans of a single build
        t0 = time.perf_counter()
        inputs = wl.build(p)
        build_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_s)
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    oracles.self_check()
    ref = wl.reference(p)
    if tracer is not None:
        tracer.phase = "pass"

    solve_s, failures = [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out = {}
        ops = wl.operations(inputs, p, out_dir)
        for label, op in ops:
            attempted += 1
            try:
                out[label] = op()
            except Exception:  # an operation of the program failed: count it, go on
                failed += 1
                traceback.print_exc()
        if len(out) == len(ops):  # outputs of failed operations cannot be checked
            try:
                failures += wl.check(inputs, out, ref, p)
            except Exception as exc:
                failures.append(f"check raised {exc!r}")
        solve_s.append(time.perf_counter() - t0)
        if time.perf_counter() - started >= args.seconds:
            break

    doc = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "params": p,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "import_s": import_s,
        "build_s": build_s,
        "solve_s_each": solve_s,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(solve_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        },
    }
    if tracer is not None:
        doc["layer_metrics"] = tracing.layer_metrics(tracer, len(solve_s))
        tracer.write(args.result.with_suffix(".spans.json"))
    args.result.write_text(json.dumps(doc, indent=1))
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
