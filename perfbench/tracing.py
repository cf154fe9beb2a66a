"""Span tracing of stabtherm from outside the package.

``install`` replaces every public function of each stabtherm module with a
wrapper that records a span (name, start, end, parent, phase), and rebinds
every module attribute that pointed at the original, so calls between
modules (``evolve`` -> ``build_superoperator``, the names ``cli`` and
``verify`` import) are caught too. The dense and sparse conversions of
``PauliString`` and ``PauliSum`` are wrapped as methods. The ``lobpcg`` that
``verify`` binds is wrapped so that every call of the operator's matvec or
matmat is counted. Spans stay in memory until ``write`` dumps them.

``layer_metrics`` turns the spans into the per-layer metrics of
BENCHMARK.json. A span's self time is its duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

from scipy.sparse.linalg import LinearOperator

MODULES = ("pauli", "toric", "lindblad", "bath", "verify", "circuits", "groups",
           "serialize", "cli")
METHODS = {"pauli": {"PauliString": ("to_dense", "to_sparse"),
                     "PauliSum": ("to_dense", "to_sparse")}}

TO_SPARSE = {"pauli.PauliString.to_sparse", "pauli.PauliSum.to_sparse"}
TO_DENSE = {"pauli.PauliString.to_dense", "pauli.PauliSum.to_dense", "pauli.to_dense"}

# (name, unit) in the order of BENCHMARK.json's per_layer list
LAYER_METRICS = (
    ("toric.decompose_s", "s"),
    ("pauli.to_sparse_calls", "count"),
    ("pauli.to_sparse_s", "s"),
    ("pauli.to_dense_s", "s"),
    ("bath.davies_reduction_s", "s"),
    ("bath.composite_s", "s"),
    ("lindblad.build_superoperator_calls", "count"),
    ("lindblad.build_superoperator_s", "s"),
    ("lindblad.superoperator_nnz", "count"),
    ("lindblad.steady_states_self_s", "s"),
    ("lindblad.evolve_calls", "count"),
    ("lindblad.evolve_self_s", "s"),
    ("verify.commutant_calls", "count"),
    ("verify.commutant_dense_s", "s"),
    ("verify.commutant_iterative_s", "s"),
    ("verify.operator_applications", "count"),
    ("verify.ergodicity_self_s", "s"),
    ("circuits.trotterize_s", "s"),
    ("circuits.gates_simulated", "count"),
    ("circuits.simulate_s", "s"),
    ("circuits.us_per_gate", "us"),
    ("cli.thermalize_self_s", "s"),
)

# facts read off a call's arguments or result and kept on its span
SPAN_FACTS = {
    "lindblad.build_superoperator": lambda args, kwargs, result: {"nnz": int(result.nnz)},
    "circuits.simulate_schedule": lambda args, kwargs, result: {"gates": len(args[0])},
}


class Tracer:
    """Spans of one process. ``phase`` tags each span as set-up or pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase, facts]
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "setup"
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        facts = SPAN_FACTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, self.phase, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if facts is not None:
                rec[5] = facts(args, kwargs, result)
            return result

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += n

    def write(self, path) -> None:
        doc = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p, "phase": ph, "facts": f}
                      for n, s, e, p, ph, f in self.spans],
            "counts": [{"phase": ph, "name": n, "value": v} for (ph, n), v in self.counts.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap stabtherm's public functions and rebind every name bound to them."""
    import stabtherm

    mods = [importlib.import_module(f"stabtherm.{m}") for m in MODULES]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for m in methods:
                setattr(cls, m, tracer.wrap(f"{short}.{cls_name}.{m}", vars(cls)[m]))
    for mod in mods + [stabtherm]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    verify = importlib.import_module("stabtherm.verify")
    lobpcg = verify.lobpcg

    def counting_lobpcg(A, X, *args, **kwargs):
        return lobpcg(_counting_operator(A, tracer), X, *args, **kwargs)

    verify.lobpcg = tracer.wrap("verify.lobpcg", counting_lobpcg)


def _counting_operator(A, tracer: Tracer):
    """The operator lobpcg gets, with each matvec or matmat call counted."""
    name = "verify.operator_applications"

    def counted(fn):
        def call(x):
            tracer.count(name)
            return fn(x)
        return call

    # a LinearOperator built from callables keeps them on the instance
    impl = "_CustomLinearOperator__matvec_impl"
    if isinstance(A, LinearOperator) and hasattr(A, impl):
        setattr(A, impl, counted(getattr(A, impl)))
        mm = "_CustomLinearOperator__matmat_impl"
        if getattr(A, mm, None) is not None:
            setattr(A, mm, counted(getattr(A, mm)))
        return A
    return counted(A.__matmul__ if not callable(A) else A)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _phase_totals(spans, counts, phase: str) -> dict:
    dur = [s[2] - s[1] for s in spans]
    child_time = defaultdict(float)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    mine = [i for i, s in enumerate(spans) if s[4] == phase]

    def outermost(names):
        """Indices of spans in ``names`` with no ancestor in ``names``."""
        out = []
        for i in mine:
            if spans[i][0] not in names:
                continue
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def inclusive(names):
        return sum(dur[i] for i in outermost(names))

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in mine if spans[i][0] == name)

    def calls(names):
        return sum(1 for i in mine if spans[i][0] in names)

    def fact(name, key):
        return sum(spans[i][5][key] for i in mine if spans[i][0] == name and spans[i][5])

    def has_descendant(i, name):
        return any(spans[c][0] == name or has_descendant(c, name) for c in children[i])

    commutant = outermost({"verify.commutant_dimension"})
    iterative = [i for i in commutant if has_descendant(i, "verify.lobpcg")]
    return {
        "toric.decompose_s": inclusive({"toric.eigenoperator_decomposition"}),
        "pauli.to_sparse_calls": calls(TO_SPARSE),
        "pauli.to_sparse_s": inclusive(TO_SPARSE),
        "pauli.to_dense_s": inclusive(TO_DENSE),
        "bath.davies_reduction_s": inclusive({"bath.davies_reduction"}),
        "bath.composite_s": inclusive({"bath.attach_ancillas", "bath.rwa_generator"}),
        "lindblad.build_superoperator_calls": calls({"lindblad.build_superoperator"}),
        "lindblad.build_superoperator_s": inclusive({"lindblad.build_superoperator"}),
        "lindblad.superoperator_nnz": fact("lindblad.build_superoperator", "nnz"),
        "lindblad.steady_states_self_s": self_time("lindblad.steady_states"),
        "lindblad.evolve_calls": calls({"lindblad.evolve"}),
        "lindblad.evolve_self_s": self_time("lindblad.evolve"),
        "verify.commutant_calls": len(commutant),
        "verify.commutant_dense_s": sum(dur[i] for i in commutant if i not in iterative),
        "verify.commutant_iterative_s": sum(dur[i] for i in iterative),
        "verify.operator_applications": counts.get((phase, "verify.operator_applications"), 0),
        "verify.ergodicity_self_s": self_time("verify.ergodicity_check"),
        "circuits.trotterize_s": inclusive({"circuits.trotterize"}),
        "circuits.gates_simulated": fact("circuits.simulate_schedule", "gates"),
        "circuits.simulate_s": inclusive({"circuits.simulate_schedule"}),
        "cli.thermalize_self_s": self_time("cli.cmd_thermalize"),
    }


def layer_metrics(tracer: Tracer, n_passes: int) -> dict:
    """One input build (the set-up phase) plus the mean pass."""
    setup = _phase_totals(tracer.spans, tracer.counts, "setup")
    passes = _phase_totals(tracer.spans, tracer.counts, "pass")
    total = {k: setup[k] + passes[k] / n_passes for k in setup}
    gates = total["circuits.gates_simulated"]
    total["circuits.us_per_gate"] = 1e6 * total["circuits.simulate_s"] / gates if gates else 0.0
    return {name: {"value": round(total[name]) if unit == "count" else total[name], "unit": unit}
            for name, unit in LAYER_METRICS}
