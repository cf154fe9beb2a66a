"""JSON/CSV serialization for lattices, Hamiltonians, states and reports.

Stabilizer strings travel in the text form "<phase> <letters>"; dense states
as base64-wrapped little-endian complex128 buffers with dimension metadata,
so result files are self-contained and byte-reproducible.
"""

from __future__ import annotations

import base64
import csv
import hashlib
import io
import json

import numpy as np

from .errors import ConfigError
from .pauli import PauliString
from .toric import StabilizerHamiltonian, StabilizerTerm, ToricLattice, build_torus


def lattice_to_json(lat: ToricLattice) -> dict:
    return {
        "kind": "toric_lattice",
        "L": lat.L,
        "n_links": lat.n_links,
        "link_order": "row-major cells, horizontal before vertical per cell",
        "vertices": [list(v) for v in lat.vertices],
        "plaquettes": [list(p) for p in lat.plaquettes],
    }


def lattice_from_json(d: dict) -> ToricLattice:
    if d.get("kind") != "toric_lattice":
        raise ConfigError("not a toric_lattice document")
    lat = build_torus(int(d["L"]))
    if [list(v) for v in lat.vertices] != d["vertices"]:
        raise ConfigError("vertex table does not match the canonical link ordering")
    return lat


def hamiltonian_to_json(H: StabilizerHamiltonian) -> dict:
    return {
        "kind": "stabilizer_hamiltonian",
        "n_qubits": H.n_qubits,
        "sign_convention": "H = -sum(coupling * stabilizer)",
        "terms": [
            {"coupling": t.coupling, "pauli": t.stabilizer.label,
             "tag": t.tag, "index": t.index}
            for t in H.terms
        ],
    }


def hamiltonian_from_json(d: dict) -> StabilizerHamiltonian:
    if d.get("kind") != "stabilizer_hamiltonian":
        raise ConfigError("not a stabilizer_hamiltonian document")
    terms = tuple(
        StabilizerTerm(float(t["coupling"]), PauliString.from_label(t["pauli"]),
                       t.get("tag", "other"), t.get("index"))
        for t in d["terms"]
    )
    return StabilizerHamiltonian(int(d["n_qubits"]), terms)


def state_to_json(mat: np.ndarray) -> dict:
    m = np.ascontiguousarray(mat, dtype=np.complex128)
    return {
        "kind": "dense_state",
        "dim": int(m.shape[0]),
        "dtype": "complex128",
        "data_b64": base64.b64encode(m.tobytes()).decode("ascii"),
    }


def state_from_json(d: dict) -> np.ndarray:
    if d.get("kind") != "dense_state":
        raise ConfigError("not a dense_state document")
    dim = int(d["dim"])
    buf = base64.b64decode(d["data_b64"])
    return np.frombuffer(buf, dtype=np.complex128).reshape((dim, dim)).copy()


def composite_to_json(model) -> dict:
    """Composite system+ancilla model description."""
    return {
        "kind": "composite_model",
        "system": hamiltonian_to_json(model.system),
        "coupling_g": model.coupling,
        "index_map": {
            "system_qubits": list(range(model.n_system)),
            "ancilla_qubits": list(range(model.n_system, model.n_qubits)),
        },
        "ancillas": [
            {"site": a.site, "axis": a.axis, "kind": a.kind, "omega": a.omega,
             "gamma_minus": a.gamma_minus, "gamma_plus": a.gamma_plus}
            for a in model.ancillas
        ],
    }


def group_to_json(G) -> dict:
    return {
        "kind": "finite_group",
        "name": G.name,
        "order": G.order,
        "table": G.table.tolist(),
        "element_names": list(G.element_names),
        "conjugacy_classes": [list(c) for c in G.conjugacy_classes()],
        "centralizer_orders": [len(G.centralizer(c[0]))
                               for c in G.conjugacy_classes()],
    }


def group_from_json(d: dict):
    from .groups import group_from_table

    if d.get("kind") != "finite_group":
        raise ConfigError("not a finite_group document")
    return group_from_table(d["table"], d.get("element_names"), d.get("name", "G"))


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(csv_text(header, rows))


def csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return int(x)
    return x


def config_hash(config: dict) -> str:
    """Canonical sha256 of a config document (sorted keys, no whitespace)."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
