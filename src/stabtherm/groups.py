"""Finite-group quantum-double operators (toric-code models beyond Z2).

Qudits carry group-element basis states |g>. Left/right multiplication and
projection operators per qudit:

    L+^h |g> = |h g>     L-^h |g> = |g h^{-1}>
    T+^h |g> = d_{h,g} |g>      T-^h |g> = d_{h^{-1},g} |g>

Vertex operators average gauge transformations over the group; plaquette
operators project onto trivial flux. Edge-orientation convention (validated
by the commutation suite): horizontal edges point right, vertical edges
point up; a link leaving its vertex contributes L+, an incoming one L-;
flux words traverse a face counterclockwise from its base corner, links
crossed against their orientation enter inverted.

Multi-qudit operators use big-endian index order: the first link listed is
the most significant digit of the basis index (kron in listing order).
Dense 4-qudit matrices are kept for |G| <= 6; larger geometries are applied
matrix-free to state tensors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ModelError, ParameterError

MAX_GROUP_ORDER = 24


@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table plus derived structure, validated exhaustively."""

    name: str
    table: np.ndarray          # table[a, b] = index of a*b
    element_names: tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        object.__setattr__(self, "table", t)
        n = t.shape[0]
        if n > MAX_GROUP_ORDER:
            raise CapacityError(f"group order {n} exceeds the cap {MAX_GROUP_ORDER}")
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise ModelError("multiplication table is not an n x n index table")
        # Latin square
        ran = np.arange(n)
        for i in range(n):
            if sorted(t[i, :]) != list(ran) or sorted(t[:, i]) != list(ran):
                raise ModelError(f"table is not a Latin square (row/col {i})")
        # associativity on all triples
        left = t[t, :]            # left[a, b, c] = (a*b)*c
        right = t[:, t]           # right[a, b, c] = a*(b*c)
        if not np.array_equal(left, right.reshape(left.shape)):
            raise ModelError("multiplication table is not associative")
        # identity and inverses
        ident = None
        for e in range(n):
            if np.array_equal(t[e, :], ran) and np.array_equal(t[:, e], ran):
                ident = e
                break
        if ident is None:
            raise ModelError("table has no identity element")
        object.__setattr__(self, "_identity", ident)
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.where(t[a, :] == ident)[0]
            if len(hits) != 1 or t[hits[0], a] != ident:
                raise ModelError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        object.__setattr__(self, "_inverse", inv)

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @property
    def identity(self) -> int:
        return self._identity

    def inverse(self, a: int) -> int:
        return int(self._inverse[a])

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        n = self.order
        seen = set()
        classes = []
        for h in range(n):
            if h in seen:
                continue
            cls = {self.mult(self.mult(g, h), self.inverse(g)) for g in range(n)}
            classes.append(tuple(sorted(cls)))
            seen |= cls
        classes.sort(key=lambda c: (c != (self.identity,), len(c), c))
        return tuple(classes)

    def centralizer(self, h: int) -> tuple[int, ...]:
        return tuple(g for g in range(self.order)
                     if self.mult(g, h) == self.mult(h, g))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ParameterError("cyclic group order must be >= 1")
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(f"Z{n}", t, tuple(str(k) for k in range(n)))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as permutation tuples in lexicographic order (n <= 4)."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    t = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(n))   # (p o q)(k) = p(q(k))
            t[i, j] = index[comp]
    names = tuple("".join(str(v) for v in p) for p in perms)
    return FiniteGroup(f"S{n}", t, names)


def group_from_table(table, names=None, name: str = "G") -> FiniteGroup:
    t = np.asarray(table, dtype=np.int64)
    if names is None:
        names = tuple(str(i) for i in range(t.shape[0]))
    return FiniteGroup(name, t, tuple(names))


def build_group(spec) -> FiniteGroup:
    """Spec forms: "Z2"/"S3"-style strings or {"type": ..., ...} dicts."""
    if isinstance(spec, str):
        s = spec.strip().upper()
        if s.startswith("Z") and s[1:].isdigit():
            return cyclic_group(int(s[1:]))
        if s.startswith("S") and s[1:].isdigit():
            return symmetric_group(int(s[1:]))
        raise ParameterError(f"unknown group spec {spec!r}")
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "cyclic":
            return cyclic_group(int(spec["n"]))
        if kind == "symmetric":
            return symmetric_group(int(spec["n"]))
        if kind == "table":
            return group_from_table(spec["table"], spec.get("names"), spec.get("name", "G"))
    raise ParameterError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------
# single-qudit operators
# ---------------------------------------------------------------------------

def left_mult(G: FiniteGroup, h: int) -> np.ndarray:
    """L+^h |g> = |h g>."""
    d = G.order
    m = np.zeros((d, d))
    for g in range(d):
        m[G.mult(h, g), g] = 1.0
    return m


def right_mult_inv(G: FiniteGroup, h: int) -> np.ndarray:
    """L-^h |g> = |g h^{-1}>."""
    d = G.order
    m = np.zeros((d, d))
    hinv = G.inverse(h)
    for g in range(d):
        m[G.mult(g, hinv), g] = 1.0
    return m


def proj_plus(G: FiniteGroup, h: int) -> np.ndarray:
    d = G.order
    m = np.zeros((d, d))
    m[h, h] = 1.0
    return m


def proj_minus(G: FiniteGroup, h: int) -> np.ndarray:
    # projects onto |h^{-1}>; the inverse-element twin of T+
    d = G.order
    m = np.zeros((d, d))
    m[G.inverse(h), G.inverse(h)] = 1.0
    return m


def qudit_ops(G: FiniteGroup) -> dict[str, list[np.ndarray]]:
    """All L+/L-/T+/T- families, indexed by group element."""
    return {
        "L+": [left_mult(G, h) for h in range(G.order)],
        "L-": [right_mult_inv(G, h) for h in range(G.order)],
        "T+": [proj_plus(G, h) for h in range(G.order)],
        "T-": [proj_minus(G, h) for h in range(G.order)],
    }


# ---------------------------------------------------------------------------
# vertex / plaquette operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuditOperator:
    group: FiniteGroup
    mat: np.ndarray
    support: tuple[int, ...]


def _check_pattern(pattern: str):
    if len(pattern) != 4 or any(c not in "+-" for c in pattern):
        raise ParameterError(f"orientation pattern must be 4 of '+'/'-', got {pattern!r}")


def vertex_op(G: FiniteGroup, pattern: str = "++--") -> QuditOperator:
    """A_v = (1/|G|) sum_g (gauge action) on 4 qudits; orthogonal projector.

    pattern[i] = '+' if link i leaves the vertex (acts by L+^g), '-' if it
    enters (acts by L-^g); clockwise link order.
    """
    _check_pattern(pattern)
    d = G.order
    if d ** 4 > 4096:
        raise CapacityError(f"dense 4-qudit vertex operator needs |G|^4 <= 4096, got {d**4}")
    dim = d ** 4
    out = np.zeros((dim, dim))
    for g in range(d):
        factors = [left_mult(G, g) if c == "+" else right_mult_inv(G, g) for c in pattern]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        out += term
    return QuditOperator(G, out / d, (0, 1, 2, 3))


def plaquette_op(G: FiniteGroup, pattern: str = "++--") -> QuditOperator:
    """B_p: diagonal projector onto trivial flux, sum over words equal to e.

    pattern[i] = '+' if link i is traversed along its orientation (element
    enters the word directly), '-' against (enters inverted); counterclockwise
    traversal order.
    """
    _check_pattern(pattern)
    d = G.order
    if d ** 4 > 4096:
        raise CapacityError(f"dense 4-qudit plaquette operator needs |G|^4 <= 4096, got {d**4}")
    diag = np.zeros(d ** 4)
    for idx in itertools.product(range(d), repeat=4):
        w = G.identity
        for c, g in zip(pattern, idx):
            w = G.mult(w, g if c == "+" else G.inverse(g))
        if w == G.identity:
            flat = 0
            for g in idx:
                flat = flat * d + g
            diag[flat] = 1.0
    return QuditOperator(G, np.diag(diag), (0, 1, 2, 3))


def flux_pair_creator(G: FiniteGroup, cls: tuple[int, ...]) -> np.ndarray:
    """E+([h]) = (1/sqrt(|[h]|)) sum_{h in [h]} L-^h; one-qudit operator."""
    cls = tuple(cls)
    if cls not in G.conjugacy_classes():
        raise ParameterError(f"{cls} is not a conjugacy class of {G.name}")
    out = np.zeros((G.order, G.order))
    for h in cls:
        out += right_mult_inv(G, h)
    return out / np.sqrt(len(cls))


# ---------------------------------------------------------------------------
# matrix-free application on larger geometries
# ---------------------------------------------------------------------------

def apply_local(psi: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    """Apply a one-qudit operator along one tensor axis."""
    moved = np.moveaxis(psi, axis, 0)
    out = np.tensordot(op, moved, axes=(1, 0))
    return np.moveaxis(out, 0, axis)


def apply_vertex(G: FiniteGroup, psi: np.ndarray, links: tuple[int, ...],
                 pattern: str) -> np.ndarray:
    """Matrix-free A_v on a state tensor with one axis per link."""
    _check_pattern(pattern)
    out = np.zeros_like(psi, dtype=complex)
    for g in range(G.order):
        term = psi
        for c, ax in zip(pattern, links):
            op = left_mult(G, g) if c == "+" else right_mult_inv(G, g)
            term = apply_local(term, op, ax)
        out += term
    return out / G.order


def apply_plaquette(G: FiniteGroup, psi: np.ndarray, links: tuple[int, ...],
                    pattern: str) -> np.ndarray:
    """Matrix-free B_p (diagonal flux projector) on a state tensor."""
    _check_pattern(pattern)
    d = G.order
    grids = np.meshgrid(*[np.arange(d)] * 4, indexing="ij")
    word = np.full((d,) * 4, G.identity, dtype=np.int64)
    for c, gidx in zip(pattern, grids):
        contrib = gidx if c == "+" else G._inverse[gidx]
        word = G.table[word, contrib]
    mask4 = (word == G.identity).astype(float)
    moved = np.moveaxis(psi, links, (0, 1, 2, 3))
    out = moved * mask4.reshape((d, d, d, d) + (1,) * (psi.ndim - 4))
    return np.moveaxis(out, (0, 1, 2, 3), links)


# ---------------------------------------------------------------------------
# commutation suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Geometry:
    """A vertex and a plaquette embedded on n shared/unshared links."""
    name: str
    n_qudits: int
    vertex_links: tuple[int, int, int, int]
    vertex_pattern: str
    plaquette_links: tuple[int, int, int, int]
    plaquette_pattern: str
    expect_commuting: bool


def default_geometries() -> list[Geometry]:
    """Shared-0 and shared-2 (the square-lattice cases, must commute) plus the
    unphysical shared-1 case, reported but expected non-commuting.

    Shared-2: vertex v with clockwise links (up, right, down, left) =
    (0, 1, 2, 3), pattern "++--" (up/right leave v, down/left enter). The
    north-east face has counterclockwise boundary (right=1, east-vertical=4,
    top=5, up=0) with the top and up links traversed against orientation.
    """
    return [
        Geometry("disjoint", 8, (0, 1, 2, 3), "++--", (4, 5, 6, 7), "++--", True),
        Geometry("shared-2", 6, (0, 1, 2, 3), "++--", (1, 4, 5, 0), "++--", True),
        Geometry("shared-1", 7, (0, 1, 2, 3), "++--", (3, 4, 5, 6), "++--", False),
    ]


@dataclass(frozen=True)
class CommutationReport:
    group: str
    results: tuple[tuple[str, float, bool], ...]  # (geometry, norm, expected_commuting)

    @property
    def all_expected_hold(self) -> bool:
        return all((norm < 1e-12) == expect or not expect
                   for _, norm, expect in self.results)

    def max_commuting_violation(self) -> float:
        return max((norm for _, norm, expect in self.results if expect), default=0.0)


def commutation_suite(G: FiniteGroup, geometries: list[Geometry] | None = None,
                      n_vectors: int = 200, seed: int = 11) -> CommutationReport:
    """Estimate ||[A_v, B_p]|| in each geometry.

    Dense exact norm when |G|^n <= 4096; otherwise the maximum of
    ||[A,B] v|| over ``n_vectors`` random unit vectors (matrix-free).
    """
    geometries = default_geometries() if geometries is None else geometries
    rng = np.random.default_rng(seed)
    results = []
    for geo in geometries:
        d = G.order
        dim = d ** geo.n_qudits
        shape = (d,) * geo.n_qudits

        def commutator_on(psi):
            av = lambda s: apply_vertex(G, s, geo.vertex_links, geo.vertex_pattern)
            bp = lambda s: apply_plaquette(G, s, geo.plaquette_links, geo.plaquette_pattern)
            return av(bp(psi)) - bp(av(psi))

        if dim <= 4096:
            norm = 0.0
            basis = np.zeros(shape, dtype=complex)
            total = np.zeros((dim, dim), dtype=complex)
            for flat in range(dim):
                basis.reshape(-1)[flat] = 1.0
                total[:, flat] = commutator_on(basis).reshape(-1)
                basis.reshape(-1)[flat] = 0.0
            norm = float(np.linalg.norm(total, 2))
        else:
            norm = 0.0
            n_eff = n_vectors if dim <= 100_000 else min(n_vectors, 20)
            for _ in range(n_eff):
                v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                v /= np.linalg.norm(v)
                norm = max(norm, float(np.linalg.norm(commutator_on(v))))
        results.append((geo.name, norm, geo.expect_commuting))
    return CommutationReport(G.name, tuple(results))


# ---------------------------------------------------------------------------
# torus assembly (operator lists only, per scope)
# ---------------------------------------------------------------------------

def nonabelian_torus_operators(G: FiniteGroup, L: int) -> dict:
    """Vertex/plaquette (links, pattern) lists for an L x L torus.

    Link indexing matches toric.build_torus. Only the operator lists are
    produced (no Hamiltonian assembly or thermalization at qudit level).
    """
    from .toric import build_torus

    lat = build_torus(L)
    vertices = []
    for y in range(L):
        for x in range(L):
            links = (lat.v_link(x, y), lat.h_link(x, y),
                     lat.v_link(x, y - 1), lat.h_link(x - 1, y))
            vertices.append({"links": links, "pattern": "++--"})
    plaquettes = []
    for y in range(L):
        for x in range(L):
            links = (lat.h_link(x, y), lat.v_link(x + 1, y),
                     lat.h_link(x, y + 1), lat.v_link(x, y))
            plaquettes.append({"links": links, "pattern": "++--"})
    return {"group": G.name, "L": L, "vertices": vertices, "plaquettes": plaquettes}
