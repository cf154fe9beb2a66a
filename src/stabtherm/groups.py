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

Every operator on a 4-link patch comes from two arrays over its d^4 basis
configurations: a (|G|, d^4) gauge table, whose row g is the configuration
permutation P_g of the gauge transformation g (h -> g h on a leaving link,
h -> h g^{-1} on an entering one), and a 0/1 flux mask, 1 where the flux
word is the identity. So A_v = (1/|G|) sum_g P_g and B_p = diag(mask).
Dense 4-qudit matrices are built for |G|^4 <= 4096 (|G| <= 8); on state
tensors of any size the table gathers and the mask multiplies, and the
commutation suite compares the mask with its gauge images exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
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
        t = _index_table(self.table)
        object.__setattr__(self, "table", t)
        n = t.shape[0]
        _check_order(n)
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


def _check_order(order: int):
    if order > MAX_GROUP_ORDER:
        raise CapacityError(f"group order {order} exceeds the cap {MAX_GROUP_ORDER}")


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ParameterError("cyclic group order must be >= 1")
    _check_order(n)
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return FiniteGroup(f"Z{n}", t, tuple(str(k) for k in range(n)))


def symmetric_group(n: int) -> FiniteGroup:
    """S_n as permutation tuples in lexicographic order (n <= 4)."""
    if n < 1:
        raise ParameterError("symmetric group degree must be >= 1")
    _check_order(math.factorial(min(n, MAX_GROUP_ORDER)))  # before n!^2 products
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


def _index_table(table) -> np.ndarray:
    """``table`` as an int64 array; ModelError unless it is a rectangular
    (2-D) array of integers."""
    try:
        t = np.asarray(table)
    except ValueError:  # ragged rows
        t = None
    if t is None or t.ndim != 2 or t.dtype.kind not in "iu":
        raise ModelError("multiplication table is not a rectangular integer array")
    return t.astype(np.int64)


def group_from_table(table, names=None, name: str = "G") -> FiniteGroup:
    t = _index_table(table)
    if names is None:
        names = tuple(str(i) for i in range(t.shape[0]))
    return FiniteGroup(name, t, tuple(names))


def _integer(value, what: str) -> int:
    """``value`` as an int; ParameterError unless it is an integer value."""
    try:
        if not isinstance(value, bool) and value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


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
        try:
            if kind == "cyclic":
                return cyclic_group(_integer(spec["n"], "cyclic group order"))
            if kind == "symmetric":
                return symmetric_group(_integer(spec["n"], "symmetric group degree"))
            if kind == "table":
                return group_from_table(spec["table"], spec.get("names"), spec.get("name", "G"))
        except KeyError as exc:
            raise ParameterError(f"group spec {spec!r} has no key {exc}") from None
    raise ParameterError(f"unknown group spec {spec!r}")


# ---------------------------------------------------------------------------
# single-qudit operators
# ---------------------------------------------------------------------------

def left_mult(G: FiniteGroup, h: int) -> np.ndarray:
    """L+^h |g> = |h g>."""
    return np.eye(G.order)[:, G.table[h]]


def right_mult_inv(G: FiniteGroup, h: int) -> np.ndarray:
    """L-^h |g> = |g h^{-1}>."""
    return np.eye(G.order)[:, G.table[:, G.inverse(h)]]


def proj_plus(G: FiniteGroup, h: int) -> np.ndarray:
    return np.diag(np.arange(G.order) == h).astype(float)


def proj_minus(G: FiniteGroup, h: int) -> np.ndarray:
    # projects onto |h^{-1}>; the inverse-element twin of T+
    return proj_plus(G, G.inverse(h))


def qudit_ops(G: FiniteGroup) -> dict[str, list[np.ndarray]]:
    """All L+/L-/T+/T- families, indexed by group element."""
    return {
        "L+": [left_mult(G, h) for h in range(G.order)],
        "L-": [right_mult_inv(G, h) for h in range(G.order)],
        "T+": [proj_plus(G, h) for h in range(G.order)],
        "T-": [proj_minus(G, h) for h in range(G.order)],
    }


# ---------------------------------------------------------------------------
# vertex / plaquette operators on a 4-link patch
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuditOperator:
    group: FiniteGroup
    mat: np.ndarray
    support: tuple[int, ...]


def _check_pattern(pattern: str):
    if len(pattern) != 4 or any(c not in "+-" for c in pattern):
        raise ParameterError(f"orientation pattern must be 4 of '+'/'-', got {pattern!r}")


def _gauge_table(G: FiniteGroup, pattern: str) -> np.ndarray:
    """(|G|, d^4) table: row g maps each patch configuration to its image
    under the gauge transformation g, which sends h to g h on a '+' link,
    to h g^{-1} on a '-' link and leaves a '.' link alone."""
    d = G.order
    acts = {"+": G.table, "-": G.table[:, G._inverse].T,
            ".": np.broadcast_to(np.arange(d), (d, d))}
    digits = np.indices((d,) * 4).reshape(4, -1)
    return sum(acts[c][:, h] * d ** (3 - i) for i, (c, h) in enumerate(zip(pattern, digits)))


def _flux_mask(G: FiniteGroup, pattern: str) -> np.ndarray:
    """0/1 mask over the d^4 patch configurations: 1 where the flux word, each
    link entering directly ('+') or inverted ('-'), is the identity."""
    d = G.order
    word = np.full(d ** 4, G.identity)
    for c, h in zip(pattern, np.indices((d,) * 4).reshape(4, -1)):
        word = G.table[word, h if c == "+" else G._inverse[h]]
    return (word == G.identity).astype(float)


def _check_dense(G: FiniteGroup, pattern: str):
    _check_pattern(pattern)
    if G.order ** 4 > 4096:
        raise CapacityError(f"dense 4-qudit operators need |G|^4 <= 4096, got {G.order ** 4}")


def vertex_op(G: FiniteGroup, pattern: str = "++--") -> QuditOperator:
    """A_v = (1/|G|) sum_g P_g on 4 qudits; orthogonal projector.

    pattern[i] = '+' if link i leaves the vertex (acts by L+^g), '-' if it
    enters (acts by L-^g); clockwise link order. P_g is the permutation in
    row g of the gauge table.
    """
    _check_dense(G, pattern)
    d = G.order
    out = np.zeros((d ** 4, d ** 4))
    out[_gauge_table(G, pattern), np.arange(d ** 4)] = 1 / d
    return QuditOperator(G, out, (0, 1, 2, 3))


def plaquette_op(G: FiniteGroup, pattern: str = "++--") -> QuditOperator:
    """B_p: diagonal projector onto trivial flux, diag = the flux mask.

    pattern[i] = '+' if link i is traversed along its orientation (element
    enters the word directly), '-' against (enters inverted); counterclockwise
    traversal order.
    """
    _check_dense(G, pattern)
    return QuditOperator(G, np.diag(_flux_mask(G, pattern)), (0, 1, 2, 3))


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
# application to state tensors
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _axes_layout(axes: tuple[int, ...], ndim: int) -> tuple | None:
    """How ``_apply_axes`` reaches ``axes`` of an ndim-axis tensor: None when
    they are consecutive and ascending (op contracts the tensor in place),
    else the transpose that brings them to the front and its inverse."""
    first = axes[0] if axes else 0
    if axes == tuple(range(first, first + len(axes))):
        return None
    perm = axes + tuple(a for a in range(ndim) if a not in axes)
    return perm, tuple(np.argsort(perm))


def _apply_axes(op: np.ndarray, axes: tuple[int, ...] | list[int], t: np.ndarray) -> np.ndarray:
    """Contract a local matrix onto the tensor axes ``axes``, the first the
    most significant digit of op's index; the other axes ride along. The
    one local-contraction kernel: circuits applies its gates through it.

    On consecutive ascending axes this is one product on the tensor as
    (before, op's index, after): ``op @ t`` when nothing comes before, and
    ``t @ op.T`` when nothing comes after, with no transpose. Other axes
    go through a transpose fixed once per (axes, ndim)."""
    axes = tuple(axes)
    layout = _axes_layout(axes, t.ndim)
    k = len(op)
    if layout is None:
        before = math.prod(t.shape[:axes[0]]) if axes else 1
        if before == 1:
            return (op @ t.reshape(k, -1)).reshape(t.shape)
        if axes[-1] == t.ndim - 1:
            return (t.reshape(-1, k) @ op.T).reshape(t.shape)
        return np.matmul(op, t.reshape(before, k, -1)).reshape(t.shape)
    perm, inverse = layout
    out = op @ t.transpose(perm).reshape(k, -1)
    return out.reshape([t.shape[a] for a in perm]).transpose(inverse)


def apply_local(psi: np.ndarray, op: np.ndarray, axis: int) -> np.ndarray:
    """Apply a one-qudit operator along one tensor axis."""
    return _apply_axes(op, [axis], psi)


def _on_links(psi: np.ndarray, links: tuple[int, ...], f) -> np.ndarray:
    """f applied to psi as a (d^4, rest) matrix over the configurations of
    its four link axes."""
    moved = np.moveaxis(psi, links, (0, 1, 2, 3))
    out = f(moved.reshape(np.prod(moved.shape[:4]), -1))
    return np.moveaxis(out.reshape(moved.shape), (0, 1, 2, 3), links)


def apply_vertex(G: FiniteGroup, psi: np.ndarray, links: tuple[int, ...],
                 pattern: str) -> np.ndarray:
    """A_v on a state tensor with one axis per link: the mean over g of
    psi gathered through row g of the gauge table."""
    _check_pattern(pattern)
    table = _gauge_table(G, pattern)
    return _on_links(psi, links, lambda m: sum(m[p] for p in table) / G.order)


def apply_plaquette(G: FiniteGroup, psi: np.ndarray, links: tuple[int, ...],
                    pattern: str) -> np.ndarray:
    """B_p (diagonal flux projector) on a state tensor: psi times the mask."""
    _check_pattern(pattern)
    mask = _flux_mask(G, pattern)
    return _on_links(psi, links, lambda m: m * mask[:, None])


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

    def __post_init__(self):
        for links, pattern in ((self.vertex_links, self.vertex_pattern),
                               (self.plaquette_links, self.plaquette_pattern)):
            _check_pattern(pattern)
            if (len(links) != 4 or len(set(links)) != 4
                    or not set(links) <= set(range(self.n_qudits))):
                raise ParameterError(f"{self.name}: links {links} are not 4 distinct "
                                     f"links of {self.n_qudits}")


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


def commutation_suite(G: FiniteGroup, geometries: list[Geometry] | None = None
                      ) -> CommutationReport:
    """Exact ||[A_v, B_p]||_F / sqrt(dim) in each geometry.

    With A_v = (1/|G|) sum_g P_g and B_p = diag(m), the commutator is
    (1/|G|) sum_g (m o pi_g - m) P_g, and the P_g map each configuration to
    |G| distinct ones (the gauge action is free on every link). So the
    squared value is sum_g mean_c (m(pi_g c) - m(c))^2 / |G|^2 over the d^4
    configurations c of the plaquette, where pi_g is the vertex's gauge
    action on the shared links: the flux mask against its gauge images,
    whatever the geometry's size. It is exactly 0.0 iff A_v and B_p commute.
    """
    results = []
    for geo in default_geometries() if geometries is None else geometries:
        vertex = dict(zip(geo.vertex_links, geo.vertex_pattern))
        gauge = "".join(vertex.get(link, ".") for link in geo.plaquette_links)
        mask = _flux_mask(G, geo.plaquette_pattern)
        moved = mask[_gauge_table(G, gauge)] != mask
        results.append((geo.name, float(np.sqrt(moved.mean() / G.order)),
                        geo.expect_commuting))
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
