"""Exact algebra of signed multi-qubit Pauli strings.

A string is stored in symplectic form: two bit masks ``x`` and ``z`` (bit j
belongs to qubit j) plus a phase exponent ``k``, representing the operator

    P = i**k * (X**x) * (Z**z),

where ``X**x`` is the product of single-qubit X on every set bit of ``x`` and
likewise for Z. The per-site convention is fixed globally as Y = i X Z, so the
letter Y corresponds to (x=1, z=1) with one factor of i absorbed into ``k``.
Phases are exact: products, adjoints and squares are integer arithmetic mod 4.

Dense realizations use the little-endian basis convention: qubit 0 is the
least significant bit of the computational-basis index, i.e.
``P.to_dense() == kron(M_{n-1}, ..., M_1, M_0)`` for single-site matrices M_j.

Text serialization is ``"<phase> <letters>"`` with one letter per qubit in
qubit order, e.g. ``"+1 IXYZ"`` or ``"-i ZZII"``.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, DimensionMismatchError, ParameterError

#: Largest qubit count for which dense 2^n x 2^n realizations are produced.
DENSE_LIMIT = 14
#: Largest qubit count for which sparse realizations are produced.
SPARSE_LIMIT = 24
#: PauliSum.simplify drops coefficients below this fraction of the largest (or of 1).
SIMPLIFY_TOL = 1e-14
#: PauliSum.is_hermitian allows coefficients of P - P^dag up to this size.
HERMITIAN_TOL = 1e-12

_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)
_PHASE_TOKENS = {0: "+1", 1: "+i", 2: "-1", 3: "-i"}
_TOKEN_PHASES = {"+1": 0, "1": 0, "+i": 1, "i": 1, "-1": 2, "-i": 3}

# per-letter (x, z, phase exponent) under Y = i X Z
_LETTER_XZK = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


def _popcount(v: int) -> int:
    return int(v).bit_count()


def _check_limit(n: int, limit: int, kind: str) -> None:
    if n > limit:
        raise CapacityError(f"{kind} realization of {n} qubits exceeds the limit {limit}")


def _number(where: str, v, integral: bool = False, error: type[Exception] = ParameterError):
    """``v`` checked as a JSON number; with ``integral`` it must be whole and
    comes back as an int (integral floats pass, as JSON Schema's integer
    allows). ``error`` is raised otherwise."""
    expected = "an integer" if integral else "a number"
    if (isinstance(v, bool) or not isinstance(v, numbers.Real)
            or (integral and not float(v).is_integer())):
        raise error(f"{where} must be {expected}, got {v!r}")
    return int(v) if integral else float(v)


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli operator in symplectic (x, z, phase) form.

    Instances are immutable and hashable; all operations are pure functions.
    """

    n: int
    x: int
    z: int
    k: int = 0  # phase exponent, P = i**k X**x Z**z

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"need at least one qubit, got n={self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ParameterError("mask has bits outside the qubit register")
        object.__setattr__(self, "k", self.k % 4)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, axis: str) -> "PauliString":
        """sigma^axis on one qubit of an n-qubit register."""
        if not 0 <= qubit < n:
            raise ParameterError(f"qubit {qubit} out of range for n={n}")
        ax = axis.upper()
        if ax not in ("X", "Y", "Z"):
            raise ParameterError(f"axis must be x, y or z, got {axis!r}")
        x, z, k = _LETTER_XZK[ax]
        return cls(n, x << qubit, z << qubit, k)

    @classmethod
    def from_letters(cls, letters: str, phase: complex | str = "+1") -> "PauliString":
        """Build from a letter string, qubit 0 first (e.g. ``"IXYZ"``)."""
        letters = letters.strip().upper()
        if not letters or any(c not in _LETTER_XZK for c in letters):
            raise ParameterError(f"bad Pauli letters {letters!r}")
        x = z = 0
        n_y = 0
        for j, c in enumerate(letters):
            xb, zb, kb = _LETTER_XZK[c]
            x |= xb << j
            z |= zb << j
            n_y += kb
        if isinstance(phase, str):
            tok = phase.strip()
            if tok not in _TOKEN_PHASES:
                raise ParameterError(f"bad phase token {tok!r}")
            k0 = _TOKEN_PHASES[tok]
        else:
            try:
                k0 = _PHASE_VALUES.index(complex(phase))
            except ValueError:
                raise ParameterError(f"phase must be one of +1,-1,+i,-i, got {phase!r}")
        return cls(len(letters), x, z, k0 + n_y)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse the text form ``"<phase> <letters>"``, e.g. ``"+1 IXYZ"``."""
        parts = label.split()
        if len(parts) == 1:
            return cls.from_letters(parts[0])
        if len(parts) != 2:
            raise ParameterError(f"bad Pauli label {label!r}")
        return cls.from_letters(parts[1], phase=parts[0])

    # -- basic queries ------------------------------------------------------

    @property
    def phase(self) -> complex:
        """The overall phase i**k as a complex number."""
        return _PHASE_VALUES[self.k]

    def letter(self, qubit: int) -> str:
        xb = (self.x >> qubit) & 1
        zb = (self.z >> qubit) & 1
        return ("I", "X", "Z", "Y")[xb + 2 * zb]

    @property
    def letters(self) -> str:
        return "".join(self.letter(j) for j in range(self.n))

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return _popcount(self.x | self.z)

    @property
    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(j for j in range(self.n) if (m >> j) & 1)

    def is_hermitian(self) -> bool:
        # (X^x Z^z)^dag = (-1)^{|x&z|} X^x Z^z, so P^dag = i^{-k}(-1)^{|x&z|} ...
        return (2 * self.k + 2 * _popcount(self.x & self.z)) % 4 == 0

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot multiply strings on {self.n} and {other.n} qubits"
            )
        # Z^z1 X^x2 = (-1)^{|z1 & x2|} X^x2 Z^z1
        k = self.k + other.k + 2 * _popcount(self.z & other.x)
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, k)

    def adjoint(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, -self.k + 2 * _popcount(self.x & self.z))

    def commutes(self, other: "PauliString") -> bool:
        """True iff the dense matrices commute (symplectic-form parity test)."""
        if self.n != other.n:
            raise DimensionMismatchError(
                f"cannot compare strings on {self.n} and {other.n} qubits"
            )
        return (_popcount(self.x & other.z) + _popcount(self.z & other.x)) % 2 == 0

    def square_phase(self) -> complex:
        """P * P = square_phase * I; always +1 or -1."""
        return _PHASE_VALUES[(2 * self.k + 2 * _popcount(self.x & self.z)) % 4]

    # -- dense realization ----------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Exact 2^n x 2^n complex matrix (little-endian qubit ordering)."""
        return PauliSum.from_string(self).to_dense()

    def to_sparse(self):
        """CSR realization; one nonzero per column, up to SPARSE_LIMIT qubits."""
        from scipy import sparse

        _check_limit(self.n, SPARSE_LIMIT, "sparse")
        dim = 1 << self.n
        rows, vals = self._column_entries()
        return sparse.csr_matrix((vals, (rows, np.arange(dim))), shape=(dim, dim))

    def _column_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Row index and value of the one nonzero in each column."""
        cols = np.arange(1 << self.n, dtype=np.int64)
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & self.z) & 1).astype(np.float64)
        return cols ^ self.x, self.phase * signs

    # -- misc -----------------------------------------------------------------

    @property
    def label(self) -> str:
        """Text form with display phase, Y letters shown as plain Y."""
        n_y = _popcount(self.x & self.z)
        return f"{_PHASE_TOKENS[(self.k - n_y) % 4]} {self.letters}"

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


class PauliSum:
    """Weighted sum of Pauli strings with duplicate terms merged.

    Internally every string is canonicalized to phase exponent 0 and the
    i**k phase is absorbed into a complex coefficient, so merging is a plain
    dictionary update keyed on the (x, z) masks.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Iterable[tuple[complex, PauliString]] = ()):
        self.n = n
        self._terms: dict[tuple[int, int], complex] = {}
        for coeff, string in terms:
            self._add(coeff, string)

    def _add(self, coeff: complex, string: PauliString) -> None:
        if string.n != self.n:
            raise DimensionMismatchError(
                f"term on {string.n} qubits in a sum on {self.n} qubits"
            )
        if not cmath.isfinite(coeff):
            raise ParameterError("coefficients must be finite")
        key = (string.x, string.z)
        self._terms[key] = self._terms.get(key, 0.0) + complex(coeff) * string.phase

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n)

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "PauliSum":
        return cls(string.n, [(coeff, string)])

    @property
    def terms(self) -> list[tuple[complex, PauliString]]:
        """Merged terms as (coefficient, phase-0 string) pairs."""
        return [
            (c, PauliString(self.n, x, z, 0))
            for (x, z), c in sorted(self._terms.items())
            if c != 0
        ]

    def simplify(self) -> "PauliSum":
        out = PauliSum(self.n)
        scale = max((abs(c) for c in self._terms.values()), default=0.0)
        for (x, z), c in self._terms.items():
            if abs(c) > SIMPLIFY_TOL * max(scale, 1.0):
                out._terms[(x, z)] = c
        return out

    def __len__(self) -> int:
        return sum(1 for c in self._terms.values() if c != 0)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        out = PauliSum(self.n)
        out._terms = dict(self._terms)
        for (x, z), c in other._terms.items():
            out._terms[(x, z)] = out._terms.get((x, z), 0.0) + c
        return out

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * (-1.0))

    def __neg__(self) -> "PauliSum":
        return self * (-1.0)

    def __mul__(self, other):
        if isinstance(other, PauliSum):
            if self.n != other.n:
                raise DimensionMismatchError(f"cannot multiply {self.n}- and {other.n}-qubit sums")
            # X^x1 Z^z1 X^x2 Z^z2 = (-1)^{|z1 & x2|} X^(x1^x2) Z^(z1^z2), summed in term order
            out = PauliSum(self.n)
            left, right = ([(x, z, c) for (x, z), c in sorted(s._terms.items()) if c != 0]
                           for s in (self, other))
            for x1, z1, c1 in left:
                for x2, z2, c2 in right:
                    sign = _PHASE_VALUES[2 * (z1 & x2).bit_count() % 4]
                    key = (x1 ^ x2, z1 ^ z2)
                    out._terms[key] = out._terms.get(key, 0.0) + c1 * c2 * sign
            if not all(map(cmath.isfinite, out._terms.values())):
                raise ParameterError("coefficients must be finite")
            return out
        other = complex(other)
        if not cmath.isfinite(other):
            raise ParameterError("coefficients must be finite")
        out = PauliSum(self.n)
        for (x, z), c in self._terms.items():
            out._terms[(x, z)] = c * other
        return out

    __rmul__ = __mul__

    def adjoint(self) -> "PauliSum":
        # (X^x Z^z)^dag = Z^z X^x = (-1)^{|x & z|} X^x Z^z
        out = PauliSum(self.n)
        out._terms = {(x, z): complex(c).conjugate() * _PHASE_VALUES[2 * (x & z).bit_count() % 4]
                      for (x, z), c in self._terms.items()}
        return out

    def is_hermitian(self) -> bool:
        diff = self - self.adjoint()
        return all(abs(c) <= HERMITIAN_TOL for c, _ in diff.terms)

    def to_dense(self) -> np.ndarray:
        """Each term's entries added in term order (no SciPy)."""
        _check_limit(self.n, DENSE_LIMIT, "dense")
        out, cols = np.zeros((1 << self.n,) * 2, complex), np.arange(1 << self.n)
        for c, s in self.terms:
            rows, vals = s._column_entries()
            out[rows, cols] += c * vals
        return out

    toarray = to_dense  # the sparse-matrix name, for callers holding either kind of operator

    def to_sparse(self):
        """CSR realization assembled from every term's entries at once."""
        from scipy import sparse

        _check_limit(self.n, SPARSE_LIMIT, "sparse")
        dim = 1 << self.n
        terms = self.terms
        if not terms:
            return sparse.csr_matrix((dim, dim), dtype=complex)
        entries = [s._column_entries() for _, s in terms]
        rows = np.concatenate([r for r, _ in entries])
        vals = np.concatenate([c * v for (c, _), (_, v) in zip(terms, entries)])
        cols = np.tile(np.arange(dim), len(terms))
        out = sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
        out.eliminate_zeros()  # terms that cancel leave no stored zeros
        return out

    def norm_coeffs(self) -> float:
        """Sum of absolute coefficients (an upper bound on the operator norm)."""
        return float(sum(abs(c) for c in self._terms.values()))

    def __repr__(self) -> str:
        inner = " + ".join(f"({c:.6g})*{s.letters}" for c, s in self.terms[:6])
        more = "" if len(self) <= 6 else f" + ... [{len(self)} terms]"
        return f"PauliSum({inner}{more})"


def projector_product(
    stabilizers: Sequence[PauliString], signs: Sequence[int]
) -> PauliSum:
    """Symbolic expansion of prod_h (I + sign_h * h) / 2 as a PauliSum.

    The stabilizers must be Hermitian involutions for the result to be an
    orthogonal projector; callers enforce that.
    """
    if not stabilizers:
        raise ParameterError("need at least one stabilizer")
    n = stabilizers[0].n
    out = PauliSum(n, [(1.0, PauliString.identity(n))])
    for h, s in zip(stabilizers, signs):
        factor = PauliSum(n, [(0.5, PauliString.identity(n)), (0.5 * s, h)])
        out = out * factor
    return out
