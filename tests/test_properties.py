"""Property tests on random commuting stabilizer Hamiltonians (2-4 qubits)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stabtherm.bath import davies_reduction  # noqa: E402
from stabtherm.lindblad import build_superoperator, gibbs_state, steady_states, vec  # noqa: E402
from stabtherm.pauli import PauliString  # noqa: E402
from stabtherm.toric import (  # noqa: E402
    StabilizerHamiltonian,
    StabilizerTerm,
    eigenoperator_decomposition,
)
from stabtherm.verify import commutant_dimension  # noqa: E402

from oracles import commutant_nullity  # noqa: E402


def _gf2_rank(vectors):
    pivots = {}  # leading bit -> row
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


@st.composite
def stabilizer_hamiltonians(draw):
    """Random Pauli strings with random signs, kept greedily while they
    commute with those kept and stay independent over GF(2); a signed Pauli
    string squares to +I (StabilizerHamiltonian checks it)."""
    n = draw(st.integers(2, 4))
    candidates = draw(st.lists(
        st.tuples(st.text("IXYZ", min_size=n, max_size=n), st.sampled_from(["+1", "-1"]),
                  st.floats(0.5, 1.5)),
        min_size=1, max_size=8))
    kept, terms = [], []
    for letters, sign, coupling in candidates:
        s = PauliString.from_letters(letters, sign)
        symplectic = [p.x << n | p.z for p in kept + [s]]
        if all(s.commutes(p) for p in kept) and _gf2_rank(symplectic) == len(kept) + 1:
            kept.append(s)
            terms.append(StabilizerTerm(coupling, s))
    if not terms:
        terms = [StabilizerTerm(1.0, PauliString.from_letters("Z" * n))]
    return StabilizerHamiltonian(n, tuple(terms))


def _davies(H, beta, gamma0=0.5):
    decomps = [eigenoperator_decomposition(H, j, a) for j in range(H.n_qubits) for a in ("x", "z")]
    return davies_reduction(H, decomps, beta, gamma0)


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_davies_gibbs_state_is_stationary(H, beta):
    L = build_superoperator(_davies(H, beta))
    rho = gibbs_state(H.to_dense(), beta).mat
    assert np.linalg.norm(L @ vec(rho)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_block_kernel_matches_dense_svd(H, beta):
    gen = _davies(H, beta)
    s = np.linalg.svd(build_superoperator(gen).toarray(), compute_uv=False)
    assert steady_states(gen).kernel_dim == np.sum(s < 1e-9 * s[0])


@settings(max_examples=25, deadline=None)
@given(H=stabilizer_hamiltonians(), beta=st.floats(0.0, 1.0))
def test_commutant_block_nullity_matches_dense_oracle(H, beta):
    ops = [H.as_sum().to_sparse()] + [j.op for j in _davies(H, beta).jumps]
    d = 1 << H.n_qubits
    count, _, diag = commutant_dimension(ops, d, max_dim=d * d)
    assert count == diag["nullity"] == commutant_nullity(ops)
