"""Property tests on random inputs drawn by hypothesis (see conftest.py for
the profile they run under)."""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quiverz.exactmat import ExactMatrix, FieldSpec, _chains, _jordan_flat, _random_invertible_pair, identity, jordan_type, mul
from quiverz.partitions import Partition
from quiverz.quiverrep import _chain_order


@st.composite
def partial_permutations(draw):
    """(n, flat n x n 0/1 partial permutation, its Jordan type or None): an
    order of 0..n-1 cut into segments, each a chain or, closed up, a cycle."""
    n = draw(st.integers(1, 40))
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    segments = [[order[0]]]
    for cut, c in zip(cuts, order[1:]):
        if cut:
            segments.append([])
        segments[-1].append(c)
    closed = draw(st.lists(st.booleans(), min_size=len(segments), max_size=len(segments)))
    entries = [0] * (n * n)
    for segment, cycle in zip(segments, closed):
        for c, r in zip(segment, segment[1:] + segment[:1] if cycle else segment[1:]):
            entries[r * n + c] = 1
    typ = None if any(closed) else Partition(sorted(map(len, segments), reverse=True))
    return n, entries, typ


@hypothesis.given(partial_permutations(), st.sampled_from([2, 3, 32003]))
def test_chain_branch_matches_elimination_on_partial_permutations(case, p):
    """The chain branch of _jordan_flat gives the type the partial
    permutation was built with, or None with a cycle, as the elimination
    (the branch with kernels) does; _chain_order orders every index exactly
    when there is no cycle."""
    n, entries, typ = case
    assert _chains(entries, n) is not None
    assert _jordan_flat(entries, n, p) == typ
    assert _jordan_flat(entries, n, p, kernels=[]) == typ
    order = _chain_order(entries, n)
    assert (order is None) == (typ is None)
    if order is not None:
        assert sorted(order) == list(range(n))


@st.composite
def conjugation_cases(draw):
    """(field, g and g^-1 from _random_invertible_pair, a nilpotent N): N is
    strictly upper triangular with entries drawn over F_p, so its type
    ranges from the zero matrix's to one Jordan block."""
    n = draw(st.integers(0, 20))
    field = FieldSpec(draw(st.sampled_from([2, 3, 32003])))
    g, ginv = _random_invertible_pair(n, field, random.Random(draw(st.integers(0, 2**32 - 1))))
    entries = draw(st.lists(st.integers(0, field.p - 1), min_size=n * n, max_size=n * n))
    for i in range(n):
        entries[i * n : i * n + i + 1] = [0] * (i + 1)
    return field, g, ginv, ExactMatrix(n, n, entries, field)


@hypothesis.given(conjugation_cases())
def test_random_invertible_pair_inverts_and_conjugates(case):
    """The pair's second matrix, from the in-place inversion, is g^-1 on both
    sides, and conjugating a nilpotent N by it keeps the Jordan type."""
    field, g, ginv, N = case
    assert mul(g, ginv) == identity(g.rows, field) == mul(ginv, g)
    assert jordan_type(mul(mul(g, N), ginv)) == jordan_type(N)
