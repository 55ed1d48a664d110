"""Property tests on random inputs drawn by hypothesis (see conftest.py for
the profile they run under)."""

import random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from quiverz import exactmat
from quiverz.exactmat import (
    ExactMatrix,
    FieldSpec,
    _chains,
    _jordan_flat,
    _random_invertible_pair,
    _rref,
    identity,
    inverse,
    jordan_type,
    kernel_basis,
    mul,
    rank,
    solve,
)
from quiverz.partitions import Partition, add, dominates, dual, partitions_of_weight
from quiverz.quiverrep import _backward_types
from quiverz.verify import _pair_types

from oracles import (
    _chain_order,
    flag_conjugate,
    jordan_type_by_power_ranks,
    leading_blocks,
    pair_types_by_normal_form,
    rref_by_rows,
)


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
    permutation was built with, or None with a cycle, as the ranks of its
    powers do; _chain_order orders every index exactly when there is no
    cycle."""
    n, entries, typ = case
    assert _chains(entries, n) is not None
    assert _jordan_flat(entries, n, p) == typ
    assert jordan_type_by_power_ranks(ExactMatrix(n, n, entries, FieldSpec(p))) == (typ is not None, typ)
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


@st.composite
def invertible_systems(draw):
    """(g, C): g uniformly random invertible of size 0 to 20 over F_2, F_3
    or F_32003, and C with g's rows and 0 to 4 columns of drawn entries."""
    n = draw(st.integers(0, 20))
    field = FieldSpec(draw(st.sampled_from([2, 3, 32003])))
    g, _ = _random_invertible_pair(n, field, random.Random(draw(st.integers(0, 2**32 - 1))))
    k = draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(0, field.p - 1), min_size=n * k, max_size=n * k))
    return g, ExactMatrix(n, k, entries, field)


@hypothesis.given(invertible_systems())
def test_solve_of_invertible_is_inverse_times_rhs(case):
    """For invertible M, the unique X with M X = C is M^-1 C."""
    g, C = case
    assert solve(g, C) == mul(inverse(g), C)


@st.composite
def rectangular_partial_permutations(draw):
    """(field, rows, cols, flat rows x cols 0/1 partial permutation, its
    count of ones): the k ones pair the first k of a shuffle of the rows
    with the first k of a shuffle of the columns."""
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    k = draw(st.integers(0, min(rows, cols)))
    rs = draw(st.permutations(range(rows)))[:k]
    cs = draw(st.permutations(range(cols)))[:k]
    entries = [0] * (rows * cols)
    for r, c in zip(rs, cs):
        entries[r * cols + c] = 1
    return FieldSpec(draw(st.sampled_from([2, 3, 32003]))), rows, cols, entries, k


@hypothesis.given(rectangular_partial_permutations())
def test_rank_of_partial_permutation_counts_ones(case):
    """The rank of a 0/1 partial permutation, square or not, is its count of
    ones: rank finds it by one rank echelon (_echelon) and no _rref, as for
    any other matrix, and _rref finds it too."""
    field, rows, cols, entries, ones = case
    M = ExactMatrix(rows, cols, entries, field)
    with mock.patch.object(exactmat, "_rref", wraps=exactmat._rref) as spy, mock.patch.object(
        exactmat, "_echelon", wraps=exactmat._echelon
    ) as echelon:
        assert rank(M) == ones
    assert (spy.call_count, echelon.call_count) == (0, 1)
    assert len(_rref(M.to_rows(), field.p)[0]) == ones


@st.composite
def near_misses(draw):
    """A 0/1 partial permutation with at least one one, spoiled: one of its
    ones made 2 (over F_3 or F_32003), or a second one put in the row or in
    the column of one of its ones."""
    field, rows, cols, entries, ones = draw(rectangular_partial_permutations().filter(lambda c: c[4]))
    at = draw(st.sampled_from([i for i, v in enumerate(entries) if v]))
    r, c = divmod(at, cols)
    kind = draw(st.sampled_from(["two", "row", "column"]))
    if kind == "two":
        field = FieldSpec(draw(st.sampled_from([3, 32003])))
        entries[at] = 2
    elif kind == "row":
        hypothesis.assume(cols > 1)
        entries[r * cols + draw(st.sampled_from([j for j in range(cols) if j != c]))] = 1
    else:
        hypothesis.assume(rows > 1)
        entries[draw(st.sampled_from([i for i in range(rows) if i != r])) * cols + c] = 1
    return ExactMatrix(rows, cols, entries, field)


@hypothesis.given(near_misses())
def test_rank_of_near_miss_eliminates(M):
    """A matrix that is not a 0/1 partial permutation by one entry falls
    through to one elimination, a rank echelon (_echelon) and no _rref, and
    gets the rank of the list-loop oracle."""
    assert exactmat._partial_permutation(M.entries, M.rows, M.cols) is None
    with mock.patch.object(exactmat, "_rref", wraps=exactmat._rref) as spy, mock.patch.object(
        exactmat, "_echelon", wraps=exactmat._echelon
    ) as echelon:
        got = rank(M)
    assert (spy.call_count, echelon.call_count) == (0, 1)
    assert got == len(rref_by_rows(M.to_rows(), M.field.p))


@st.composite
def small_matrices(draw):
    """A matrix of up to 8 x 8 entries over F_2, F_3 or F_32003, its entries
    drawn from {0, 1, 2} or from the whole field."""
    field = FieldSpec(draw(st.sampled_from([2, 3, 32003])))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    top = draw(st.sampled_from([min(2, field.p - 1), field.p - 1]))
    entries = draw(st.lists(st.integers(0, top), min_size=rows * cols, max_size=rows * cols))
    return ExactMatrix(rows, cols, entries, field)


@hypothesis.given(st.one_of(small_matrices(), rectangular_partial_permutations().map(
    lambda c: ExactMatrix(c[1], c[2], c[3], c[0]))))
def test_rank_plus_nullity_is_column_count(M):
    """rank and the columns of kernel_basis add up to the column count, and
    the kernel basis is killed by M and independent."""
    K = kernel_basis(M)
    assert rank(M) + K.cols == M.cols
    assert mul(M, K).is_zero()
    assert rank(K) == K.cols


@st.composite
def flag_lowering_nilpotents(draw):
    """(p, d, flat n x n nilpotent N) for d strictly monotone with last entry
    n: N is g T g^-1 for T that lowers the coordinate flag of d, its
    entries in the lowering pattern drawn from {0, 1} or from the whole
    field, and g block upper triangular along d (flag_conjugate) or g = 1.
    So N lowers the coordinate flag of d, and with g = 1 it may be a 0/1
    partial permutation."""
    p = draw(st.sampled_from([2, 3, 32003]))
    field = FieldSpec(p)
    n = draw(st.integers(1, 10))
    d = tuple(sorted(set(draw(st.lists(st.integers(1, n), max_size=4))) | {n}))
    top = draw(st.sampled_from([1, p - 1]))
    T = [0] * (n * n)
    for low, hi in zip((0,) + d, d):
        for c in range(low, hi):
            for r in range(low):
                T[r * n + c] = draw(st.integers(0, top))
    if not draw(st.booleans()):
        return p, d, T
    return p, d, flag_conjugate(T, d, field, random.Random(draw(st.integers(0, 2**32 - 1))))


@hypothesis.given(flag_lowering_nilpotents())
def test_prefix_types_match_power_ranks_of_leading_blocks(case):
    """The types read off the leading blocks of a flag-lowering N
    (_backward_types), at every entry n_i of d, are those of N restricted
    to E_{n_i} by the ranks of the powers of its leading block."""
    p, d, entries = case
    n = d[-1]
    field = FieldSpec(p)
    expect = []
    for k in d:
        block = ExactMatrix(k, k, [entries[r * n + c] for r in range(k) for c in range(k)], field)
        nilpotent, typ = jordan_type_by_power_ranks(block)
        assert nilpotent
        expect.append(typ)
    assert _backward_types(leading_blocks(entries, d), d, p, d) == expect


@st.composite
def partition_pairs(draw):
    """Two partitions of one weight up to 12."""
    n = draw(st.integers(0, 12))
    both = list(partitions_of_weight(n))
    return draw(st.sampled_from(both)), draw(st.sampled_from(both))


@hypothesis.given(partition_pairs())
def test_dual_is_an_involution_reversing_dominance(pair):
    x, y = pair
    assert dual(dual(x)) == x
    assert dual(x).weight == x.weight
    assert dominates(x, y) == dominates(dual(y), dual(x))


@hypothesis.given(partition_pairs(), st.integers(0, 4))
def test_add_is_monotone_when_it_adds_a_column(pair, extra):
    """add(., a) keeps x dominating y when a is at least len(x), the row
    count of the larger one: then it adds a whole column of height a."""
    x, y = pair
    hypothesis.assume(dominates(x, y) or dominates(y, x))
    if not dominates(x, y):
        x, y = y, x
    a = len(x) + extra
    assert dominates(add(x, a), add(y, a))


def _normal_form_pairs(n: int, a: int, p: int) -> int:
    """The pairs pair_types_by_normal_form visits: per rank r, every value of
    B outside its last (n - r) x (n + a - r) block."""
    m = n + a
    return sum(p ** (n * m - (n - r) * (m - r)) for r in range(min(n, m) + 1))


@hypothesis.settings(max_examples=30)
@hypothesis.given(st.integers(0, 4), st.integers(0, 8), st.sampled_from([2, 3]))
def test_pair_type_classes_match_normal_form_oracle(n, a, p):
    """The class quotient of _pair_types reaches the key set of the loop
    over every normal-form pair, on sizes whose loop visits at most 3^10
    pairs."""
    hypothesis.assume(_normal_form_pairs(n, a, p) <= 3**10)
    assert set(_pair_types(n, a, p, budget=p ** (2 * n * (n + a)))) == set(pair_types_by_normal_form(n, a, p))
