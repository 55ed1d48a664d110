import itertools
import pickle
import random

import pytest

from quiverz.abdiagrams import (
    ABDiagram,
    ABRow,
    _numbered_pair,
    _placement,
    _row,
    _row_sort_key,
    build_pair,
    enumerate_b_parts,
    max_diagram,
    random_diagram,
)
from quiverz.exactmat import FieldSpec, jordan_type, mul
from quiverz.partitions import Partition, add, dominates
from quiverz.verify import ab_step_report, pair_type_table

from oracles import longest_first, max_b_part, numbered_pair_two_pass, partitions_up_to_weight

F = FieldSpec()


def P(*parts):
    return Partition(parts)


# --- rows ---------------------------------------------------------------------


def test_row_strings_round_trip():
    for word in ("a", "ab", "ba", "bab", "aba", "babab", "b"):
        assert ABRow.parse(word).to_string() == word


def test_row_counts():
    assert ABRow.parse("babab").b_count == 3
    assert ABRow.parse("babab").a_count == 2
    assert ABRow.parse("a").b_count == 0
    assert ABRow.parse("b").b_count == 1
    assert ABRow.parse("aba").length == 3


def test_row_validation():
    for bad in ("", "aa", "bb", "abb", "x", "aBa"):
        with pytest.raises(ValueError):
            ABRow.parse(bad)
    with pytest.raises(ValueError):
        ABRow(0, False, False)
    with pytest.raises(ValueError):
        ABRow(-1)
    for bad in ((0,), (0, True, True), (0, False, True), (-2, True, False)):
        with pytest.raises(ValueError):
            ABRow(*bad)


def test_row_value_semantics():
    """ABRow is a frozen value: two rows are equal exactly when they are of
    the same class with the same fields, equal rows hash alike, and a row
    survives pickle and refuses assignment."""

    class Subrow(ABRow):
        __slots__ = ()

    rows = [ABRow(0, True), ABRow(1), ABRow(1, True), ABRow(1, False, True), ABRow(2, True, True)]
    for x, y in itertools.product(rows, repeat=2):
        assert (x == y) == (x is y) and (x != y) == (x is not y)
    for x in rows:
        twin = ABRow(x.a_count, x.leading_b, x.trailing_b)
        assert twin == x and hash(twin) == hash(x)
        assert pickle.loads(pickle.dumps(x)) == x
        assert Subrow(x.a_count, x.leading_b, x.trailing_b) != x
        assert x != (x.a_count, x.leading_b, x.trailing_b)
    assert len({ABRow(2), ABRow(2, False, False), ABRow(2, True)}) == 2
    assert repr(ABRow(1, True)) == "ABRow(a_count=1, leading_b=True, trailing_b=False)"
    with pytest.raises(AttributeError):
        rows[1].a_count = 3
    with pytest.raises(AttributeError):
        del rows[1].leading_b
    assert rows[1] == ABRow(1)


# --- diagrams -------------------------------------------------------------------


def test_diagram_parts():
    d = ABDiagram.from_strings(["babab", "bab", "a"])
    assert d.a_part == P(2, 1, 1)
    assert d.b_part == P(3, 2)
    assert d.total_a == 4
    assert d.total_b == 5
    assert d.to_strings() == ["babab", "bab", "a"]  # canonical order, longest first


def test_diagram_row_order_is_canonical():
    d1 = ABDiagram.from_strings(["a", "bab", "babab"])
    d2 = ABDiagram.from_strings(["babab", "a", "bab"])
    assert d1 == d2
    assert hash(d1) == hash(d2)


def test_row_sort_key_orders_as_the_string_key():
    """_row_sort_key, which ends on leading_b, orders every pair of rows
    with at most 8 a's as the key that ended on the row's string did, and
    ties exactly the equal rows."""
    rows = [ABRow(0, True, False)] + [
        ABRow(a, lead, trail) for a in range(1, 9) for lead in (False, True) for trail in (False, True)
    ]

    def by_string(row):
        return (-row.length, -row.a_count, row.to_string())

    for x, y in itertools.product(rows, repeat=2):
        assert (_row_sort_key(x) < _row_sort_key(y)) == (by_string(x) < by_string(y)), (x, y)
        assert (_row_sort_key(x) == _row_sort_key(y)) == (x == y), (x, y)


# --- enumeration -----------------------------------------------------------------


def test_enumerate_examples():
    assert enumerate_b_parts(P(1), 1) == {P(2), P(1, 1)}
    assert enumerate_b_parts(Partition(), 0) == {Partition()}
    assert enumerate_b_parts(Partition(), 2) == {P(1, 1)}
    got = enumerate_b_parts(P(2, 1, 1), 1)
    assert P(3, 2) in got
    assert all(dominates(P(3, 2), q) for q in got)


def test_enumerate_witnesses():
    found = enumerate_b_parts(P(2, 1, 1), 1, witnesses=True)
    assert set(found) == enumerate_b_parts(P(2, 1, 1), 1)
    for b_part, delta in found.items():
        assert delta.a_part == P(2, 1, 1)
        assert delta.b_part == b_part
        assert delta.total_b == P(2, 1, 1).weight + 1


def _witnesses_by_product_loop(eta, a):
    """The plain witness loop: every end-placement in 3^s product order, a
    single end b leading, the first diagram of each b-part kept."""
    found = {}
    for jvec in itertools.product((0, 1, 2), repeat=len(eta)):
        if sum(jvec) <= len(eta) + a:
            rows = [ABRow(p, j > 0, j == 2) for p, j in zip(eta.parts, jvec)]
            rows += [ABRow(0, True, False)] * (len(eta) + a - sum(jvec))
            delta = ABDiagram(rows)
            found.setdefault(delta.b_part, delta)
    return found


def test_enumerate_matches_product_loop_oracle():
    """The placement table gives the witnesses of the plain loop, in its
    order, and the set form is their key set."""
    for eta in partitions_up_to_weight(8):
        for a in range(5):
            found = enumerate_b_parts(eta, a, witnesses=True)
            assert list(found.items()) == list(_witnesses_by_product_loop(eta, a).items()), (eta, a)
            assert enumerate_b_parts(eta, a) == set(found), (eta, a)


def test_enumerate_against_exhaustive_pairs():
    """Matrix-side oracle: over F_2 enumerate every pair (A, B) and bucket
    Jordan types; for each nilpotent a-type the set of AB-types must equal
    the placement enumeration."""
    for n, a in ((1, 1), (1, 2), (2, 0), (2, 1)):
        table = pair_type_table(n, a, p=2)
        for eta in partitions_up_to_weight(n):
            if eta.weight != n:
                continue
            expected = {q.parts for q in enumerate_b_parts(eta, a)}
            assert table.get(eta.parts, set()) == expected, (n, a, eta)


def test_pair_types_field_independent():
    """Same instances over F_3: the reachable (a-type, b-type) sets match the
    F_2 ones, so no small-characteristic artifact at these sizes."""
    for n, a in ((1, 1), (1, 2), (2, 0)):
        t2 = pair_type_table(n, a, p=2)
        t3 = pair_type_table(n, a, p=3)
        assert {k: v for k, v in t2.items()} == {k: v for k, v in t3.items()}, (n, a)


def test_pair_types_field_independent_largest_instance():
    t2 = pair_type_table(2, 1, p=2)
    t3 = pair_type_table(2, 1, p=3)
    assert {k: v for k, v in t2.items()} == {k: v for k, v in t3.items()}


def _assert_table_matches_placements(n, a, p, budget):
    table = pair_type_table(n, a, p=p, budget=budget)
    assert set(table) == {eta.parts for eta in partitions_up_to_weight(n) if eta.weight == n}
    for eta in partitions_up_to_weight(n):
        if eta.weight == n:
            expected = {q.parts for q in enumerate_b_parts(eta, a)}
            assert table[eta.parts] == expected, (n, a, p, eta)


def test_pair_types_match_placements_beyond_brute_force():
    """Kraft and Procesi's pair step, checked by matrices on instances the
    class quotient makes feasible: (3,1) over F_2 stands for 2^24 pairs,
    (2,2) over F_3 for 3^16, (3,1) over F_3 for 3^24 and (5,1) over F_2 for
    2^60."""
    for n, a, p in ((3, 1, 2), (2, 2, 3), (4, 1, 2), (3, 1, 3), (4, 2, 2), (5, 1, 2)):
        budget = p ** (2 * n * (n + a))
        _assert_table_matches_placements(n, a, p, budget)
        assert ab_step_report(n, a, p=p, budget=budget).passed, (n, a, p)


def test_pair_types_match_placements_largest_instance():
    """(3,2) over F_2, standing for 2^30 pairs."""
    _assert_table_matches_placements(3, 2, 2, 2**30)


# --- maxima -----------------------------------------------------------------------


def test_max_b_part_examples():
    assert max_b_part(P(1), 1) == P(2)
    assert max_b_part(P(2, 1, 1), 1) == P(3, 2)
    assert max_b_part(P(1, 1, 1, 1, 1), 3) == P(2, 2, 2, 2)
    assert max_b_part(P(2, 2), 0) == add(P(2, 2), 0) == P(3, 1)


def test_max_b_part_matches_add():
    for eta in partitions_up_to_weight(8):
        for a in range(5):
            b_parts = enumerate_b_parts(eta, a)
            top = max_b_part(eta, a)
            assert top == add(eta, a)
            assert all(dominates(top, q) for q in b_parts)


def test_max_diagram_reproduces_row_example():
    delta = max_diagram(P(2, 1, 1), 1)
    assert delta.to_strings() == ["babab", "bab", "a"]
    assert max_diagram(P(1), 3).to_strings() == ["bab", "b", "b"]


def test_letter_conservation():
    for eta in partitions_up_to_weight(6):
        for a in range(4):
            for b_part, delta in enumerate_b_parts(eta, a, witnesses=True).items():
                assert delta.total_b == eta.weight + a
                assert delta.total_a == eta.weight
                assert delta.a_part == eta


def test_random_diagram_is_valid():
    rng = random.Random(0)
    for _ in range(50):
        eta = P(3, 2, 2, 1)
        a = rng.randrange(4)
        delta = random_diagram(eta, a, rng)
        assert delta.a_part == eta
        assert delta.total_b == eta.weight + a
        assert delta.b_part in enumerate_b_parts(eta, a)


def _fields(delta):
    rows = [(row.a_count, row.leading_b, row.trailing_b) for row in delta.rows]
    return rows, delta.a_part.parts, delta.b_part.parts, delta.total_a, delta.total_b


def test_placement_matches_checked_diagram():
    """_placement, built in canonical order from its row keys without the
    checks of ABDiagram, equals ABDiagram of the rows it places in rows,
    parts and totals, for every eta of weight <= 7, a <= 3 and placement
    jvec; the leads run over every vector on the rows with one end b (the
    only rows a lead places) and are random on the rest.  So do the
    diagrams of max_diagram, random_diagram and the witnesses, against
    ABDiagram of their rows reversed; and rows of one shape are one object."""
    rng = random.Random(5)
    for eta in partitions_up_to_weight(7):
        s = len(eta)
        for a in range(4):
            for jvec in itertools.product((0, 1, 2), repeat=s):
                if sum(jvec) > s + a:
                    continue
                ones = [i for i in range(s) if jvec[i] == 1]
                leads = [rng.random() < 0.5 for _ in range(s)]
                for lone in itertools.product((True, False), repeat=len(ones)):
                    for i, lead in zip(ones, lone):
                        leads[i] = lead
                    rows = [
                        ABRow(p, j == 2 or (j == 1 and lead), j == 2 or (j == 1 and not lead))
                        for p, j, lead in zip(eta.parts, jvec, leads)
                    ]
                    rows += [ABRow(0, True, False)] * (s + a - sum(jvec))
                    got = _placement(eta, a, jvec, leads)
                    assert _fields(got) == _fields(ABDiagram(rows)), (eta, a, jvec, leads)
            outputs = [max_diagram(eta, a)] + list(enumerate_b_parts(eta, a, witnesses=True).values())
            outputs += [random_diagram(eta, a, random.Random(seed)) for seed in range(50)]
            for delta in outputs:
                assert _fields(delta) == _fields(ABDiagram(delta.rows[::-1])), (eta, a, delta)
                assert all(row is _row(_row_sort_key(row)) for row in delta.rows)


def _every_placement(max_weight, max_a):
    """(eta, a, jvec, leads) for every distinct placement (_placement) of
    every eta of weight at most max_weight and a <= max_a: per part value,
    every multiset of row kinds (no end b, one leading, one trailing, two).
    Rows with equal parts and kinds are the same row, so nothing repeats."""
    kinds = ((0, True), (1, True), (1, False), (2, True))
    for eta in partitions_up_to_weight(max_weight):
        groups = [len(list(g)) for _, g in itertools.groupby(eta.parts)]
        choices = [itertools.combinations_with_replacement(kinds, m) for m in groups]
        for pick in itertools.product(*choices):
            row_kinds = [kind for group in pick for kind in group]
            jvec = [j for j, _ in row_kinds]
            leads = [lead for _, lead in row_kinds]
            for a in range(max_a + 1):
                if sum(jvec) <= len(eta) + a:
                    yield eta, a, jvec, leads


def test_placement_a_counts_never_increase():
    """In the canonical row order the a-counts never increase, on every
    placement of weight at most 8 with a <= 4, so the a-rows of a diagram
    come longest first as they stand: _numbered_pair relies on it.  On each
    of them its numbering gives the maps of the numbering that sorted the
    a-rows and numbered each row letter by letter
    (oracles.numbered_pair_two_pass), and the b-row starts of its
    longest-first b-rows."""
    count = 0
    for eta, a, jvec, leads in _every_placement(8, 4):
        delta = _placement(eta, a, jvec, leads)
        a_counts = [row.a_count for row in delta.rows]
        assert a_counts == sorted(a_counts, reverse=True), delta
        A, B, starts = _numbered_pair(delta)
        A2, B2, b_rows = numbered_pair_two_pass(delta)
        assert (A, B) == (A2, B2), delta
        assert starts == [b_rows[r].start for r in longest_first(b_rows)], delta
        count += 1
    assert count == 20652  # as many distinct diagrams as the 538130 placements of the 3^s jvec and leads give


# --- matrix pairs ------------------------------------------------------------------


def test_build_pair_smallest_chain():
    A, B = build_pair(ABDiagram.from_strings(["ab"]), F)
    assert A.to_rows() == [[1]]
    assert B.to_rows() == [[0]]
    assert mul(B, A).is_zero()
    assert jordan_type(mul(B, A)) == P(1)
    assert jordan_type(mul(A, B)) == P(1)


def test_build_pair_row_example():
    delta = ABDiagram.from_strings(["babab", "bab", "a"])
    A, B = build_pair(delta, F)
    assert jordan_type(mul(B, A)) == P(2, 1, 1)
    assert jordan_type(mul(A, B)) == P(3, 2)


def test_build_pair_single_long_row():
    A, B = build_pair(ABDiagram.from_strings(["abab"]), F)
    assert jordan_type(mul(B, A)) == P(2)
    assert jordan_type(mul(A, B)) == P(2)


def test_build_pair_types_match_parts():
    for field in (FieldSpec(2), F):
        for eta in partitions_up_to_weight(6):
            for a in range(3):
                for b_part, delta in enumerate_b_parts(eta, a, witnesses=True).items():
                    A, B = build_pair(delta, field)
                    assert jordan_type(mul(B, A)) == delta.a_part
                    assert jordan_type(mul(A, B)) == delta.b_part == b_part
