import itertools
import pickle
import random

import pytest

from quiverz.abdiagrams import ABDiagram
from quiverz.exactmat import FieldSpec
from quiverz.partitions import (
    KRAFT_PROCESI,
    MONOTONE_ONLY,
    NOT_MONOTONE,
    DimVecClass,
    Partition,
    add,
    as_dim_vector,
    cartan_slack,
    classify,
    dominates,
    dual,
    is_strictly_monotone,
    mu_of,
    n_vector,
    parse_dim_vector,
    partitions_of_weight,
    render_young,
    theta_image,
    theta_image_max,
    zss_density_obstruction,
)
from quiverz.quiverrep import QuiverRep, sample_stable

from oracles import partitions_up_to_weight, theta_image_max_by_strata


def P(*parts):
    return Partition(parts)


# --- independent oracles -----------------------------------------------------


def transpose_boxes(eta):
    """Transpose the Young diagram literally, box by box."""
    boxes = {(r, c) for r, p in enumerate(eta.parts) for c in range(p)}
    flipped = {}
    for r, c in boxes:
        flipped[c] = flipped.get(c, 0) + 1
    return Partition(sorted(flipped.values(), reverse=True))


def column_truncation_volumes(eta):
    """Delete the first column repeatedly and record the volumes."""
    volumes = []
    parts = list(eta.parts)
    while parts:
        volumes.append(sum(parts))
        parts = [p - 1 for p in parts if p > 1]
    return tuple(reversed(volumes))


def slack_by_cartan_matrix(d):
    """Compute w - Cv with an explicitly constructed type-A Cartan matrix."""
    t = len(d)
    size = t - 1
    C = [[0] * size for _ in range(size)]
    for i in range(size):
        C[i][i] = 2
        if i > 0:
            C[i][i - 1] = -1
        if i + 1 < size:
            C[i][i + 1] = -1
    v = d[:-1]
    w = [0] * (size - 1) + [d[-1]]
    return tuple(w[i] - sum(C[i][j] * v[j] for j in range(size)) for i in range(size))


# --- Partition basics --------------------------------------------------------


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    assert Partition().weight == 0
    assert P(5, 3, 3, 1).weight == 12


def test_partition_refuses_non_integral_parts():
    """Parts go through operator.index: ints and bools are taken, and a
    float or a string raises ValueError instead of being truncated, as
    Partition([2.7, 1]) was (2, 1)."""
    assert Partition([True, 1]) == P(1, 1) and Partition([True]).to_list() == [1]
    for bad in ([2.7, 1], [2.0, 1], ["2", 1], [2, None]):
        with pytest.raises(ValueError, match="integers"):
            Partition(bad)


def test_partition_parse_and_repr():
    assert Partition.parse("5,3,3,1") == P(5, 3, 3, 1)
    assert Partition.parse("") == Partition()
    assert Partition.parse(" 2,1 ") == P(2, 1)
    with pytest.raises(ValueError):
        Partition.parse("2,x")
    assert P(2, 1).to_list() == [2, 1]


def test_checked_constructors_still_refuse_what_sorted_trusts():
    """Partition._sorted takes its callers' sorted positive tuples
    unchecked; Partition(...) and Partition.parse still refuse unsorted,
    zero and negative parts, and the unchecked partitions of dual and of
    ABDiagram equal checked ones."""
    for bad in ((1, 2), (2, 1, 3), (3, 0), (0,), (-1,), (2, -1)):
        with pytest.raises(ValueError):
            Partition(bad)
        with pytest.raises(ValueError):
            Partition.parse(",".join(map(str, bad)))
    assert Partition._sorted((3, 1, 1)) == Partition((3, 1, 1))
    for eta in partitions_up_to_weight(7):
        assert dual(eta) == Partition(dual(eta).parts)
        assert type(dual(eta).parts) is tuple
    delta = ABDiagram.from_strings(["abab", "ba", "b", "a"])
    assert (delta.a_part, delta.b_part) == (Partition((2, 1, 1)), Partition((2, 1, 1)))
    assert type(delta.a_part.parts) is type(delta.b_part.parts) is tuple


def test_partition_counts():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, expected in enumerate(known):
        assert sum(1 for _ in partitions_of_weight(n)) == expected


# --- dual --------------------------------------------------------------------


def test_dual_examples():
    assert dual(P(5, 3, 3, 1)) == P(4, 3, 3, 1, 1)
    assert dual(Partition()) == Partition()
    assert dual(P(3, 1, 1)) == transpose_boxes(P(3, 1, 1)) == P(3, 1, 1)


def test_dual_involution_and_box_transpose():
    for eta in partitions_up_to_weight(12):
        assert dual(dual(eta)) == eta
        assert dual(eta) == transpose_boxes(eta)


# --- dominance ---------------------------------------------------------------


def test_dominates_examples():
    assert dominates(P(3, 2), P(3, 1, 1))  # prefix sums 3,5,5 vs 3,4,5
    assert dominates(P(2, 2), P(2, 2))
    assert not dominates(P(4, 1, 1), P(3, 3))
    assert not dominates(P(3, 3), P(4, 1, 1))


def test_dominates_weight_mismatch():
    with pytest.raises(ValueError, match="incomparable"):
        dominates(P(2, 1), P(2, 2))


def test_dominates_matches_padded_prefix_sums():
    """dominates, which zips the prefix sums and stops at the shorter
    partition, agrees with the loop that pads the shorter one with zeros
    and compares every prefix sum, on every pair of partitions of equal
    weight up to 10."""
    count = 0
    for w in range(11):
        parts = list(partitions_of_weight(w))
        for x, y in itertools.product(parts, parts):
            se = sn = 0
            padded = True
            for i in range(max(len(x), len(y))):
                se += x.parts[i] if i < len(x) else 0
                sn += y.parts[i] if i < len(y) else 0
                padded = padded and se >= sn
            assert dominates(x, y) == padded, (x, y)
            count += 1
    assert count == sum(len(list(partitions_of_weight(w))) ** 2 for w in range(11))


def test_dominates_is_partial_order():
    for w in range(9):
        parts = list(partitions_of_weight(w))
        for x, y in itertools.product(parts, parts):
            if dominates(x, y) and dominates(y, x):
                assert x == y
        for x, y, z in itertools.product(parts, parts, parts):
            if dominates(x, y) and dominates(y, z):
                assert dominates(x, z)


# --- add ---------------------------------------------------------------------


def test_add_display_row():
    assert add(P(2, 1, 1), 1) == P(3, 2)
    assert add(P(2, 1, 1), 2) == P(3, 2, 1)
    assert add(P(2, 1, 1), 3) == P(3, 2, 2)


def test_add_examples():
    assert add(P(1), 3) == P(2, 1, 1)
    assert add(P(2, 1), 4) == P(3, 2, 1, 1)  # new-column branch
    # Frozen from the placement enumeration (see test_abdiagrams).
    assert add(P(2, 2), 0) == P(3, 1)
    assert add(Partition(), 0) == Partition()
    assert add(Partition(), 3) == P(1, 1, 1)
    with pytest.raises(ValueError):
        add(P(2), -1)


def test_add_weight_identity():
    for eta in partitions_up_to_weight(10):
        for a in range(7):
            assert add(eta, a).weight == eta.weight + a


def test_add_monotonicity_boundary():
    """add is dominance-monotone up to weight 5 but provably not beyond.

    The smallest violations: (2,2,2) dominates (2,2,1,1) yet adding 0 boxes
    gives the incomparable (3,2,1) vs the strictly larger (3,3); with a
    strictly positive box count, (2,2,2,2) dominates (2,2,2,1,1) yet adding
    one box gives (3,3,2,1), strictly below (3,3,3).  Both right-hand values
    are certified as the exact per-orbit maxima by the placement enumeration
    (see test_abdiagrams), so the failure is intrinsic."""
    for w in range(6):
        parts = list(partitions_of_weight(w))
        for x, y in itertools.product(parts, parts):
            if not dominates(x, y):
                continue
            for a in range(5):
                assert dominates(add(x, a), add(y, a))
    assert dominates(P(2, 2, 2), P(2, 2, 1, 1))
    assert add(P(2, 2, 2), 0) == P(3, 2, 1)
    assert add(P(2, 2, 1, 1), 0) == P(3, 3)
    assert not dominates(add(P(2, 2, 2), 0), add(P(2, 2, 1, 1), 0))
    assert dominates(P(2, 2, 2, 2), P(2, 2, 2, 1, 1))
    assert add(P(2, 2, 2, 2), 1) == P(3, 3, 2, 1)
    assert add(P(2, 2, 2, 1, 1), 1) == P(3, 3, 3)
    assert dominates(P(3, 3, 3), P(3, 3, 2, 1))  # reversed, strictly


# --- n_vector / classify -----------------------------------------------------


def test_n_vector_examples():
    assert n_vector(P(5, 3, 3, 1)) == (1, 2, 5, 8, 12)
    assert n_vector(P(1)) == (1,)
    assert n_vector(P(2, 2)) == column_truncation_volumes(P(2, 2)) == (2, 4)
    with pytest.raises(ValueError):
        n_vector(Partition())


def test_n_vector_matches_column_truncation():
    for eta in partitions_up_to_weight(9):
        if eta:
            assert n_vector(eta) == column_truncation_volumes(eta)


def test_classify_examples():
    got = classify((1, 2, 5, 8, 12))
    assert got.tag == KRAFT_PROCESI and got.eta == P(5, 3, 3, 1)
    assert classify((1, 4, 5)).tag == MONOTONE_ONLY
    assert classify((2, 2, 3)).tag == NOT_MONOTONE
    assert classify((5,)) == classify((5,))  # t = 1 is well-defined
    assert classify((5,)).eta == P(1, 1, 1, 1, 1)


def test_dim_vec_class_value_semantics():
    """DimVecClass is a frozen value: equal exactly when of the same class
    with the same tag and eta, hashed alike when equal, and it survives
    pickle and refuses assignment."""

    class Subclass(DimVecClass):
        __slots__ = ()

    got = [classify(d) for d in ((1, 2, 5, 8, 12), (1, 2, 3), (1, 4, 5), (2, 2, 3))]
    for x, y in itertools.product(got, repeat=2):
        assert (x == y) == (x is y)
    for x in got:
        twin = DimVecClass(x.tag, x.eta)
        assert twin == x and hash(twin) == hash(x)
        assert pickle.loads(pickle.dumps(x)) == x
        assert Subclass(x.tag, x.eta) != x and x != (x.tag, x.eta)
    assert classify((1, 4, 5)) == DimVecClass(MONOTONE_ONLY) == DimVecClass(MONOTONE_ONLY, None)
    assert DimVecClass(KRAFT_PROCESI, P(2, 1)) != DimVecClass(KRAFT_PROCESI, P(3))
    assert len({classify((1, 4, 5)), classify((1, 5, 6)), classify((2, 2, 3))}) == 2
    assert repr(got[0]) == "DimVecClass(tag='kraft_procesi', eta=Partition([5, 3, 3, 1]))"
    with pytest.raises(AttributeError):
        got[0].tag = NOT_MONOTONE


def test_classify_round_trip():
    for eta in partitions_up_to_weight(8):
        if not eta:
            continue
        d = n_vector(eta)
        got = classify(d)
        assert got.tag == KRAFT_PROCESI
        assert got.eta == eta
        assert n_vector(got.eta) == d


# --- cartan_slack ------------------------------------------------------------


def test_cartan_slack_examples():
    assert cartan_slack((1, 2, 5, 8, 12)) == slack_by_cartan_matrix((1, 2, 5, 8, 12)) == (0, 2, 0, 1)
    assert cartan_slack((1, 4, 5)) == slack_by_cartan_matrix((1, 4, 5)) == (2, -2)
    assert cartan_slack((1, 2)) == (0,)
    with pytest.raises(ValueError):
        cartan_slack((3,))


def test_cartan_slack_matches_inequalities():
    for r in range(1, 13):
        for d in itertools.combinations(range(1, 13), r):
            if len(d) < 2:
                continue
            slack = cartan_slack(d)
            assert slack == slack_by_cartan_matrix(d)
            diffs = [d[0]] + [d[i + 1] - d[i] for i in range(len(d) - 1)]
            holds = all(diffs[i] <= diffs[i + 1] for i in range(len(diffs) - 1))
            assert (min(slack) >= 0) == holds


# --- mu / theta image / obstruction ------------------------------------------


def test_mu_examples():
    assert mu_of((1, 4, 5)) == P(3, 1, 1)
    assert mu_of((1, 2, 5, 8, 12)) == P(5, 3, 3, 1)
    assert mu_of((1, 2)) == P(2)
    with pytest.raises(ValueError):
        mu_of((2, 2))


def test_theta_image_examples():
    assert theta_image((1, 4, 5)) == P(3, 2)
    assert theta_image((1, 2, 5, 8, 12)) == P(5, 3, 3, 1)
    assert theta_image((1, 2, 5, 8, 12)) == classify((1, 2, 5, 8, 12)).eta
    assert theta_image((2, 2)) == P(2)  # weakly monotone step of 0
    assert theta_image((3,)) == P(1, 1, 1)
    with pytest.raises(ValueError):
        theta_image((2, 1))


def test_image_round_trip():
    for eta in partitions_up_to_weight(8):
        if not eta:
            continue
        d = n_vector(eta)
        assert theta_image(d) == eta
        assert mu_of(d) == eta


def test_image_dominates_stable_type():
    for r in range(1, 11):
        for d in itertools.combinations(range(1, 11), r):
            assert dominates(theta_image(d), mu_of(d))


def test_theta_image_max_examples():
    """M(d) where it exceeds lambda = theta_image(d), and where the two meet."""
    for d, top, lam in (
        ((4, 8, 9), P(3, 3, 3), P(3, 3, 2, 1)),
        ((1, 5, 9, 10), P(4, 3, 3), P(4, 3, 2, 1)),
        ((2, 6, 10, 11), P(4, 4, 3), P(4, 4, 2, 1)),
    ):
        assert theta_image_max(d) == top and theta_image(d) == lam
    assert theta_image_max((1, 4, 5)) == theta_image((1, 4, 5)) == P(3, 2)
    assert theta_image_max((1, 2, 5, 8, 12)) == classify((1, 2, 5, 8, 12)).eta
    assert theta_image_max((3,)) == P(1, 1, 1)
    for bad in ((2, 2), (2, 1), ()):
        with pytest.raises(ValueError):
            theta_image_max(bad)


def test_theta_image_max_matches_strata_oracle():
    """The convex minorant gives the largest mu_of over every stratum vector
    (theta_image_max_by_strata) on all 2036 strictly monotone vectors with
    last entry <= 11.  M(d) dominates lambda and mu; it exceeds lambda on 21
    of them, each with last entry >= 9, so a sweep through --max-last 8
    keeps its bytes; and it differs from mu exactly where lambda does, so
    no reducibility verdict changes."""
    above = []
    for r in range(2, 12):
        for d in itertools.combinations(range(1, 12), r):
            top, lam, mu = theta_image_max(d), theta_image(d), mu_of(d)
            assert top == theta_image_max_by_strata(d), d
            assert dominates(top, lam) and dominates(top, mu), d
            assert (top != mu) == (lam != mu), d
            if top != lam:
                above.append(d)
    assert len(above) == 21 and min(d[-1] for d in above) == 9
    assert (4, 8, 9) in above and (1, 5, 9, 10) in above


def test_obstruction_examples():
    assert zss_density_obstruction((1, 4, 5)) == "reducible"
    assert zss_density_obstruction((1, 2, 5, 8, 12)) == "no_obstruction"
    assert zss_density_obstruction((1, 2)) == "no_obstruction"
    with pytest.raises(ValueError):
        zss_density_obstruction((2, 2))


# --- rendering / dim vector helpers ------------------------------------------


def test_render_young():
    assert render_young(P(2, 1)) == "[][]\n[]"
    assert render_young(Partition()) == ""
    lines = render_young(P(5, 3, 3, 1)).split("\n")
    assert [len(line) // 2 for line in lines] == [5, 3, 3, 1]


def test_dim_vector_refuses_non_integral_entries():
    """as_dim_vector takes entries through operator.index, so a witness
    document whose dims hold a float or a string is refused by
    QuiverRep.from_json_dict, which read [1.9, ...] as [1, ...]."""
    assert as_dim_vector([True, 2]) == (1, 2)
    for bad in ([1.9, 4, 5], [1, "4", 5], [1, 4.0, 5]):
        with pytest.raises(ValueError, match="integers"):
            as_dim_vector(bad)
    doc = sample_stable((1, 4, 5), FieldSpec(5), random.Random(0)).to_json_dict()
    assert QuiverRep.from_json_dict(doc).to_json_dict() == doc
    doc["dims"][0] = 1.9
    with pytest.raises(ValueError, match="integers"):
        QuiverRep.from_json_dict(doc)


def test_dim_vector_helpers():
    assert as_dim_vector([1, 4, 5]) == (1, 4, 5)
    assert parse_dim_vector("1,4,5") == (1, 4, 5)
    assert is_strictly_monotone((1, 4, 5))
    assert not is_strictly_monotone((2, 2))
    with pytest.raises(ValueError):
        as_dim_vector([])
    with pytest.raises(ValueError):
        as_dim_vector([1, 0])
    with pytest.raises(ValueError):
        parse_dim_vector("1,a")
