"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
with its elapsed time and asserting the stated budget.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 6 checks
dominance monotonicity of the box-adding operation over every comparable pair
of weight <= 8 and a <= 4: add(., a) is monotone whenever it adds a column
(a >= rows of the larger partition), and every failure outside that case is
certified against the placement enumeration as a genuine one (see also
test_partitions.test_add_monotonicity_boundary).
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

import pytest

from quiverz.abdiagrams import enumerate_b_parts
from quiverz.cli import main as cli_main
from quiverz.exactmat import FieldSpec, is_injective, jordan_type
from quiverz.partitions import (
    KRAFT_PROCESI,
    Partition,
    add,
    cartan_slack,
    classify,
    dominates,
    dual,
    mu_of,
    n_vector,
    partitions_of_weight,
    theta_image,
    zss_density_obstruction,
)
from quiverz.quiverrep import (
    QuiverRep,
    act,
    alpha,
    build_from_chain,
    check_relations,
    from_flag_point,
    greedy_chain,
    is_stable,
    is_stable_subspace_criterion,
    nilpotency_degrees,
    random_chain,
    sample_stable,
    theta,
    witness_reducible,
)
from quiverz.verify import ab_step_report, derive_rng

from oracles import max_b_part, partitions_up_to_weight, random_group_element, sample_flag_point

FIELD = FieldSpec(32003)


def P(*parts):
    return Partition(parts)


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"ACCEPTANCE {number:>2} {status} {label} ({elapsed:.3f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def test_criterion_01_exact_combinatorics():
    with criterion(1, "exact combinatorics", 0.001):
        assert dual(P(5, 3, 3, 1)) == P(4, 3, 3, 1, 1)
        assert n_vector(P(5, 3, 3, 1)) == (1, 2, 5, 8, 12)
        assert add(P(2, 1, 1), 1) == P(3, 2)
        assert add(P(2, 1, 1), 2) == P(3, 2, 1)
        assert add(P(2, 1, 1), 3) == P(3, 2, 2)
        assert add(P(1), 3) == P(2, 1, 1)


def test_criterion_02_reducibility_example():
    with criterion(2, "reducibility example end-to-end", 1.0):
        d = (1, 4, 5)
        assert theta_image(d) == P(3, 2)
        assert mu_of(d) == P(3, 1, 1)
        assert zss_density_obstruction(d) == "reducible"
        report = witness_reducible(d, FIELD, derive_rng(0, "acceptance-2"))
        assert report.verdict == "reducible"
        z1 = QuiverRep.from_json_dict(report.witnesses[0]["rep"])
        z2 = QuiverRep.from_json_dict(report.witnesses[1]["rep"])
        assert check_relations(z1)
        assert jordan_type(theta(z1)) == P(3, 2)
        assert not is_injective(z1.A[1])
        assert is_stable(z2)
        assert jordan_type(theta(z2)) == P(3, 1, 1)


def test_criterion_03_round_trip():
    with criterion(3, "column-volume round trip, weight <= 8", 1.0):
        count = 0
        for eta in partitions_up_to_weight(8):
            if not eta:
                continue
            d = n_vector(eta)
            got = classify(d)
            assert got.tag == KRAFT_PROCESI and got.eta == eta
            assert theta_image(d) == eta
            assert mu_of(d) == eta
            count += 1
        assert count == 66


def test_criterion_04_exhaustive_pair_step():
    with criterion(4, "exhaustive pair-step oracle over F_2", 10.0):
        for n, a in ((1, 1), (1, 2), (2, 0), (2, 1)):
            report = ab_step_report(n, a, p=2)
            assert report.size <= 10**4
            assert report.passed, (n, a, report.counterexample)


def test_criterion_05_combinatorial_step():
    with criterion(5, "placement maxima, weight <= 10, a <= 6", 5.0):
        for eta in partitions_up_to_weight(10):
            for a in range(7):
                top = max_b_part(eta, a)
                assert top == add(eta, a)
                assert all(dominates(top, q) for q in enumerate_b_parts(eta, a))


def test_criterion_06_add_monotonicity():
    """add(., a) preserves dominance x >= y whenever a >= len(x).

    Then add(x, a) is x plus a first column of height a, so its k-th prefix
    sum is X_k + k for k <= a and the full weight after that.  add(y, a)
    grows each row by at most one box, so its k-th prefix sum is at most
    Y_k + k <= X_k + k, and never above the full weight.  For a < len(x) the
    statement is false, first at weight 6: (2,2,2,2) dominates (2,2,2,1,1)
    but one added box yields (3,3,2,1) vs (3,3,3).  Each such failure is
    certified against the placement enumeration: add(y, a) is realised by a
    diagram with a-part y, and no b-part realisable from x dominates it."""
    with criterion(6, "dominance monotonicity of add when a column is added", 5.0):
        failures = []
        for w in range(9):
            parts = list(partitions_of_weight(w))
            for x, y in itertools.product(parts, parts):
                if not dominates(x, y):
                    continue
                for a in range(5):
                    top_x, top_y = add(x, a), add(y, a)
                    if a >= len(x):
                        assert dominates(top_x, top_y), (x.parts, y.parts, a)
                    elif not dominates(top_x, top_y):
                        failures.append((x.parts, y.parts, a))
                        realised = enumerate_b_parts(y, a, witnesses=True)
                        assert top_y in realised, (y.parts, a)
                        assert realised[top_y].a_part == y, (y.parts, a)
                        assert not any(
                            dominates(q, top_y) for q in enumerate_b_parts(x, a)
                        ), (x.parts, y.parts, a)
        assert ((2, 2, 2, 2), (2, 2, 2, 1, 1), 1) in failures


def test_criterion_07_slack_equivalence():
    with criterion(7, "slack nonnegativity matches the inequalities", 1.0):
        for r in range(2, 13):
            for d in itertools.combinations(range(1, 13), r):
                diffs = [d[0]] + [d[i + 1] - d[i] for i in range(len(d) - 1)]
                holds = all(diffs[i] <= diffs[i + 1] for i in range(len(diffs) - 1))
                assert (min(cartan_slack(d)) >= 0) == holds


def _produced_points(d, count, seed):
    """count points from each generator on dimension vector d."""
    points = []
    for k in range(count):
        points.append(("stable", sample_stable(d, FIELD, derive_rng(seed, "s", d, k))))
    for k in range(count):
        x = sample_flag_point(d, FIELD, derive_rng(seed, "f", d, k))
        points.append(("flag", from_flag_point(x)))
    for k in range(count):
        chain = random_chain(d, derive_rng(seed, "c", d, k))
        points.append(("chain", build_from_chain(chain, FIELD)))
    return points


def test_criterion_08_relations_and_nilpotency():
    with criterion(8, "relations and nilpotency on produced points", 5.0):
        for d in ((1, 4, 5), (1, 2, 5, 8, 12)):
            for kind, z in _produced_points(d, 100, seed=8):
                assert check_relations(z), (d, kind)
                assert nilpotency_degrees(z), (d, kind)


def test_criterion_09_theta_invariance_and_bounds():
    with criterion(9, "theta invariance and dominance bounds", 30.0):
        for d in ((1, 4, 5), (1, 2, 5, 8, 12)):
            lam = theta_image(d)
            mu = mu_of(d)
            z = sample_stable(d, FIELD, derive_rng(9, "base", d))
            th = theta(z)
            for k in range(100):
                h = random_group_element(d, FIELD, derive_rng(9, "h", d, k), fix_last=True)
                assert theta(act(h, z)) == th
            generic = 0
            for k in range(100):
                zs = sample_stable(d, FIELD, derive_rng(9, "sample", d, k))
                ts = jordan_type(theta(zs))
                assert dominates(mu, ts)
                if ts == mu:
                    generic += 1
            assert generic >= 95, (d, generic)
            for k in range(20):
                zc = build_from_chain(random_chain(d, derive_rng(9, "chain", d, k)), FIELD)
                assert dominates(lam, jordan_type(theta(zc)))


def test_criterion_10_alpha_round_trip():
    with criterion(10, "flag round trip", 5.0):
        from quiverz.exactmat import hstack, rank

        d = (1, 4, 5)
        for k in range(50):
            x = sample_flag_point(d, FIELD, derive_rng(10, d, k))
            z = from_flag_point(x)
            back = alpha(z)
            assert back.endo == x.endo
            for got, want in zip(back.flag, x.flag):
                assert got.cols == want.cols
                assert rank(hstack(got, want)) == want.cols
        unstable = build_from_chain(greedy_chain(d), FIELD)
        with pytest.raises(ValueError):
            alpha(unstable)


def test_criterion_11_stability_oracle():
    with criterion(11, "stability vs exhaustive subspace criterion over F_2", 60.0):
        from quiverz.verify import stability_report

        report = stability_report(dims_list=((1, 2), (1, 2, 3)))
        assert report.passed, report.counterexample
        assert [i["dims"] for i in report.instances] == [[1, 2], [1, 2, 3]]


def test_criterion_12_determinism(capsys):
    with criterion(12, "byte-identical verification suite", 30.0):
        argv = ["--json", "verify", "all", "--seed", "12", "--max-last", "5", "--trials", "2"]
        outputs = []
        for extra in ([], [], ["--jobs", "4"]):
            code = cli_main(argv + extra)
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["pass"] is True
