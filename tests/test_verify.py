import json

import pytest

from quiverz.partitions import Partition, dominates, partitions_of_weight

from quiverz.verify import (
    BudgetExceeded,
    ab_step_report,
    derive_rng,
    pair_type_table,
    reducible_report,
    stability_report,
    strictly_monotone_vectors,
    suite_report,
    theta_image_report,
)


def test_derive_rng_is_stable():
    a = derive_rng(7, "x", (1, 2)).random()
    b = derive_rng(7, "x", (1, 2)).random()
    c = derive_rng(7, "x", (1, 3)).random()
    assert a == b
    assert a != c


def test_strictly_monotone_vectors():
    vectors = strictly_monotone_vectors(4)
    assert (1, 2, 3, 4) in vectors
    assert (1, 3) in vectors
    assert all(len(v) >= 2 and all(x < y for x, y in zip(v, v[1:])) for v in vectors)
    assert len(vectors) == 2**4 - 1 - 4


def test_ab_step_hand_enumerable():
    report = ab_step_report(1, 1, p=2)
    assert report.passed
    assert report.size == 16
    inst = report.instances[0]
    assert inst["eta"] == [1]
    assert inst["expected_max"] == [2]
    assert sorted(map(tuple, inst["reachable"])) == [(1, 1), (2,)]


def test_ab_step_all_acceptance_instances():
    for n, a in ((1, 1), (1, 2), (2, 0), (2, 1)):
        report = ab_step_report(n, a, p=2)
        assert report.passed, (n, a)
        assert report.size <= 10**4


def test_pair_type_table_agrees_with_ab_step():
    """Both drivers read one pair enumeration: the AB-types reachable from
    BA-types dominated by eta are the same in the table and in the report."""
    for n, a, p in ((1, 2, 2), (2, 0, 3)):
        table = pair_type_table(n, a, p=p)
        report = ab_step_report(n, a, p=p)
        assert report.passed
        for eta, inst in zip(partitions_of_weight(n), report.instances):
            reachable = set()
            for ta, tbs in table.items():
                if dominates(eta, Partition(ta)):
                    reachable |= tbs
            assert sorted(reachable, reverse=True) == [tuple(tb) for tb in inst["reachable"]]


def test_ab_step_budget_guard():
    with pytest.raises(BudgetExceeded):
        ab_step_report(3, 3, p=2, budget=1000)


def test_theta_image_sweep_small():
    report = theta_image_report(max_last=5, trials=2, seed=3)
    assert report.passed
    assert len(report.instances) == 2**5 - 1 - 5
    assert report.counterexample is None


def test_theta_image_jobs_do_not_change_output():
    one = theta_image_report(max_last=4, trials=2, seed=5, jobs=1)
    four = theta_image_report(max_last=4, trials=2, seed=5, jobs=4)
    assert one.to_json_dict() == four.to_json_dict()


def test_stability_smallest():
    report = stability_report(dims_list=((1, 2),))
    assert report.passed
    inst = report.instances[0]
    assert inst["tuples"] == 16
    assert inst["variety_points"] == 10
    assert inst["stable_points"] == 6


def test_stability_budget_guard():
    with pytest.raises(BudgetExceeded):
        stability_report(dims_list=((2, 3, 4),), budget=1000)


def test_reducible_report():
    report = reducible_report(seed=0)
    assert report.passed
    payload = report.instances[0]["report"]
    assert payload["lambda"] == [3, 2]
    assert payload["mu"] == [3, 1, 1]
    assert payload["verdict"] == "reducible"


def test_suite_deterministic_bytes():
    one = json.dumps(suite_report(seed=11, max_last=4, trials=1), sort_keys=True)
    two = json.dumps(suite_report(seed=11, max_last=4, trials=1), sort_keys=True)
    jobs = json.dumps(
        suite_report(seed=11, max_last=4, trials=1, jobs=3), sort_keys=True
    )
    assert one == two == jobs
    assert json.loads(one)["pass"]
