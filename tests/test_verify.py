import ast
import functools
import itertools
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from quiverz import abdiagrams, cli, exactmat, partitions, quiverrep, verify
from quiverz.exactmat import (
    CertificateError,
    ExactMatrix,
    FieldSpec,
    canonical_nilpotent,
    conjugator,
    inverse,
    jordan_basis,
    jordan_type,
    mul,
    rank,
)
from quiverz.partitions import Partition, dominates, partitions_of_weight
from quiverz.quiverrep import is_stable

from quiverz.verify import (
    SUITE_AB_STEP_INSTANCES,
    BudgetExceeded,
    _enumerate_z_points,
    _pair_types,
    _rank_count,
    ab_step_report,
    derive_rng,
    pair_type_table,
    reducible_report,
    stability_report,
    strictly_monotone_vectors,
    suite_report,
    theta_image_report,
)

from oracles import (
    pair_types_by_brute_force,
    pair_types_by_normal_form,
    pair_types_over_every_b,
    random_invertible,
    z_points_by_brute_force,
    z_points_by_filter,
)
import oracles


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


@pytest.mark.parametrize("max_last", [1, 0, -3])
def test_theta_image_refuses_empty_sweep(max_last):
    """Below 2 no strictly monotone vector of length >= 2 is swept; such a
    sweep is refused, in the report and in the suite, where it used to pass
    with size 0."""
    message = f"max_last must be at least 2 for a nonempty sweep, got {max_last}"
    with pytest.raises(ValueError) as exc:
        theta_image_report(max_last=max_last)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        suite_report(max_last=max_last)
    assert str(exc.value) == message


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


# --- the forked workers of --jobs -----------------------------------------------------


def _pid(k):
    return k, os.getpid()


@pytest.mark.parametrize(
    "jobs, tasks, cores, workers",
    [(100000, 5, 64, 5), (100000, 50, 3, 3), (2, 50, 64, 2), (4, 1, 64, None), (1, 50, 64, None), (4, 50, None, None)],
)
def test_pool_workers_bounded_by_jobs_tasks_and_cores(monkeypatch, jobs, tasks, cores, workers):
    """min(jobs, tasks, cores) workers, counted as the distinct pids that ran
    a task, and below two none: the tasks run in the calling process."""
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    results = verify._map_jobs([functools.partial(_pid, k) for k in range(tasks)], jobs)
    assert [k for k, _ in results] == list(range(tasks))
    pids = {pid for _, pid in results}
    if workers is None:
        assert pids <= {os.getpid()}
    else:
        assert len(pids) == workers and os.getpid() not in pids


def test_pool_tasks_pickle(monkeypatch):
    """The workers hold the tasks through the fork, so only the results
    cross a process boundary: every result of every task suite_report and
    theta_image_report hand to _map_jobs survives pickle, and the pooled
    reports give the serial bytes."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    handed = []
    map_jobs = verify._map_jobs

    def recording(tasks, jobs):
        handed.append(tasks)
        return map_jobs(tasks, jobs)

    monkeypatch.setattr(verify, "_map_jobs", recording)
    suite = suite_report(seed=3, max_last=4, trials=1, jobs=2)
    theta = theta_image_report(max_last=4, trials=1, seed=3, jobs=2)
    vectors = len(strictly_monotone_vectors(4))
    assert [len(tasks) for tasks in handed] == [2 + len(SUITE_AB_STEP_INSTANCES) + vectors, vectors]
    for task in handed[0] + handed[1]:
        result = task()
        assert pickle.loads(pickle.dumps(result)) == result
    assert suite == suite_report(seed=3, max_last=4, trials=1, jobs=1)
    assert theta.to_json_dict() == theta_image_report(max_last=4, trials=1, seed=3).to_json_dict()


_RUN = itertools.count()


def _pid_in_turn(k):
    """(k, pid, n): the n-th task this process ran."""
    return k, os.getpid(), next(_RUN)


@pytest.mark.parametrize("tasks, workers", [(50, 4), (7, 2), (8, 4), (63, 2), (3, 3)])
def test_pool_chunks_are_contiguous_and_bounded(monkeypatch, tasks, workers):
    """The tasks run in contiguous chunks of ceil(tasks / (4 workers)):
    every block of that size runs on one worker, and the first `workers`
    blocks on `workers` different ones, which pins the size.  Each worker
    runs its tasks in task order, as it would chunks handed out in order,
    and the results come back in task order."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    results = verify._map_jobs([functools.partial(_pid_in_turn, k) for k in range(tasks)], workers)
    assert [k for k, _, _ in results] == list(range(tasks))
    size = -(-tasks // (4 * workers))
    blocks = [{pid for _, pid, _ in results[i : i + size]} for i in range(0, tasks, size)]
    assert all(len(block) == 1 for block in blocks)
    assert len(set.union(*blocks[:workers])) == workers
    assert os.getpid() not in set.union(*blocks)
    for pid in set.union(*blocks):
        ran = sorted((n, k) for k, q, n in results if q == pid)
        assert [k for _, k in ran] == sorted(k for _, k in ran)


def _record(k, where, bad=None, held=()):
    """Record that task k ran, and in which process; hold the tasks in held
    for half a second, and raise at bad."""
    (where / str(k)).write_text(str(os.getpid()))
    if k in held:
        time.sleep(0.5)
    if k == bad:
        raise CertificateError(f"task {k}")
    return k


def test_pool_submits_no_chunk_after_one_raises(monkeypatch, tmp_path):
    """Four workers take chunks of 4 of 50 tasks.  The first tasks of
    chunks 1, 2 and 3 hold their workers for half a second, so chunk 0's
    worker finishes first and alone is handed chunk 4, where task 18
    raises: task 19, the rest of its chunk, never runs, chunks 1, 2 and 3
    finish, and no later chunk starts.  The error reaches the caller with
    its type, and no worker held up in a chunk is handed a second one."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    calls = [functools.partial(_record, k, tmp_path, 18, (4, 8, 12)) for k in range(50)]
    with pytest.raises(CertificateError, match="task 18"):
        verify._map_jobs(calls, 4)
    ran = {int(path.name): int(path.read_text()) for path in tmp_path.iterdir()}
    assert sorted(ran) == list(range(19))
    chunks = [{ran[k] for k in range(i, min(i + 4, 19))} for i in range(0, 19, 4)]
    assert all(len(chunk) == 1 for chunk in chunks)
    assert chunks[4] == chunks[0] and len(set.union(*chunks)) == 4


def _exit_worker(k):
    if k == 5:
        os._exit(3)
    return k


class Unpicklable(Exception):
    """Pickles, but does not load: its constructor wants two arguments."""

    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


def _raise_unpicklable(k):
    if k == 5:
        raise Unpicklable("task", k)
    return k


def _raise_holding_a_lambda(k):
    if k == 5:
        raise CertificateError(lambda: k)
    return k


def _return_a_lambda(k):
    return lambda: k


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_leaves_no_process_or_thread_behind(monkeypatch):
    """Every worker is reaped whether _map_jobs returns or raises, also
    when a task ends its worker, which raises RuntimeError, not EOFError or
    BrokenPipeError, and does not hang.  An exception or a result that does
    not pickle arrives as a RuntimeError that names it."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads = threading.active_count()

    def hung(signum, frame):
        raise TimeoutError("_map_jobs hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        assert verify._map_jobs([functools.partial(abs, -k) for k in range(9)], 2) == list(range(9))
        _no_child_left()
        tasks = [functools.partial(abs, -k) for k in range(9)]
        with pytest.raises(CertificateError, match="raised in"):
            verify._map_jobs(tasks[:3] + [functools.partial(_raise_certificate_error, "raised in")] + tasks[4:], 2)
        _no_child_left()
        with pytest.raises(RuntimeError, match="status 3") as info:
            verify._map_jobs([functools.partial(_exit_worker, k) for k in range(9)], 2)
        assert type(info.value) is RuntimeError
        _no_child_left()
        for task, name in ((_raise_unpicklable, "Unpicklable"), (_raise_holding_a_lambda, "CertificateError")):
            with pytest.raises(RuntimeError, match=f"{name} does not pickle") as info:
                verify._map_jobs([functools.partial(task, k) for k in range(9)], 2)
            assert type(info.value) is RuntimeError
            _no_child_left()
        with pytest.raises(RuntimeError, match="do not pickle"):
            verify._map_jobs([functools.partial(_return_a_lambda, k) for k in range(9)], 2)
        _no_child_left()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == threads


def _raise_certificate_error(tag):
    raise CertificateError(f"{tag} {os.getpid()}")


def _mark_after(seconds, path):
    time.sleep(seconds)
    path.touch()


def test_certificate_error_in_worker_reaches_caller(monkeypatch, tmp_path):
    """The error keeps its type across the process boundary, and the tasks
    that had not started when it arrived never run."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    tasks = [functools.partial(_raise_certificate_error, "raised in")]
    tasks += [functools.partial(_mark_after, 0.1, tmp_path / str(k)) for k in range(20)]
    with pytest.raises(CertificateError) as info:
        verify._map_jobs(tasks, 2)
    assert type(info.value) is CertificateError
    tag, pid = str(info.value).rsplit(" ", 1)
    assert tag == "raised in" and int(pid) != os.getpid()
    assert len(list(tmp_path.iterdir())) < 10


def test_suite_same_bytes_at_any_jobs():
    reports = {jobs: json.dumps(suite_report(seed=7, jobs=jobs), sort_keys=True) for jobs in (1, 2, 4)}
    assert reports[1] == reports[2] == reports[4]
    assert json.loads(reports[1])["pass"]


# --- quotient enumerations against brute force ----------------------------------------


def _small_pair_instances():
    """Every (n, a, p) with p^(2n(n+a)) <= 3^8, for n <= 3 and a <= 5."""
    for p in (2, 3):
        for n in range(4):
            for a in range(6):
                if p ** (2 * n * (n + a)) <= 3**8:
                    yield n, a, p


def test_pair_types_match_brute_force_oracle():
    instances = list(_small_pair_instances())
    assert (1, 5, 2) in instances and (2, 1, 2) in instances and (2, 0, 3) in instances
    for n, a, p in instances:
        quotient = _pair_types(n, a, p, budget=3**8)
        assert set(quotient) == set(pair_types_by_brute_force(n, a, p)), (n, a, p)


def _assert_witness_rule(n: int, a: int, p: int, types: dict) -> None:
    """Each witness re-derives its key and follows the class rule: A is
    [[I_r, 0], [0, 0]], B11 the canonical nilpotent of its own type, B21 an
    RREF basis of its row space U as its first rows, B12 an RREF basis of
    its column space V as its first columns, and B22 and every other row
    and column of B21 and B12 zero."""
    field = FieldSpec(p)
    m = n + a
    for (ta, tb), entries in types.items():
        A = ExactMatrix(m, n, entries[: m * n], field)
        B = ExactMatrix(n, m, entries[m * n :], field)
        assert jordan_type(mul(B, A)) == ta and jordan_type(mul(A, B)) == tb, (n, a, p)
        r = rank(A)
        assert all(A.at(i, j) == int(i == j < r) for i in range(m) for j in range(n)), (n, a, p)
        b11 = ExactMatrix(r, r, [B.at(i, j) for i in range(r) for j in range(r)], field)
        assert b11 == canonical_nilpotent(jordan_type(b11), field), (n, a, p)
        bases = {(S.cols, S.entries) for S in exactmat.all_subspaces(r, field)}
        u = [[B.at(i, j) for j in range(r)] for i in range(r, n)]
        k = sum(map(any, u))
        assert not any(map(any, u[k:])), (n, a, p)
        assert (k, tuple(u[j][c] for c in range(r) for j in range(k))) in bases, (n, a, p)
        v = [[B.at(i, j) for i in range(r)] for j in range(r, m)]
        l = sum(map(any, v))
        assert not any(map(any, v[l:])), (n, a, p)
        assert (l, tuple(v[j][c] for c in range(r) for j in range(l))) in bases, (n, a, p)
        assert not any(B.at(i, j) for i in range(r, n) for j in range(r, m)), (n, a, p)


def test_pair_types_match_every_b_oracle():
    """The class quotient reaches the key set of the loop over every B, on
    each instance whose every-B loop visits at most 3^8 pairs, and each of
    its witnesses follows the class rule."""
    instances = [
        (n, a, p)
        for p in (2, 3)
        for n in range(4)
        for a in range(11)
        if (n + 1) * p ** (n * (n + a)) <= 3**8
    ]
    assert (3, 0, 2) in instances and (2, 1, 3) in instances and (1, 10, 2) in instances
    for n, a, p in instances:
        fast = _pair_types(n, a, p, budget=p ** (2 * n * (n + a)))
        assert set(fast) == set(pair_types_over_every_b(n, a, p)), (n, a, p)
        _assert_witness_rule(n, a, p, fast)


def test_pair_types_match_normal_form_oracle():
    """The class quotient reaches the key set of the loop that types every
    value of B outside its last block, on every small instance and four
    larger ones, and each of its witnesses follows the class rule."""
    for n, a, p in [*_small_pair_instances(), (3, 0, 2), (3, 1, 2), (2, 2, 3), (1, 7, 3)]:
        fast = _pair_types(n, a, p, budget=p ** (2 * n * (n + a)))
        assert set(fast) == set(pair_types_by_normal_form(n, a, p)), (n, a, p)
        _assert_witness_rule(n, a, p, fast)


def _gaussian_binomial(r: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of F_p^r."""
    num = den = 1
    for i in range(k):
        num *= p ** (r - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _class_typings(n: int, a: int, p: int) -> int:
    """Per rank r and partition eta of r: one BA typing per subspace U of
    F_p^r of dimension at most n - r, and one AB typing per subspace V of
    dimension at most n + a - r."""
    total = 0
    for r in range(min(n, n + a) + 1):
        classes = sum(1 for _ in partitions_of_weight(r))
        spaces = [_gaussian_binomial(r, k, p) for k in range(r + 1)]
        total += classes * (sum(spaces[: n - r + 1]) + sum(spaces[: n + a - r + 1]))
    return total


@pytest.mark.parametrize("n, a, p, typings", [(3, 1, 2, 51), (2, 2, 3, 20)])
def test_pair_types_type_each_block_once(monkeypatch, n, a, p, typings):
    """_pair_types makes one Jordan typing per class x_eta and row space of
    B21 or column space of B12: 51 for (3,1) over F_2 and 20 for (2,2) over
    F_3, where the loop over every B11 made 1131 and 844 and the loop over
    every B outside its last block 5986 and 7616."""
    calls = []

    def counting(*args):
        calls.append(1)
        return exactmat._jordan_flat(*args)

    monkeypatch.setattr(verify, "_jordan_flat", counting)
    _pair_types(n, a, p, budget=p ** (2 * n * (n + a)))
    assert len(calls) == _class_typings(n, a, p) == typings


def _named_pair(error: ArithmeticError, n: int, m: int, p: int) -> tuple:
    """The (A, B) whose flat entries end the message of error."""
    entries = ast.literal_eval(str(error).rsplit(": ", 1)[1])
    field = FieldSpec(p)
    return ExactMatrix(m, n, entries[: m * n], field), ExactMatrix(n, m, entries[m * n :], field)


def test_pair_types_refuse_ab_not_nilpotent_although_ba_is(monkeypatch):
    """A Jordan typing that reads every nonzero matrix larger than n x n as
    not nilpotent types every BA but not every AB.  It makes _pair_types
    raise, naming a pair whose BA it types and whose AB is nonzero and
    larger; the normal-form loop raises on such a pair too."""
    n, a, p = 2, 1, 2
    m = n + a

    def wrong(entries, size, p, *rest):
        if size > n and any(entries):
            return None
        return exactmat._jordan_flat(entries, size, p, *rest)

    monkeypatch.setattr(verify, "_jordan_flat", wrong)
    monkeypatch.setattr(oracles, "_jordan_flat", wrong)
    for build in (lambda: _pair_types(n, a, p, budget=p ** (2 * n * m)), lambda: pair_types_by_normal_form(n, a, p)):
        with pytest.raises(ArithmeticError, match="^AB is not nilpotent although BA is: ") as raised:
            build()
        A, B = _named_pair(raised.value, n, m, p)
        assert wrong(mul(B, A).entries, n, p) is not None and any(mul(A, B).entries)


def test_pair_types_refuse_ba_not_nilpotent_although_b11_is(monkeypatch):
    """A Jordan typing that reads every matrix with a nonzero entry below
    the diagonal as not nilpotent refuses the first BA whose B21 is not
    zero.  _pair_types raises, naming a pair whose corner block B11 it
    types and whose BA has such an entry."""
    n, a, p = 2, 1, 3
    m = n + a

    def wrong(entries, size, p, *rest):
        if any(entries[i * size + j] for i in range(size) for j in range(i)):
            return None
        return exactmat._jordan_flat(entries, size, p, *rest)

    monkeypatch.setattr(verify, "_jordan_flat", wrong)
    with pytest.raises(ArithmeticError, match="^BA is not nilpotent although B11 is: ") as raised:
        _pair_types(n, a, p, budget=p ** (2 * n * m))
    A, B = _named_pair(raised.value, n, m, p)
    r = rank(A)
    b11 = [B.at(i, j) for i in range(r) for j in range(r)]
    assert wrong(b11, r, p) is not None and wrong(mul(B, A).entries, n, p) is None


def test_pair_type_witnesses_rederive_their_keys():
    """Each witness is a genuine pair of its own key, with A in rank normal
    form [[I_r, 0], [0, 0]]."""
    for n, a, p in _small_pair_instances():
        field = FieldSpec(p)
        m = n + a
        for (ta, tb), entries in _pair_types(n, a, p, budget=3**8).items():
            A = ExactMatrix(m, n, entries[: m * n], field)
            B = ExactMatrix(n, m, entries[m * n :], field)
            assert jordan_type(mul(B, A)) == ta and jordan_type(mul(A, B)) == tb
            r = rank(A)
            assert all(A.at(i, j) == int(i == j < r) for i in range(m) for j in range(n)), (n, a, p)


def test_rank_count_matches_matrix_count():
    """_rank_count against the ranks of every small matrix."""
    for rows, cols, p in ((1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2), (2, 2, 3), (1, 2, 3)):
        field = FieldSpec(p)
        counts = [0] * (min(rows, cols) + 1)
        for entries in itertools.product(range(p), repeat=rows * cols):
            counts[rank(ExactMatrix(rows, cols, entries, field))] += 1
        assert counts == [_rank_count(rows, cols, r, p) for r in range(len(counts))], (rows, cols, p)


def test_z_points_weighted_counts_match_brute_force():
    """The weighted representatives count the variety and stable points of
    every matrix tuple, and the weights of the normal forms times the
    completions of each make up every tuple."""
    for dims, p in (((1, 2), 2), ((1, 3), 2), ((2, 3), 2), ((1, 2, 3), 2), ((1, 2), 3)):
        field = FieldSpec(p)
        points = z_points_by_brute_force(dims, field)
        weighted = list(_enumerate_z_points(dims, field))
        assert sum(w for w, _ in weighted) == len(points), (dims, p)
        assert sum(w for w, z in weighted if is_stable(z)) == sum(map(is_stable, points)), (dims, p)
        rows, cols = dims[-1], dims[-2]
        cells = sum(2 * x * y for x, y in zip(dims, dims[1:]))
        completions = p ** (cells - rows * cols)
        weights = [_rank_count(rows, cols, r, p) for r in range(min(rows, cols) + 1)]
        assert sum(weights) * completions == p**cells, (dims, p)


def test_failing_ab_step_counterexample_is_recheckable(monkeypatch):
    """A wrong add makes ab-step fail; its counterexample pair, a normal-form
    representative, re-derives the reported BA- and AB-types."""
    monkeypatch.setattr(verify, "add", lambda eta, a: Partition((1,) * (eta.weight + a)))
    report = ab_step_report(2, 1, p=2)
    assert not report.passed
    cex = report.counterexample
    pair = cex["pair"]
    field = FieldSpec(2)
    A = ExactMatrix(3, 2, pair["A_entries"], field)
    B = ExactMatrix(2, 3, pair["B_entries"], field)
    assert jordan_type(mul(B, A)).to_list() == pair["a_type"]
    assert jordan_type(mul(A, B)).to_list() == cex["undominated_b_type"]
    assert dominates(Partition(cex["eta"]), Partition(pair["a_type"]))


def test_each_certificate_is_rechecked_once(monkeypatch):
    """The builders re-check each point once and the callers read their
    results.  _jordan_flat is counted in every quiverz module that imports
    it, and the inversions apart from the eliminations (_rref), though an
    inversion below the packing gate is one elimination of [g | I] too.
    Per instance of (1, 4, 5) over F_32003 with one trial:
    - relations: 3, one check in each of the two build_from_chain calls and
      one in sample_stable, whose pass forms every A_i B_i, theta last, and
      hands them on to type the sample; when the sample was typed by a pass
      of its own this was 4, and re-checking every point in
      nilpotency_degrees made 6;
    - Jordan types: 5, two per chain point, A_1 B_1 and theta, from the
      one relations pass of each point, and one for the stable sample; a
      chain point's nilpotency check reads the b-parts its builder
      certified.  The stable sample's forward maps are checked to be
      coordinate inclusions, so A_1 B_1 is theta restricted to the first 4
      coordinates, and one call types both off theta's powers; typed one
      product at a time, the sample took 2 calls;
    - eliminations: 3, none on a chain point, whose types are read off its
      chains.  The stable sample takes 3, one per power of theta (type
      (3, 1, 1)), whose RREFs give A_1 B_1's ranks as their pivots below 4;
      eliminating A_1 B_1 on its own took 2 more.  Its forward maps are
      read once each, as index maps that must be coordinate inclusions and
      so injective, which also certifies stability; is_stable, which read
      them again, ranked them by counting their ones, and when rank
      eliminated every matrix, that took 2 more;
    - inversions: 0.  The stable sample is the coordinate-flag point of its
      endomorphism, without the random base change, which keeps every check
      of the instance; sampled with it, it took 3 inversions, one per
      vertex, and before those 3 eliminations of [g | I]."""
    counts = {"relations": 0, "jordan": 0, "eliminations": 0, "inversions": 0, "canonical": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(quiverrep, "_point_products", counting("relations", quiverrep._point_products))
    jordan = counting("jordan", exactmat._jordan_flat)
    for module in (exactmat, quiverrep, verify, abdiagrams, partitions, cli):
        if hasattr(module, "_jordan_flat"):
            monkeypatch.setattr(module, "_jordan_flat", jordan)
    monkeypatch.setattr(exactmat, "_rref", counting("eliminations", exactmat._rref))
    monkeypatch.setattr(exactmat, "_inverse_flat", counting("inversions", exactmat._inverse_flat))
    monkeypatch.setattr(exactmat, "canonical_nilpotent", counting("canonical", canonical_nilpotent))

    inst = verify._theta_image_instance((1, 4, 5), 32003, 0, 1)
    assert inst["ok"]
    assert counts == {"relations": 3, "jordan": 5, "eliminations": 3, "inversions": 0, "canonical": 0}

    # The chain witness: one relations check and two types read off its
    # chains; its is_stable ranks 0/1 partial permutations by counting their
    # ones, where eliminating them took 2.  The stable witness: one
    # relations check, 2 ranks of its base-changed forward maps and 3
    # inversions in sample_stable, and the type of its theta (3
    # eliminations) from the products of that check.  The inversions are
    # of sizes 1, 4 and 5, below the packing gate, so each is also one
    # elimination of [g | I]: 8 in all, where the inversion's own list loop
    # made 5.
    counts.update(relations=0, jordan=0, eliminations=0, inversions=0)
    report = quiverrep.witness_reducible((1, 4, 5), FieldSpec(), random.Random(0))
    assert [w["relations"] for w in report.witnesses] == [True, True]
    assert counts == {"relations": 2, "jordan": 3, "eliminations": 8, "inversions": 3, "canonical": 0}

    # conjugator re-checks only its own rank(g) and g N2 == N1 g;
    # jordan_basis re-checks against the canonical form.  A Jordan basis of
    # type (3, 2, 2) takes its type from _jordan_flat, one elimination per
    # power of the conjugated m (3) and none for the partial permutation n,
    # then one elimination per power for ker N^j (3) and one per height for
    # the chain tops (3); when the kernels came from the type pass, each
    # basis took 3.  conjugator adds one inversion for g2^-1, of size 7 and
    # so one elimination of [g2 | I], and each rank(g) one elimination:
    # 6 + 9 + 1 + 1 and 9 + 1, where they took 7 and 4.
    field = FieldSpec()
    n = canonical_nilpotent(Partition((3, 2, 2)), field)
    h = random_invertible(7, field, random.Random(3))
    m = mul(mul(h, n), inverse(h))
    counts.update(relations=0, jordan=0, eliminations=0, inversions=0)
    conjugator(n, m)
    assert counts == {"relations": 0, "jordan": 2, "eliminations": 17, "inversions": 1, "canonical": 0}
    counts.update(jordan=0, eliminations=0, inversions=0)
    jordan_basis(m)
    assert counts == {"relations": 0, "jordan": 1, "eliminations": 10, "inversions": 0, "canonical": 1}

    # nilpotency_degrees reuses the products A_i B_i that its relation check
    # formed and multiplies only theta anew; on a chain point it eliminates
    # nothing.
    z = quiverrep.build_from_chain(quiverrep.greedy_chain((1, 4, 5)), field)
    counts.update(relations=0, jordan=0, eliminations=0, inversions=0, canonical=0, products=0)
    monkeypatch.setattr(quiverrep, "_mul_flat", counting("products", quiverrep._mul_flat))
    monkeypatch.setattr(quiverrep, "mul", counting("products", quiverrep.mul))
    assert quiverrep.nilpotency_degrees(z)
    assert counts == {"relations": 1, "jordan": 2, "eliminations": 0, "inversions": 0, "canonical": 0, "products": 4}


def test_theta_image_reads_each_forward_map_once(monkeypatch):
    """Each forward map of a flag sample is read once, as an index map that
    must be a coordinate inclusion; an inclusion is injective, so that read
    certifies stability too.  For (1, 4, 5) with two samples: 4 reads of the
    2 forward maps of each, and no is_stable and no rank, where is_stable
    ranked each map by a read of its own before the inclusion check."""
    counts = {"reads": 0, "is_stable": 0, "rank": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    monkeypatch.setattr(verify, "_partial_permutation", counting("reads", exactmat._partial_permutation))
    stable = counting("is_stable", quiverrep.is_stable)
    monkeypatch.setattr(quiverrep, "is_stable", stable)
    monkeypatch.setattr(verify, "is_stable", stable)
    ranked = counting("rank", exactmat.rank)
    monkeypatch.setattr(exactmat, "rank", ranked)
    monkeypatch.setattr(quiverrep, "rank", ranked)
    assert verify._theta_image_instance((1, 4, 5), 32003, 0, 2)["ok"]
    assert counts == {"reads": 4, "is_stable": 0, "rank": 0}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_theta_image_refuses_flag_points_off_the_coordinate_flag(flags):
    """A flag point whose vertex-2 coordinates are permuted by a cycle lies
    in the orbit of the coordinate-flag point, so it passes the relations
    and stability and its theta has the same prefix types; but A_1 and A_2
    are no longer coordinate inclusions, so theta's leading blocks no longer
    stand for the products A_i B_i, and the theta-image instance refuses it
    with a CertificateError, also under python -O."""
    script = textwrap.dedent(
        """
        from quiverz import quiverrep, verify
        from quiverz.exactmat import CertificateError, ExactMatrix, identity

        real = quiverrep._flag_point

        def permuted(dims, field, rng):
            z = real(dims, field, rng)
            n = z.dims[1]
            cycle = ExactMatrix(n, n, [int(j == (i + 1) % n) for i in range(n) for j in range(n)], field)
            g = [identity(z.dims[0], field), cycle, identity(z.dims[2], field)]
            moved = quiverrep.act(g, z)
            print("relations", quiverrep.check_relations(moved), "stable", quiverrep.is_stable(moved))
            return moved

        verify._flag_point = permuted
        try:
            verify._theta_image_instance((1, 4, 5), 32003, 0, 1)
            print("accepted")
        except CertificateError as exc:
            print("refused", "coordinate inclusion" in str(exc))
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["relations True stable True", "refused True"]


def test_stability_report_checks_relations_once(monkeypatch):
    """_enumerate_z_points solves the last relation by lookup: per rank of
    the normal form it lists every B_{t-1} under its product B_{t-1} A_{t-1}
    and checks the relations of the other maps once per tuple of them.  So
    the default report makes 50 relations passes, one per outer tuple (2 for
    (1, 2), whose outer tuple is empty, and 3 * 16 for (1, 2, 3)), where
    filtering each of the 3080 candidate tuples made 3080.  verify forms
    2 * 4 + 3 * 64 products B_{t-1} A_{t-1}, one per B_{t-1} per rank.  The
    relations passes form the rest: 48 products B_1 A_1 to check, and 30
    products A_1 B_1 to look up, one per outer tuple of (1, 2, 3) that
    passes its relation, as the pass's last product.  The subspace
    criterion takes the representatives without checking the relations
    again."""
    calls = []
    products = {verify: 0, quiverrep: 0}
    real = quiverrep._point_products

    def counting(*args):
        calls.append(1)
        return real(*args)

    def multiplying(module):
        def wrapper(*args):
            products[module] += 1
            return exactmat._mul_flat(*args)

        return wrapper

    monkeypatch.setattr(quiverrep, "_point_products", counting)
    monkeypatch.setattr(verify, "_point_products", counting)
    for module in products:
        monkeypatch.setattr(module, "_mul_flat", multiplying(module))
    report = stability_report()
    assert report.passed
    assert len(calls) == 50
    assert products == {verify: 2 * 4 + 3 * 64, quiverrep: 48 + 30}


Z_POINT_CASES = [
    ((1, 2), 2),
    ((1, 3), 2),
    ((2, 2), 2),
    ((2, 3), 2),
    ((1, 1, 2), 2),
    ((1, 2, 3), 2),
    ((1, 2, 4), 2),
    ((1, 2), 3),
    ((2, 3), 3),
    ((1, 1, 2, 4), 2),
]


@pytest.mark.parametrize("dims, p", Z_POINT_CASES)
def test_z_points_lookup_matches_filter_oracle(dims, p):
    """Solving the last relation by lookup yields the points of the filter
    over every completion, in its order, with the same weights and every
    entry of A and B the same."""
    field = FieldSpec(p)

    def spelled(points):
        return [(w, z.dims, [M.entries for M in z.A], [M.entries for M in z.B]) for w, z in points]

    fast = spelled(_enumerate_z_points(dims, field))
    assert fast == spelled(z_points_by_filter(dims, field))
    assert fast
