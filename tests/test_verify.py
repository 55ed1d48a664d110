import ast
import functools
import hashlib
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
import traceback

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


DERIVE_KEYS = [(7, ()), (7, ("x", (1, 2))), (0, ("reducible", (1, 4, 5))), (-3, ("s", (1, 3, 6), 2)), (2**70, ("é",))]


def _rng_by_hashlib(seed, *key):
    tag = "|".join([str(seed)] + [str(k) for k in key])
    return random.Random(int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "big"))


def test_derive_rng_matches_hashlib_sha256():
    """derive_rng seeds from the first 8 bytes of hashlib's SHA-256 of its
    tag, whichever module its sha256 comes from: in-process, and in a
    fresh interpreter where _sha256 cannot be imported, so the hashlib
    fallback runs."""
    for seed, key in DERIVE_KEYS:
        assert derive_rng(seed, *key).getstate() == _rng_by_hashlib(seed, *key).getstate()
    expected = [_rng_by_hashlib(seed, *key).getrandbits(64) for seed, key in DERIVE_KEYS]
    script = textwrap.dedent(
        f"""
        import sys
        sys.modules["_sha256"] = None
        import hashlib
        from quiverz import verify
        print(verify.sha256 is hashlib.sha256)
        print([verify.derive_rng(seed, *key).getrandbits(64) for seed, key in {DERIVE_KEYS!r}])
        """
    )
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["True", repr(expected)]


def test_reports_compare_by_fields_and_pickle():
    """VerifyReport and ReducibilityReport are equal exactly when of the same
    class with equal fields, survive pickle, and stay unhashable and
    mutable, as plain dataclasses are."""
    field = FieldSpec(exactmat.DEFAULT_PRIME)
    inner = quiverrep.witness_reducible((1, 4, 5), field, derive_rng(0, "reducible", (1, 4, 5)))
    outer = reducible_report(seed=0)
    for report in (inner, outer):
        twin = pickle.loads(pickle.dumps(report))
        assert twin == report and twin is not report
        with pytest.raises(TypeError):
            hash(report)
    assert inner == quiverrep.witness_reducible((1, 4, 5), field, derive_rng(0, "reducible", (1, 4, 5)))
    assert inner != quiverrep.witness_reducible((1, 4, 5), field, derive_rng(1, "reducible", (1, 4, 5)))
    assert outer == reducible_report(seed=0) and outer != inner
    twin = pickle.loads(pickle.dumps(outer))
    twin.passed = not outer.passed
    assert twin != outer
    bare = verify.VerifyReport("s", {}, 0, True)
    assert bare.instances == [] and bare.counterexample is None
    assert bare == verify.VerifyReport(statement="s", params={}, size=0, passed=True, instances=[])
    assert bare.instances is not verify.VerifyReport("s", {}, 0, True).instances
    assert quiverrep.ReducibilityReport((1,), Partition(()), Partition(()), "x").witnesses == []


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


def test_theta_image_chain_bound_is_theta_image_max(monkeypatch):
    """A random chain of (4, 8, 9) may end at (3, 3, 3) = M(d), above lambda
    = (3, 3, 2, 1): at seed 512 chain 2 does, and the instance passes.  M(d)
    is formed once, for that chain alone, where lambda misses; bounded by
    lambda alone, the instance fails on chain2_bounded_by_lambda, as the
    sweep did at --max-last 9 --seed 512."""
    calls = []
    real = verify.theta_image_max

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(verify, "theta_image_max", counting)
    inst = verify._theta_image_instance((4, 8, 9), 32003, 512, 3)
    assert inst["ok"] and inst["failed"] == []
    assert inst["lambda"] == [3, 3, 2, 1] and inst["mu"] == [3, 2, 2, 2]
    assert calls == [(4, 8, 9)]
    monkeypatch.setattr(verify, "theta_image_max", verify.theta_image)
    assert verify._theta_image_instance((4, 8, 9), 32003, 512, 3)["failed"] == ["chain2_bounded_by_lambda"]


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


@pytest.mark.parametrize("p", [2, 3])
def test_reducible_report_passes_over_small_fields(p):
    """Over F_2 and F_3 a stable sample is often not generic: on the first
    draw alone, 107 and 76 of seeds 0-199 failed stable_type.  The report
    draws again on its derived stream until the stable witness has type
    (3, 1, 1), and passes on seeds 0-49."""
    failed = [seed for seed in range(50) if not reducible_report(p, seed).passed]
    assert failed == []


def test_reducible_report_fails_plainly_at_its_draw_cap(monkeypatch):
    """Seed 0 over F_2 draws a stable witness of another type first.  With
    the cap at one draw the report fails on stable_type alone, with the
    witness it drew.  With the cap restored a later draw passes, with the
    same chain witness."""
    capped = {}
    for draws in (1, verify._REDUCIBLE_DRAWS):
        monkeypatch.setattr(verify, "_REDUCIBLE_DRAWS", draws)
        capped[draws] = reducible_report(2, 0)
    first, report = capped[1], capped[verify._REDUCIBLE_DRAWS]
    assert not first.passed and first.instances[0]["failed"] == ["stable_type"]
    assert first.counterexample["report"]["witnesses"][1]["theta_type"] != [3, 1, 1]
    assert report.passed
    assert report.instances[0]["report"]["witnesses"][1]["theta_type"] == [3, 1, 1]
    assert report.instances[0]["report"]["witnesses"][0] == first.instances[0]["report"]["witnesses"][0]


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


def test_worker_traceback_is_the_cause(monkeypatch):
    """A task's exception at jobs=2 is raised with the worker's formatted
    traceback as its cause, so the printed traceback names the task that
    raised it, also for an exception that does not pickle."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for task, raised in ((_raise_certificate_error, CertificateError), (_raise_unpicklable, RuntimeError)):
        tasks = [functools.partial(abs, -k) for k in range(5)] + [functools.partial(task, 5)]
        with pytest.raises(raised) as info:
            verify._map_jobs(tasks, 2)
        assert isinstance(info.value.__cause__, verify._WorkerTraceback)
        text = "".join(traceback.format_exception(type(info.value), info.value, info.value.__traceback__))
        assert f"in {task.__name__}" in text


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
    it, and the inversions apart from the eliminations (_rref and the rank
    echelon, _echelon), though each inversion is one in-place _rref of its
    n-wide rows too.
    Per instance of (1, 4, 5) over F_32003 with one trial:
    - relations: 0.  The two chains are re-checked on their index maps
      as they are walked, at each of their two interfaces (maps: 4, one
      _interface_recheck each), which composes them.  The random chain is
      one _walk_chain (walks: 1); the greedy chain is walked along the
      sweep's prefix stack (_greedy_on_path), here a fresh one, so from
      n_1, where it took a _walk_chain of its own (walks: 2).  When each
      chain was numbered first, one _map_recheck
      of the whole chain followed (2); when each chain was glued into a
      point, its re-check was one relations pass of matrix products, 3
      with the stable sample's.  The stable sample is re-checked
      on the rows of its endomorphism that it draws (flag_rows: 1, one
      _lowering_rows; it drew and re-checked the whole endomorphism
      before, flag_endo: 1), which must lower the coordinate
      flag; with every forward map an inclusion that is the relations of
      its flag point, which took 1 relations pass when the point was built;
      when the sample was typed by a pass of its own it was 4, and
      re-checking every point in nilpotency_degrees made 6;
    - Jordan types: 0.  A chain's types are read off the chains of its
      composed maps, where a glued point took two calls, A_1 B_1 and theta,
      5 in all.  A chain's nilpotency check reads the b-parts its re-check
      certified.  A_1 B_1 of the flag point is the endomorphism restricted
      to the first 4 coordinates, and both it and theta are typed off the
      ranks of the endomorphism's leading blocks (_backward_types), with no
      _jordan_flat call.  One call typed both off the endomorphism's powers
      (1 in all) before that; typed one product at a time, the sample took
      2 calls;
    - chain matrices: 0.  No map of a chain is written as a matrix; each
      glued point wrote 4 (_index_matrix), and filled them as dense lists
      before that;
    - eliminations: 2, none on a chain.  The stable sample takes 2 rank
      echelons, of B_2, the endomorphism's first 4 rows, and of B_1 B_2 on
      B_2's pivot columns, whose pivots below 4 give A_1 B_1's ranks.  One
      RREF per power of the endomorphism (type (3, 1, 1)) took 3, where
      eliminating A_1 B_1 on its own took 2 more.  The forward maps of the
      flag point are inclusions, injective
      by construction, and no matrix is built for them; when they were
      built, they were read once each, and is_stable, which ranked them
      by eliminations, took 2 more;
    - inversions: 0.  The stable sample is checked at the coordinate-flag
      point of its endomorphism, without the random base change, which
      keeps every check of the instance; sampled with it, it took 3
      inversions, one per vertex, and before those 3 eliminations of
      [g | I]."""
    counts = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def reset(**extra):
        counts.clear()
        counts.update(
            relations=0, walks=0, maps=0, jordan=0, matrices=0, eliminations=0, inversions=0, canonical=0, **extra
        )

    monkeypatch.setattr(quiverrep, "_point_products", counting("relations", quiverrep._point_products))
    monkeypatch.setattr(quiverrep, "_walk_chain", counting("walks", quiverrep._walk_chain))
    monkeypatch.setattr(quiverrep, "_interface_recheck", counting("maps", quiverrep._interface_recheck))
    jordan = counting("jordan", exactmat._jordan_flat)
    matrices = counting("matrices", exactmat._index_matrix)
    for module in (exactmat, quiverrep, verify, abdiagrams, partitions, cli):
        if hasattr(module, "_jordan_flat"):
            monkeypatch.setattr(module, "_jordan_flat", jordan)
        if hasattr(module, "_index_matrix"):
            monkeypatch.setattr(module, "_index_matrix", matrices)
    monkeypatch.setattr(exactmat, "_rref", counting("eliminations", exactmat._rref))
    monkeypatch.setattr(exactmat, "_echelon", counting("eliminations", exactmat._echelon))
    monkeypatch.setattr(exactmat, "_inverse_flat", counting("inversions", exactmat._inverse_flat))
    monkeypatch.setattr(exactmat, "canonical_nilpotent", counting("canonical", canonical_nilpotent))

    monkeypatch.setattr(quiverrep, "_lowering_rows", counting("flag_rows", quiverrep._lowering_rows))

    reset(flag_rows=0)
    inst = verify._theta_image_instance((1, 4, 5), 32003, 0, 1)
    assert inst["ok"]
    assert counts == {
        "relations": 0, "walks": 1, "maps": 4, "jordan": 0, "matrices": 0, "eliminations": 2, "inversions": 0,
        "canonical": 0, "flag_rows": 1,
    }

    # The chain witness: one walk, re-checked at its two interfaces, its four
    # maps written as matrices, and no relations pass and no Jordan type,
    # where its point took one relations check and two types read off the
    # chains of its products; when it was glued from greedy_chain's chain,
    # that chain was walked and re-checked first, and then glued and
    # re-checked again.  Its is_stable reads its two 0/1 partial
    # permutations off their index maps (is_injective) and eliminates
    # nothing, where ranking them took one rank echelon each (2) and
    # counting their ones took none.  The
    # stable witness: one relations check, 2 ranks of its base-changed
    # forward maps and 3 inversions in sample_stable, and no Jordan type:
    # the type of its theta is read off the ranks of B_2 and B_1 B_2
    # (2 eliminations), where _jordan_flat of theta took 3; its endomorphism
    # is drawn and checked to lower the flag before the base change
    # (flag_rows: 1).
    # The inversions are of sizes 1, 4 and 5, each one in-place _rref of its
    # n-wide rows: 2 + 2 + 3 = 7 in all, 9 when the chain witness's maps
    # were ranked, 7 when it counted ones.  When the inversion had a packed loop of its own, gated
    # on the 2n rows of [g | I], sizes 4 and 5 ran on it and size 1 was one
    # elimination of [g | I]: 5; gated on n rows, all three were
    # eliminations of [g | I]: 7, 8 when theta was typed, and 5 with the
    # inversion's own list loop before that.  The ranks count as
    # eliminations whether by _rref or by the rank echelon (_echelon).  No
    # 5 x 5 product is formed (squares: 0): the relation at the last vertex
    # compares B_2 A_2 with A_1 B_1, where the relations pass formed
    # theta = A_2 B_2.
    def squares(real):
        def wrapper(xe, ye, n, m, k, p):
            counts["squares"] += n == k == 5
            return real(xe, ye, n, m, k, p)

        return wrapper

    reset(flag_rows=0, squares=0)
    with monkeypatch.context() as patch:
        for module in (exactmat, quiverrep):
            patch.setattr(module, "_mul_flat", squares(module._mul_flat))
        report = quiverrep.witness_reducible((1, 4, 5), FieldSpec(), random.Random(0))
    assert [w["relations"] for w in report.witnesses] == [True, True]
    assert counts == {
        "relations": 1, "walks": 1, "maps": 2, "jordan": 0, "matrices": 4, "eliminations": 7, "inversions": 3,
        "canonical": 0, "flag_rows": 1, "squares": 0,
    }

    # conjugator re-checks only its own rank(g) and g N2 == N1 g;
    # jordan_basis re-checks against the canonical form.  A Jordan basis of
    # type (3, 2, 2) takes its type from _jordan_flat, one elimination per
    # power of the conjugated m (3) and none for the partial permutation n,
    # then one elimination per power for ker N^j (3) and one rank echelon
    # per height for the chain tops (3, each an _rref before); when the
    # kernels came from the type pass, each basis took 3.  conjugator adds
    # one inversion for g2^-1, of size 7, which is one in-place _rref of
    # its rows (it ran on the inversion's own packed loop, no elimination,
    # when that loop was gated on the 14 rows of [g2 | I]), and each
    # rank(g) one elimination (a rank echelon): 6 + 9 + 1 + 1 = 17, where
    # the conjugator took 16 with that loop, and 9 + 1 = 10; before the
    # kernels were eliminated apart, 7 and 4.
    field = FieldSpec()
    n = canonical_nilpotent(Partition((3, 2, 2)), field)
    h = random_invertible(7, field, random.Random(3))
    m = mul(mul(h, n), inverse(h))
    reset()
    conjugator(n, m)
    assert counts == {
        "relations": 0, "walks": 0, "maps": 0, "jordan": 2, "matrices": 0, "eliminations": 17, "inversions": 1,
        "canonical": 0,
    }
    reset()
    jordan_basis(m)
    assert counts == {
        "relations": 0, "walks": 0, "maps": 0, "jordan": 1, "matrices": 0, "eliminations": 10, "inversions": 0,
        "canonical": 1,
    }

    # nilpotency_degrees reuses the products A_i B_i that its relation check
    # formed and multiplies only theta anew; on a chain point it eliminates
    # nothing.
    z = quiverrep.build_from_chain(quiverrep.greedy_chain((1, 4, 5)), field)
    reset(products=0)
    monkeypatch.setattr(quiverrep, "_mul_flat", counting("products", quiverrep._mul_flat))
    monkeypatch.setattr(quiverrep, "mul", counting("products", quiverrep.mul))
    assert quiverrep.nilpotency_degrees(z)
    assert counts == {
        "relations": 1, "walks": 0, "maps": 0, "jordan": 2, "matrices": 0, "eliminations": 0, "inversions": 0,
        "canonical": 0, "products": 4,
    }


def test_theta_image_tasks_share_one_prefix_stack(monkeypatch):
    """The tasks of one sweep share one prefix stack of the greedy walk, so
    at max_last 6 the sweep takes 57 greedy steps, one per vector, where
    walking each greedy chain from n_1 took 129, and the random chains
    take their own (3 per vector and step here).  Each task gives the
    instance that a fresh stack gives, run in order or in reverse, and two
    sweeps do not share a stack."""
    steps = {"greedy": 0, "all": 0}
    real_step, real_greedy = quiverrep._glued_step, quiverrep._greedy_on_path
    depth = [0]

    def step(*args):
        steps["all"] += 1
        steps["greedy"] += depth[0]
        return real_step(*args)

    def greedy(*args):
        depth[0] += 1
        try:
            return real_greedy(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(quiverrep, "_glued_step", step)
    monkeypatch.setattr(verify, "_greedy_on_path", greedy)
    tasks = verify._theta_image_tasks(6, 32003, 5, 3)
    instances = [task() for task in tasks]
    assert steps == {"greedy": 57, "all": 57 + 3 * 129}
    assert {id(task.args[-1]) for task in tasks} == {id(tasks[0].args[-1])}
    assert tasks[0].args[-1] is not verify._theta_image_tasks(6, 32003, 5, 3)[0].args[-1]
    fresh = [verify._theta_image_instance(task.args[0], 32003, 5, 3) for task in tasks]
    assert instances == fresh
    backward = verify._theta_image_tasks(6, 32003, 5, 3)[::-1]
    assert [task() for task in backward] == fresh[::-1]


def test_theta_image_reads_each_forward_map_once(monkeypatch):
    """The theta-image instance builds no flag point for its stable
    samples: each is re-checked on the rows of its endomorphism that it
    draws (_lowering_rows, re-checked by _flag_blocks), so no forward map
    is built or read.  For (1, 4, 5) with two samples: 2 draws (2
    _flag_endo checks of the whole endomorphism before), and 0 _flag_point
    calls, 0 relations passes
    (_rep_products), 0 reads of forward maps (_partial_permutation), 0
    is_stable and 0 ranks.  When it checked the flag point, it built 2,
    made 2 relations passes and read each of the 2 forward maps of each
    once, 4 reads; before that, is_stable ranked each map by a read of its
    own.  The reads counted are those of quiverrep and verify; exactmat's
    own, inside _composite_ranks, are of the factors of its products."""
    counts = {"flag_rows": 0, "flag_point": 0, "products": 0, "reads": 0, "is_stable": 0, "rank": 0}

    def counting(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name, key in (
        ("_lowering_rows", "flag_rows"),
        ("_flag_point", "flag_point"),
        ("_rep_products", "products"),
        ("_partial_permutation", "reads"),
        ("is_stable", "is_stable"),
        ("rank", "rank"),
    ):
        real = getattr(exactmat, name, None) or getattr(quiverrep, name)
        for module in (quiverrep, verify) if key == "reads" else (exactmat, quiverrep, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(key, real))
    assert verify._theta_image_instance((1, 4, 5), 32003, 0, 2)["ok"]
    assert counts == {"flag_rows": 2, "flag_point": 0, "products": 0, "reads": 0, "is_stable": 0, "rank": 0}


def test_sweep_sample_is_typed_by_rank_echelons_alone(monkeypatch):
    """Each stable sample of the image sweep is typed off the ranks of the
    backward composites of its flag point: for every strictly monotone d
    with last entry at most 6, over F_2, F_3 and F_32003, an instance with
    two samples makes no _jordan_flat call and no _rref call (no RREF, no
    rank factor and no power of the endomorphism), and at most t - 1 rank
    echelons (_echelon) per sample, one per composite; the chains it
    re-checks eliminate nothing.  Typed by _jordan_flat on the prefixes of
    the endomorphism, each sample took one call and one RREF per power."""
    counts = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    jordan = counting("jordan", exactmat._jordan_flat)
    for module in (exactmat, quiverrep, verify, abdiagrams, partitions, cli):
        if hasattr(module, "_jordan_flat"):
            monkeypatch.setattr(module, "_jordan_flat", jordan)
    monkeypatch.setattr(exactmat, "_rref", counting("rref", exactmat._rref))
    monkeypatch.setattr(exactmat, "_echelon", counting("echelon", exactmat._echelon))
    for p in (2, 3, 32003):
        for d in strictly_monotone_vectors(6):
            counts.update(jordan=0, rref=0, echelon=0)
            assert verify._theta_image_instance(d, p, 1, 2)["ok"], (p, d)
            assert counts["jordan"] == counts["rref"] == 0, (p, d, counts)
            assert 0 < counts["echelon"] <= 2 * (len(d) - 1), (p, d, counts)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_theta_image_refuses_flag_points_off_the_coordinate_flag(flags):
    """An endomorphism conjugated by a cycle P of the last vertex's
    coordinates lowers the flag P(coordinate flag), not the coordinate
    flag.  The flag point it makes with that flag lies in the orbit of the
    coordinate-flag point, so it passes the relations and stability and its
    theta has the same type; but the endomorphism's leading blocks no longer
    stand for the products A_i B_i, and the theta-image instance refuses
    its first n_{t-1} rows, the rows a draw fills (_lowering_rows), with a
    CertificateError, also under python -O."""
    script = textwrap.dedent(
        """
        from quiverz import quiverrep, verify
        from quiverz.exactmat import CertificateError, ExactMatrix, FieldSpec, inverse, jordan_type, mul

        real = quiverrep._lowering_rows

        def permuted(dims, p, rng):
            field = FieldSpec(p)
            n = dims[-1]
            rows = real(dims, p, rng)
            endo = ExactMatrix(n, n, rows + [0] * ((n - dims[-2]) * n), field)
            cycle = ExactMatrix(n, n, [int(i == (j + 1) % n) for i in range(n) for j in range(n)], field)
            moved = mul(mul(cycle, endo), inverse(cycle))
            flag = [mul(cycle, ExactMatrix(n, k, [int(i == j) for i in range(n) for j in range(k)], field))
                    for k in dims[:-1]]
            z = quiverrep.from_flag_point(quiverrep.FlagPoint(flag, moved))
            print("relations", quiverrep.check_relations(z), "stable", quiverrep.is_stable(z),
                  "same type", jordan_type(quiverrep.theta(z)) == jordan_type(endo))
            return list(moved.entries[: dims[-2] * n])

        quiverrep._lowering_rows = permuted
        try:
            verify._theta_image_instance((1, 4, 5), 32003, 0, 1)
            print("accepted")
        except CertificateError as exc:
            print("refused", "does not lower the flag" in str(exc))
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["relations True stable True same type True", "refused True"]


def test_stability_report_checks_relations_once(monkeypatch):
    """_enumerate_z_points solves the last relation in closed form: per rank
    of the normal form it checks the relations of the other maps once per
    tuple of them and reads B_{t-1} off the pass's last product.  So the
    default report makes 50 relations passes, one per outer tuple (2 for
    (1, 2), whose outer tuple is empty, and 3 * 16 for (1, 2, 3)), where
    filtering each of the 3080 candidate tuples made 3080.  verify forms no
    product of its own; listing every B_{t-1} under B_{t-1} A_{t-1} took
    2 * 4 + 3 * 64.  The relations passes form 48 products B_1 A_1 to
    check, and 30 products A_1 B_1, one per outer tuple of (1, 2, 3) that
    passes its relation, as the pass's last product.  Neither stability
    criterion checks the relations again, and each reads only the first
    point of a fibre (test_stability_checks_each_fibre_once)."""
    calls = []
    products = []
    real = quiverrep._point_products

    def counting(*args):
        calls.append(1)
        return real(*args)

    def multiplying(*args):
        products.append(1)
        return exactmat._mul_flat(*args)

    monkeypatch.setattr(quiverrep, "_point_products", counting)
    monkeypatch.setattr(verify, "_point_products", counting)
    monkeypatch.setattr(quiverrep, "_mul_flat", multiplying)
    report = stability_report()
    assert report.passed
    assert len(calls) == 50
    assert not hasattr(verify, "_mul_flat")
    assert len(products) == 48 + 30


@pytest.mark.parametrize("kwargs, fibres", [({}, 27), ({"p": 3, "budget": 10**8}, 73)])
def test_stability_checks_each_fibre_once(monkeypatch, kwargs, fibres):
    """Neither criterion reads B_{t-1}, so stability_report evaluates each
    once per fibre, a run of points of _enumerate_z_points that differ in
    B_{t-1} alone: 27 times for the default report (2 fibres for (1, 2) and
    25 for (1, 2, 3)) and 73 times over F_3, where evaluating them on every
    point took 622 and 14403 calls each."""
    calls = {"is_stable": 0, "_subspace_criterion": 0}
    for name in calls:

        def counting(z, name=name, real=getattr(verify, name)):
            calls[name] += 1
            return real(z)

        monkeypatch.setattr(verify, name, counting)
    assert stability_report(**kwargs).passed
    assert calls == {"is_stable": fibres, "_subspace_criterion": fibres}


STABILITY_CASES = [
    ((1, 2), 2),
    ((1, 3), 2),
    ((2, 3), 2),
    ((1, 1, 2), 2),
    ((1, 2, 3), 2),
    ((1, 2, 4), 2),
    ((2, 2, 3), 2),
    ((1, 2), 3),
    ((2, 3), 3),
    ((1, 2, 3), 3),
]


@pytest.mark.parametrize("dims, p", STABILITY_CASES)
def test_stability_fibres_match_per_point_oracle(dims, p):
    """Evaluating the criteria once per fibre gives the report of evaluating
    them on every point: the same counts, flags and counterexample."""
    kwargs = {"dims_list": (dims,), "p": p, "budget": 10**8}
    report = stability_report(**kwargs).to_json_dict()
    assert report == oracles.stability_by_point(**kwargs).to_json_dict()
    assert report["pass"] and report["instances"][0]["variety_points"] > 0


def test_stability_mismatch_matches_per_point_oracle(monkeypatch):
    """A subspace criterion that reads A and B_1..B_{t-2} only, and
    disagrees with injectivity wherever B_{t-2} has a nonzero first entry,
    fails the same instances with the same counterexample: the first point
    of the first mismatching fibre is the first mismatching point."""

    def disagreeing(z):
        return is_stable(z) != bool(z.B[:-1] and z.B[-2].entries[0])

    monkeypatch.setattr(verify, "_subspace_criterion", disagreeing)
    monkeypatch.setattr(oracles, "_subspace_criterion", disagreeing)
    for dims_list, p in [(((1, 2), (1, 2, 3)), 2), (((2, 2, 3), (1, 1, 2)), 2), (((1, 2, 3),), 3)]:
        kwargs = {"dims_list": dims_list, "p": p, "budget": 10**8}
        report = stability_report(**kwargs).to_json_dict()
        assert report == oracles.stability_by_point(**kwargs).to_json_dict()
        assert report["counterexample"] is not None
    assert [i["ok"] for i in stability_report().instances] == [True, False]


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
    ((3, 4), 2),
]


@pytest.mark.parametrize("dims, p", Z_POINT_CASES)
def test_z_points_lookup_matches_filter_oracle(dims, p):
    """Solving the last relation in closed form yields one point per run of
    the filter over every completion with equal A and B_1..B_{t-2}, in its
    order: the run's first point, with every entry of A and B the same, and
    the run's summed weight."""
    field = FieldSpec(p)

    def spelled(w, z):
        return (w, z.dims, [M.entries for M in z.A], [M.entries for M in z.B])

    fast = [spelled(w, z) for w, z in _enumerate_z_points(dims, field)]
    runs = itertools.groupby(z_points_by_filter(dims, field), key=lambda point: (point[1].A, point[1].B[:-1]))
    slow = []
    for _, run in runs:
        run = list(run)
        slow.append(spelled(sum(w for w, _ in run), run[0][1]))
    assert fast == slow
    assert fast
