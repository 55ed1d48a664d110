"""Exhaustive and randomized verification drivers.

Each driver checks one statement about the chain variety at desk scale and
returns a VerifyReport: the exhaustive pair-step check over a tiny field, the
image sweep over small dimension vectors, the stability cross-check against
the subspace definition, and the reducibility reproduction on (1,4,5).  The
two exhaustive checks visit one representative per base-change stratum, with
one map in rank normal form, and count every tuple it stands for.  Against
A = [[I_r, 0], [0, 0]], BA is read off B's first r columns and AB off its
first r rows, and the base changes that keep A conjugate the corner block
B11 and act on the rest of those columns by row operations and of those
rows by column operations.  So the pair check takes one canonical nilpotent
B11 per Jordan type, types BA once per row space and AB once per column
space beside it, and pairs the types that share the corner block.  In the
same way the image sweep checks each stable sample at its coordinate-flag
point, without the random base change: every check it makes is invariant
under base change.  There the forward maps are coordinate inclusions, which
are injective, and the relations with theta = endo say only that the
endomorphism lowers the flag, so the sample is re-checked on the rows
of the endomorphism it draws and no point is built; A_i B_i is theta
restricted to the span of the first n_{i+1} coordinates (the flag
correspondence of Kraft and Procesi), so the ranks of the composites of
theta's leading blocks type every interface.  The sweep's greedy chains
are walked along the prefixes of its sorted vectors, one step for each
vector whose prefix was swept before it.  The stability check solves its last relation in
closed form: against the normal form, B_{t-1} A_{t-1} is B_{t-1}'s first
r columns, so the other maps fix those and leave the rest free.  Since
neither criterion reads B_{t-1}, it evaluates both once per fibre of the
other maps.  Failures carry a re-checkable counterexample payload.
All randomness is derived per instance from a master seed, so reports are
byte-stable across runs and across worker counts: with jobs > 1 the
independent tasks run on forked worker processes, which the parent feeds
the indexes of a few contiguous chunks over pipes, at most one per worker
in flight, and the results come back in task order.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from typing import Callable, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple

try:  # the builtin module up to 3.11, as random.py takes its sha512
    from _sha256 import sha256
except ImportError:  # 3.12 and later: hashlib, which loads OpenSSL
    from hashlib import sha256

from quiverz.exactmat import (
    DEFAULT_PRIME,
    ExactMatrix,
    FieldSpec,
    _jordan_flat,
    all_subspaces,
    canonical_nilpotent,
    is_injective,
)
from quiverz.partitions import (
    Partition,
    _Record,
    add,
    as_dim_vector,
    dominates,
    mu_of,
    partitions_of_weight,
    theta_image,
    theta_image_max,
)
from quiverz.quiverrep import (
    QuiverRep,
    _backward_types,
    _degrees_bounded,
    _flag_blocks,
    _greedy_on_path,
    _point_products,
    _subspace_criterion,
    is_stable,
    random_chain,
    witness_reducible,
)

DEFAULT_BUDGET = 10**7


class VerifyReport(_Record):
    """One verified statement: parameters, work size, verdict, and on failure
    an independently re-checkable counterexample."""

    __slots__ = ("statement", "params", "size", "passed", "instances", "counterexample")

    def __init__(
        self,
        statement: str,
        params: dict,
        size: int,
        passed: bool,
        instances: Optional[List[dict]] = None,
        counterexample: Optional[dict] = None,
    ):
        self.statement = statement
        self.params = params
        self.size = size
        self.passed = passed
        self.instances = [] if instances is None else instances
        self.counterexample = counterexample

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "params": self.params,
            "size": self.size,
            "pass": self.passed,
            "instances": self.instances,
            "counterexample": self.counterexample,
        }


class BudgetExceeded(ValueError):
    """Requested enumeration is larger than the configured budget."""


def _budgeted(p: int, e: int, budget: int, what: str) -> int:
    """p^e, the number of what an enumeration stands for, if it is at most
    budget; else BudgetExceeded naming the size as the power p^e.  p is
    multiplied up only until it passes the budget, so a huge e costs no
    more than a small one."""
    size = 1
    for _ in range(e):
        size *= p
        if size > budget:
            raise BudgetExceeded(f"{p}^{e} {what} exceed the budget of {budget}")
    return size


class _WorkerTraceback(Exception):
    """The traceback a forked worker formatted for the exception it sent
    back; _map_jobs raises that exception with this one as its cause."""


def _serve(conn, others: list, tasks: Sequence[Callable[[], object]], size: int) -> NoReturn:
    """The loop of a forked worker: close the pipe ends that are not its own,
    then for each chunk index k read from conn run tasks[k * size : (k + 1)
    * size] and send back (True, results), or (False, (exception, its
    formatted traceback)) at the first task that raises.  An exception that
    does not pickle goes back as a RuntimeError that names it, with the
    traceback of the original, and results that do not pickle go back as a
    RuntimeError with no traceback.  On EOF, or on anything else, the
    worker ends through os._exit: it never returns into the caller's stack,
    and it flushes none of the caller's buffers."""
    try:
        for end in others:
            end.close()
        while True:
            try:
                k = conn.recv()
            except EOFError:
                os._exit(0)
            try:
                reply = (True, [task() for task in tasks[k * size : (k + 1) * size]])
            except Exception as exc:
                import pickle  # loaded with multiprocessing.connection already
                import traceback

                text = traceback.format_exc()
                try:
                    pickle.loads(pickle.dumps(exc))
                    reply = (False, (exc, text))
                except Exception:
                    reply = (False, (RuntimeError(f"{type(exc).__qualname__} does not pickle: {exc}"), text))
            try:
                conn.send(reply)
            except Exception as exc:
                conn.send((False, (RuntimeError(f"the results of chunk {k} do not pickle: {exc!r}"), None)))
    finally:
        os._exit(1)


def _map_jobs(tasks: Sequence[Callable[[], object]], jobs: int) -> list:
    """[task() for task in tasks], on forked worker processes when jobs, the
    tasks and the cores all allow two or more and os.fork exists.  No more
    workers start than any of the three.  Each worker holds the tasks
    through the fork, so a task need not pickle; its result must.  The
    serial path forks nothing and imports no multiprocessing.

    The tasks run in about 4 contiguous chunks per worker.  The parent
    holds one duplex Pipe per worker: it sends a chunk index, the worker
    sends back its results (see _serve), and only then is that worker sent
    the next index, so at most one chunk per worker is in flight.  The
    results are joined in task order.  A task that raises ends its chunk;
    the chunks already running finish, no later chunk is handed out, and
    the first failure by chunk order is raised with its type, chained to
    the worker's formatted traceback as its cause.  A worker
    that ends without a result raises RuntimeError, never EOFError or
    BrokenPipeError.  Closing the parent's ends of the pipes stops the
    workers, and every worker is reaped before _map_jobs returns or raises;
    the parent starts no thread, and as with any fork, the caller should
    run no other."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers < 2 or not hasattr(os, "fork"):
        return [task() for task in tasks]
    from multiprocessing.connection import Pipe, wait

    size = -(-len(tasks) // (4 * workers))
    chunks = -(-len(tasks) // size)
    pipes = [Pipe() for _ in range(workers)]
    pids: Dict[object, int] = {}  # the parent's end of each pipe -> its worker
    results: list = [None] * chunks
    failure: Optional[Tuple[int, tuple]] = None  # the first by chunk order
    try:
        for mine, theirs in pipes:
            pid = os.fork()
            if pid == 0:
                _serve(theirs, [end for pipe in pipes for end in pipe if end is not theirs], tasks, size)
            pids[mine] = pid
            theirs.close()
        running = {}  # the parent's end -> the chunk its worker runs
        idle = list(pids)
        following = 0
        while True:
            for conn in idle:
                if failure is None and following < chunks:
                    running[conn] = following
                    following += 1
                    try:
                        conn.send(running[conn])
                    except OSError:  # the worker is gone: its reply reads as EOF
                        pass
            if not running:
                break
            idle = wait(list(running))
            for conn in idle:
                k = running.pop(conn)
                try:
                    done, value = conn.recv()
                except (EOFError, OSError):
                    status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(conn), 0)[1])
                    lost = RuntimeError(f"a worker ended with status {status} while running chunk {k}")
                    done, value = False, (lost, None)
                if done:
                    results[k] = value
                elif failure is None or k < failure[0]:
                    failure = (k, value)
    finally:
        for pipe in pipes:
            for end in pipe:
                end.close()
        for pid in pids.values():
            os.waitpid(pid, 0)
    if failure is not None:
        exc, text = failure[1]
        if text is not None:
            exc.__cause__ = _WorkerTraceback(text)
        raise exc
    return [result for chunk in results for result in chunk]


def derive_rng(seed: int, *key) -> random.Random:
    """Deterministic per-instance stream: hash the master seed with the
    instance key so results do not depend on scheduling.  The stream's seed
    is the first 8 bytes, big-endian, of the SHA-256 of "seed|key...".
    sha256 is the builtin _sha256 where it exists (up to 3.11), so that
    importing quiverz loads no OpenSSL, and hashlib's from 3.12 on; the
    digests, and so the streams, are the same."""
    tag = "|".join([str(seed)] + [str(k) for k in key])
    digest = sha256(tag.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _rank_normal_form(rows: int, cols: int, r: int) -> tuple:
    """Flat row-major entries of the rows x cols matrix [[I_r, 0], [0, 0]]."""
    return tuple(int(i == j < r) for i in range(rows) for j in range(cols))


def _rank_count(rows: int, cols: int, r: int, q: int) -> int:
    """Number of rows x cols matrices of rank r over F_q:
    prod_{i<r} (q^rows - q^i)(q^cols - q^i) / (q^r - q^i)."""
    num = den = 1
    for i in range(r):
        num *= (q**rows - q**i) * (q**cols - q**i)
        den *= q**r - q**i
    return num // den


def _pair_types(n: int, a: int, p: int, budget: int) -> Dict[Tuple[Partition, Partition], tuple]:
    """Map each (BA-type, AB-type) of the pairs A: F_p^n -> F_p^{n+a}, B the
    other way, with BA nilpotent, to the flat entries of A then B of a pair
    that has it.

    Base change (A, B) -> (hAg^-1, gBh^-1) conjugates BA and AB, so it keeps
    both types, and it takes every A of rank r to [[I_r, 0], [0, 0]].  So A
    runs over these min(n, n+a) + 1 normal forms, which meet every orbit of
    the p^(2n(n+a)) pairs that the budget still counts.  With B in blocks
    [[B11, B12], [B21, B22]] after the first r rows and columns,
    BA = [[B11, 0], [B21, 0]] and AB = [[B11, B12], [0, 0]]: B22 enters
    neither, and both are nilpotent exactly when B11 is.  The base changes
    diag(g1, h) and diag(g1, h') that keep A send B11 to g1 B11 g1^-1, B21
    to h B21 g1^-1 and B12 to g1 B12 h'^-1.  So B11 runs over one
    canonical_nilpotent x_eta per partition eta of r, and no typing is spent
    on a B11 that is not nilpotent.  With g1 = 1, h row-reduces B21 and h'
    column-reduces B12: the BA-type depends on B21 only through its row
    space U in F_p^r, of dimension k <= n - r, and the AB-type on B12 only
    through its column space V, of dimension l <= n + a - r.  BA is typed
    once per U, as [[x_eta, 0], [U, 0]] at size r + k plus n - r - k parts
    1, and AB once per V, as [[x_eta, V], [0, 0]] at size r + l plus
    n + a - r - l parts 1, with U and V from all_subspaces(r).  The type
    pairs of eta are every BA-type with every AB-type.

    The witness of a type pair is its first (r, eta, U, V) in the order of
    the loops, partitions largest first part first and subspaces in the
    order of all_subspaces: B11 = x_eta, B21 = U's RREF basis as its first
    rows, B12 = V's RREF basis as its first columns, and zeros elsewhere.
    The pairs enter the map in that order.  A BA or AB typed as not
    nilpotent, which x_eta being nilpotent rules out, raises ArithmeticError
    naming a pair that has it."""
    if n < 0 or a < 0:
        raise ValueError("sizes must be nonnegative")
    field = FieldSpec(p)
    m = n + a
    _budgeted(p, 2 * n * m, budget, "pairs")
    types: Dict[Tuple[Partition, Partition], tuple] = {}
    for r in range(min(n, m) + 1):
        A = _rank_normal_form(m, n, r)
        spaces = [(S.cols, S.entries) for S in all_subspaces(r, field)]  # r x k, columns an RREF basis
        for eta in partitions_of_weight(r):
            x = canonical_nilpotent(eta, field).entries
            x_rows = [x[i * r : (i + 1) * r] for i in range(r)]
            ba_first: Dict[Partition, tuple] = {}  # BA-type -> B's last n - r rows
            ab_first: Dict[Partition, tuple] = {}  # AB-type -> B's first r rows
            for k, basis in spaces:
                if k <= n - r:  # BA = [[x_eta, 0], [U, 0]], U's basis the first rows of B21
                    u_rows = [basis[j::k] for j in range(k)]
                    ta = _jordan_flat([e for row in x_rows + u_rows for e in row + (0,) * k], r + k, p)
                    bottom = tuple(e for row in u_rows for e in row + (0,) * (m - r)) + (0,) * ((n - r - k) * m)
                    if ta is None:
                        B = tuple(e for row in x_rows for e in row + (0,) * (m - r)) + bottom
                        raise ArithmeticError(f"BA is not nilpotent although B11 is: {A + B}")
                    ba_first.setdefault(Partition._sorted(ta.parts + (1,) * (n - r - k)), bottom)
                if k <= m - r:  # AB = [[x_eta, V], [0, 0]], V's basis the first columns of B12
                    v_rows = [x_rows[i] + basis[i * k : (i + 1) * k] for i in range(r)]
                    tb = _jordan_flat([e for row in v_rows for e in row] + [0] * (k * (r + k)), r + k, p)
                    top = tuple(e for row in v_rows for e in row + (0,) * (m - r - k))
                    if tb is None:
                        B = top + (0,) * ((n - r) * m)
                        raise ArithmeticError(f"AB is not nilpotent although BA is: {A + B}")
                    ab_first.setdefault(Partition._sorted(tb.parts + (1,) * (m - r - k)), top)
            for ta, bottom in ba_first.items():
                for tb, top in ab_first.items():
                    types.setdefault((ta, tb), A + top + bottom)
    return types


def ab_step_report(
    n: int, a: int, p: int = 2, budget: int = DEFAULT_BUDGET
) -> VerifyReport:
    """Over every pair A: F_p^n -> F_p^{n+a}, B the other way, check that for
    each partition eta of n the maximal AB-type over pairs with BA-type
    dominated by eta is exactly add(eta, a), dominating all others.  The pairs
    are met through one representative per orbit stratum (see _pair_types);
    size counts all of them."""
    witness = _pair_types(n, a, p, budget)
    m = n + a
    instances = []
    counterexample = None
    for eta in partitions_of_weight(n):
        expected = add(eta, a)
        reachable = sorted(
            {tb for (ta, tb) in witness if dominates(eta, ta)},
            key=lambda tb: tb.parts,
            reverse=True,
        )
        ok = expected in reachable and all(dominates(expected, tb) for tb in reachable)
        instances.append(
            {
                "eta": eta.to_list(),
                "expected_max": expected.to_list(),
                "reachable": [tb.to_list() for tb in reachable],
                "ok": ok,
            }
        )
        if not ok and counterexample is None:
            bad = next((tb for tb in reachable if not dominates(expected, tb)), None)
            payload = {"eta": eta.to_list(), "expected_max": expected.to_list()}
            if bad is None:
                payload["missing"] = expected.to_list()
            else:
                payload["undominated_b_type"] = bad.to_list()
                ta_bad, entries = next(
                    (k[0], witness[k])
                    for k in witness
                    if k[1] == bad and dominates(eta, k[0])
                )
                payload["pair"] = {
                    "a_type": ta_bad.to_list(),
                    "A_entries": list(entries[: m * n]),
                    "B_entries": list(entries[m * n :]),
                }
            counterexample = payload
    return VerifyReport(
        statement="ab-step",
        params={"n": n, "a": a, "p": p},
        size=p ** (2 * n * m),
        passed=all(inst["ok"] for inst in instances),
        instances=instances,
        counterexample=counterexample,
    )


def pair_type_table(n: int, a: int, p: int = 2, budget: int = DEFAULT_BUDGET) -> Dict[tuple, set]:
    """Map BA-type -> set of AB-types over all pairs, as tuples of parts; the
    matrix side of the placement enumeration, used as an independent
    oracle."""
    table: Dict[tuple, set] = {}
    for ta, tb in _pair_types(n, a, p, budget):
        table.setdefault(ta.parts, set()).add(tb.parts)
    return table


def strictly_monotone_vectors(max_last: int) -> List[tuple]:
    """All strictly increasing vectors of length >= 2 with last entry <= max_last."""
    out = []
    for r in range(2, max_last + 1):
        out.extend(itertools.combinations(range(1, max_last + 1), r))
    return sorted(out)


def _theta_image_instance(d: tuple, p: int, seed: int, trials: int, path: Optional[list] = None) -> dict:
    """One vector of the image sweep.  path is the greedy walk's prefix
    stack (_greedy_on_path) that the sweep's tasks share; a fresh one walks
    the greedy chain from n_1."""
    field = FieldSpec(p)
    rng = derive_rng(seed, "theta-image", d)
    lam = theta_image(d)
    mu = mu_of(d)
    # The walk that places a chain glues it and re-checks its relations
    # and its type at each interface (the b-parts of its chain) on its
    # index maps as it goes; the greedy chain is walked on from the longest
    # prefix of d that the sweep walked last, whose interfaces passed when
    # that prefix was first walked.  A stable sample is checked at the
    # coordinate-flag point of its endomorphism, without sample_stable's
    # base change, which keeps every check below.  There each A_i is an
    # inclusion, so injective, and the relations with theta = endo say that
    # the endomorphism lowers the flag (_flag_blocks's re-check of its drawn
    # rows); A_i B_i is then the endomorphism on the first n_{i+1}
    # coordinates, typed off the composites of its leading blocks.
    checks = [("lambda_dominates_mu", dominates(lam, mu))]
    chain = _greedy_on_path(d, [] if path is None else path)
    checks.append(("greedy_nilpotency", _degrees_bounded([delta.b_part for delta in chain])))
    checks.append(("greedy_type_is_lambda", chain[-1].b_part == lam))
    for k in range(trials):
        chain = random_chain(d, rng)
        end = chain[-1].b_part  # bounded by M(d) >= lambda, formed where lambda misses
        checks.append((f"chain{k}_bounded_by_lambda", dominates(lam, end) or dominates(theta_image_max(d), end)))
        checks.append((f"chain{k}_nilpotency", _degrees_bounded([delta.b_part for delta in chain])))
    for k in range(trials):
        types = _backward_types(_flag_blocks(d, field, rng), d, p, d[1:])
        checks.append((f"stable{k}_bounded_by_mu", dominates(mu, types[-1])))
        checks.append((f"stable{k}_nilpotency", _degrees_bounded(types)))
    failed = sorted(name for name, ok in checks if not ok)
    return {
        "d": list(d),
        "lambda": lam.to_list(),
        "mu": mu.to_list(),
        "failed": failed,
        "ok": not failed,
    }


def _theta_image_tasks(max_last: int, p: int, seed: int, trials: int) -> list:
    """One task per swept vector of theta_image_report.  The vectors are
    subsets of 1..max_last, so 2^max_last bounds their number; past the
    default budget the sweep is refused before any is built.  Below 2 there
    is no vector to sweep, and an empty sweep is refused, not passed.  The
    tasks share one prefix stack of the greedy walk (_greedy_on_path), so
    each greedy chain is walked on from the prefix walked before it; a
    forked worker grows its own copy."""
    if max_last < 2:
        raise ValueError(f"max_last must be at least 2 for a nonempty sweep, got {max_last}")
    _budgeted(2, max_last, DEFAULT_BUDGET, f"subsets of 1..{max_last} to sweep")
    path: list = []
    return [
        functools.partial(_theta_image_instance, d, p, seed, trials, path)
        for d in strictly_monotone_vectors(max_last)
    ]


def _theta_image_from(instances: List[dict], max_last: int, p: int, seed: int, trials: int) -> VerifyReport:
    """The theta-image report over the results of _theta_image_tasks."""
    bad = next((inst for inst in instances if not inst["ok"]), None)
    return VerifyReport(
        statement="theta-image",
        params={"max_last": max_last, "p": p, "seed": seed, "trials": trials},
        size=len(instances) * (1 + 2 * trials),
        passed=bad is None,
        instances=instances,
        counterexample=bad,
    )


def theta_image_report(
    max_last: int = 8,
    p: int = DEFAULT_PRIME,
    seed: int = 0,
    trials: int = 3,
    jobs: int = 1,
) -> VerifyReport:
    """Sweep all strictly monotone vectors up to max_last: the greedy chain
    realizes its type lambda = theta_image(d) exactly, random chains stay
    dominated by M(d) = theta_image_max(d), the largest type in the image of
    theta (still checked as chain{k}_bounded_by_lambda), and stable samples
    stay dominated by the flag bound.  M(d) is lambda through max_last 8;
    for (4, 8, 9) it is (3, 3, 3), above lambda = (3, 3, 2, 1)."""
    instances = _map_jobs(_theta_image_tasks(max_last, p, seed, trials), jobs)
    return _theta_image_from(instances, max_last, p, seed, trials)


def _enumerate_z_points(dims: tuple, field: FieldSpec) -> Iterator[Tuple[int, QuiverRep]]:
    """One (weight, point) per fibre of the relation variety over a tiny
    field, the points with the same A and B_1..B_{t-2}, where the last
    forward map A_{t-1} is in rank normal form: the fibre's first point in
    itertools.product order, and the number of variety points it stands for.

    Base change at the last two vertices takes A_{t-1} of rank r to
    [[I_r, 0], [0, 0]] and carries the completions of one rank-r matrix by
    the other maps onto those of any other, keeping the relations,
    injectivity and the subspace criterion.  So each completion of the normal
    form stands for _rank_count(d_t, d_{t-1}, r, p) points.

    The last relation B_{t-1} A_{t-1} = C = A_{t-2} B_{t-2} (C = 0 when
    t = 2) is solved in closed form: B_{t-1} A_{t-1} is B_{t-1}'s first r
    columns followed by zeros, so it has a solution exactly when C is zero
    from column r on, and then p^(d_{t-1} (d_t - r)) of them, the first with
    C's first r columns and zeros elsewhere.  The loop runs over the other
    maps only: one relations pass on the first t - 1 vertices
    (_point_products) checks them and ends with C.  So the fibres come in
    the order of a filter over every completion."""
    p = field.p
    dims = as_dim_vector(dims)  # validated once: each point is built unchecked
    t = len(dims)
    if t < 2:
        yield 1, QuiverRep(dims, [], [], field)
        return
    a_shapes = [(dims[i + 1], dims[i]) for i in range(t - 1)]
    b_shapes = [(dims[i], dims[i + 1]) for i in range(t - 1)]
    outer = a_shapes[:-1] + b_shapes[:-1]  # every map but A_{t-1} and B_{t-1}
    offsets = [0]
    for r, c in outer:
        offsets.append(offsets[-1] + r * c)
    rows, cols = a_shapes[-1]
    for rank in range(min(rows, cols) + 1):
        weight = _rank_count(rows, cols, rank, p) * p ** (cols * (rows - rank))
        A_last = ExactMatrix._reduced(rows, cols, _rank_normal_form(rows, cols, rank), field)
        for entries in itertools.product(range(p), repeat=offsets[-1]):
            mats = [entries[offsets[k] : offsets[k + 1]] for k in range(len(outer))]
            A_flat, B_flat = mats[: t - 2], mats[t - 2 :]
            products = _point_products(dims[:-1], A_flat, B_flat, p)
            if products is None:
                continue
            C = products[-1] if products else [0] * (cols * cols)
            if any(C[i] for i in range(cols * cols) if i % cols >= rank):
                continue
            B_flat.append([C[i * cols + j] if j < rank else 0 for i in range(cols) for j in range(rows)])
            A = tuple(ExactMatrix._reduced(r, c, m, field) for (r, c), m in zip(a_shapes, A_flat)) + (A_last,)
            B = tuple(ExactMatrix._reduced(r, c, m, field) for (r, c), m in zip(b_shapes, B_flat))
            yield weight, QuiverRep._unchecked(dims, A, B, field)


def stability_report(
    dims_list: Sequence[Sequence[int]] = ((1, 2), (1, 2, 3)),
    p: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Compare the injectivity criterion with the subspace definition of
    stability on every variety point over a tiny field, one rank-normal-form
    representative at a time; the counts weigh each by the points it stands
    for, and tuples counts every matrix tuple.

    Neither criterion reads B_{t-1}: injectivity reads the A_i, and the
    subspace criterion takes subspaces W_i of the first t-1 spaces only, so
    B_{t-1}, which maps out of the last space, enters none of its
    conditions.  So both are evaluated once per fibre, the points with the
    same A and B_1..B_{t-2}, on the first point that _enumerate_z_points
    yields for it, which is the point a mismatching fibre reports; each
    count adds the fibre's weight."""
    field = FieldSpec(p)
    instances = []
    counterexample = None
    total = 0
    for dims in dims_list:
        dims = tuple(dims)
        cells = sum(2 * dims[i] * dims[i + 1] for i in range(len(dims) - 1))
        size = _budgeted(p, cells, budget, f"tuples for dims {dims}")
        total += size
        mismatches = []
        variety_count = stable_count = 0
        for weight, z in _enumerate_z_points(dims, field):
            fast = is_stable(z)
            slow = _subspace_criterion(z)  # _enumerate_z_points checked the relations
            variety_count += weight
            if fast:
                stable_count += weight
            if fast != slow:
                mismatches.append((z, fast, slow))
        ok = not mismatches
        instances.append(
            {
                "dims": list(dims),
                "tuples": size,
                "variety_points": variety_count,
                "stable_points": stable_count,
                "ok": ok,
            }
        )
        if mismatches and counterexample is None:
            z, fast, slow = mismatches[0]
            counterexample = {
                "dims": list(dims),
                "injectivity_says": fast,
                "subspace_says": slow,
                "rep": z.to_json_dict(),
            }
    return VerifyReport(
        statement="stability",
        params={"dims": [list(d) for d in dims_list], "p": p},
        size=total,
        passed=counterexample is None and all(i["ok"] for i in instances),
        instances=instances,
        counterexample=counterexample,
    )


_REDUCIBLE_DRAWS = 64


def reducible_report(p: int = DEFAULT_PRIME, seed: int = 0) -> VerifyReport:
    """Reproduce the reducibility certificate on (1,4,5): greedy chain type
    (3,2) against stable type (3,1,1), with a non-injective middle forward
    map on the chain witness and an exactly generic stable witness.

    A stable sample is generic only with probability below 1 over a small
    field: about half the samples over F_2 have a type below (3,1,1).  So
    witness_reducible is drawn again, on the same derived stream, until the
    stable witness has type (3,1,1), at most _REDUCIBLE_DRAWS times; the
    report of the last draw is checked, and fails on stable_type if the cap
    is reached.  Over F_32003 the first draw is generic on every seed from
    0 to 199, so those reports are the single-draw reports."""
    field = FieldSpec(p)
    rng = derive_rng(seed, "reducible", (1, 4, 5))
    # The builders certify the relations and the stable witness's stability.
    for _ in range(_REDUCIBLE_DRAWS):
        report = witness_reducible((1, 4, 5), field, rng)
        chain, stable = report.witnesses[0], report.witnesses[1]
        if stable["theta_type"] == [3, 1, 1]:
            break
    checks = {
        "verdict": report.verdict == "reducible",
        "lambda": report.lam == Partition((3, 2)),
        "mu": report.mu == Partition((3, 1, 1)),
        "chain_type": chain["theta_type"] == [3, 2],
        "chain_middle_map_not_injective": not is_injective(QuiverRep.from_json_dict(chain["rep"]).A[1]),
        "chain_unstable": not chain["stable"],
        "stable_type": stable["theta_type"] == [3, 1, 1],
    }
    failed = sorted(name for name, ok in checks.items() if not ok)
    return VerifyReport(
        statement="reducible",
        params={"d": [1, 4, 5], "p": p, "seed": seed},
        size=1,
        passed=not failed,
        instances=[
            {
                "d": [1, 4, 5],
                "report": report.to_json_dict(),
                "failed": failed,
                "ok": not failed,
            }
        ],
        counterexample=None if not failed else {"failed": failed, "report": report.to_json_dict()},
    )


SUITE_AB_STEP_INSTANCES = ((1, 1), (1, 2), (2, 0), (2, 1))


def suite_report(
    seed: int = 0,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    p: int = DEFAULT_PRIME,
    max_last: int = 6,
    trials: int = 2,
) -> dict:
    """Run the whole driver battery with deterministic per-instance seeds;
    the returned dict serializes byte-identically for a fixed master seed
    regardless of worker count.

    Every report and every theta-image instance is one task of one flat
    list, the longest task, stability_report, first."""
    k = len(SUITE_AB_STEP_INSTANCES)
    tasks = [functools.partial(stability_report, budget=budget)]
    tasks += [functools.partial(ab_step_report, n, a, p=2, budget=budget) for n, a in SUITE_AB_STEP_INSTANCES]
    tasks.append(functools.partial(reducible_report, p=p, seed=seed))
    tasks += _theta_image_tasks(max_last, p, seed, trials)
    results = _map_jobs(tasks, jobs)
    stability, ab_steps, reducible = results[0], results[1 : k + 1], results[k + 1]
    theta = _theta_image_from(results[k + 2 :], max_last, p, seed, trials)
    reports = [*ab_steps, theta, stability, reducible]
    return {
        "seed": seed,
        "pass": all(r.passed for r in reports),
        "reports": [r.to_json_dict() for r in reports],
    }
