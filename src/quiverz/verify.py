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
under base change.  There the forward maps are coordinate inclusions, each
read once off the matrices, which also certifies stability, since an
inclusion is injective; by the relations they carry each A_i B_i to theta
restricted to the span of the first n_{i+1} coordinates (the flag
correspondence of Kraft and Procesi), so one pass over theta types every
interface.  The stability check solves its last relation by lookup, listing
every last backward map under its product with the normal form.  Failures
carry a re-checkable counterexample payload.
All randomness is derived per instance from a master seed, so reports are
byte-stable across runs and across worker counts: with jobs > 1 the
independent tasks run on forked worker processes, which the parent feeds
the indexes of a few contiguous chunks over pipes, at most one per worker
in flight, and the results come back in task order.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import random
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Iterator, List, NoReturn, Optional, Sequence, Tuple

from quiverz.exactmat import (
    DEFAULT_PRIME,
    CertificateError,
    ExactMatrix,
    FieldSpec,
    _jordan_flat,
    _mul_flat,
    _partial_permutation,
    all_subspaces,
    canonical_nilpotent,
    is_injective,
)
from quiverz.partitions import (
    Partition,
    add,
    as_dim_vector,
    dominates,
    mu_of,
    partitions_of_weight,
    theta_image,
)
from quiverz.quiverrep import (
    QuiverRep,
    _degrees_bounded,
    _flag_point,
    _point_products,
    _rep_products,
    _subspace_criterion,
    build_from_chain,
    greedy_chain,
    is_stable,
    random_chain,
    witness_reducible,
)

DEFAULT_BUDGET = 10**7


@dataclass
class VerifyReport:
    """One verified statement: parameters, work size, verdict, and on failure
    an independently re-checkable counterexample."""

    statement: str
    params: dict
    size: int
    passed: bool
    instances: List[dict] = dc_field(default_factory=list)
    counterexample: Optional[dict] = None

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


def _serve(conn, others: list, tasks: Sequence[Callable[[], object]], size: int) -> NoReturn:
    """The loop of a forked worker: close the pipe ends that are not its own,
    then for each chunk index k read from conn run tasks[k * size : (k + 1)
    * size] and send back (True, results), or (False, exception) at the
    first task that raises.  An exception that does not pickle goes back as
    a RuntimeError that names it, and so do results that do not.  On EOF, or
    on anything else, the worker ends through os._exit: it never returns
    into the caller's stack, and it flushes none of the caller's buffers."""
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

                try:
                    pickle.loads(pickle.dumps(exc))
                    reply = (False, exc)
                except Exception:
                    reply = (False, RuntimeError(f"{type(exc).__qualname__} does not pickle: {exc}"))
            try:
                conn.send(reply)
            except Exception as exc:
                conn.send((False, RuntimeError(f"the results of chunk {k} do not pickle: {exc!r}")))
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
    the first failure by chunk order is raised with its type.  A worker
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
    failure: Optional[Tuple[int, BaseException]] = None  # the first by chunk order
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
                    done, value = False, RuntimeError(f"a worker ended with status {status} while running chunk {k}")
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
        raise failure[1]
    return [result for chunk in results for result in chunk]


def derive_rng(seed: int, *key) -> random.Random:
    """Deterministic per-instance stream: hash the master seed with the
    instance key so results do not depend on scheduling."""
    tag = "|".join([str(seed)] + [str(k) for k in key])
    digest = hashlib.sha256(tag.encode()).digest()
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


def _theta_image_instance(d: tuple, p: int, seed: int, trials: int) -> dict:
    field = FieldSpec(p)
    rng = derive_rng(seed, "theta-image", d)
    lam = theta_image(d)
    mu = mu_of(d)
    # The builders certify the relations and a chain point's type at every
    # interface (the b-parts of its chain, theta's last); the checks read
    # them.  A stable sample is the coordinate-flag point of its
    # endomorphism, without sample_stable's random base change: that would
    # move it inside its orbit, which keeps every check below.  It is
    # re-checked here, by one relations pass and one read of each forward
    # map, which must be the inclusion of the first coordinates and so is
    # injective: the point is stable.  Its types are read off theta alone.
    # The forward maps A_{t-1} ... A_{i+1} embed V_{i+1} as the flag space
    # E_{i+1}, and by the relations A_{i+1} (A_i B_i) = (A_{i+1} B_{i+1})
    # A_{i+1}, so they carry A_i B_i to theta restricted to E_{i+1}, the
    # span of the first n_{i+1} coordinates, and one pass over theta types
    # every interface.  A theta that is not nilpotent types none, which
    # fails the checks.
    checks = [("lambda_dominates_mu", dominates(lam, mu))]
    chain = greedy_chain(d)
    build_from_chain(chain, field)
    checks.append(("greedy_nilpotency", _degrees_bounded([delta.b_part for delta in chain])))
    checks.append(("greedy_type_is_lambda", chain[-1].b_part == lam))
    for k in range(trials):
        chain = random_chain(d, rng)
        build_from_chain(chain, field)
        checks.append((f"chain{k}_bounded_by_lambda", dominates(lam, chain[-1].b_part)))
        checks.append((f"chain{k}_nilpotency", _degrees_bounded([delta.b_part for delta in chain])))
    for k in range(trials):
        z = _flag_point(d, field, rng)
        products = _rep_products(z)
        if products is None:
            raise CertificateError(f"sample_stable: the flag sample for {d} is not a stable point")
        if any(_partial_permutation(A.entries, A.rows, A.cols) != list(range(A.cols)) for A in z.A):
            raise CertificateError(
                f"theta-image: a forward map of the flag point for {d} is not a coordinate inclusion"
            )
        types = _jordan_flat(products[-1], d[-1], p, d[1:])
        checks.append((f"stable{k}_bounded_by_mu", types is not None and dominates(mu, types[-1])))
        checks.append((f"stable{k}_nilpotency", types is not None and _degrees_bounded(types)))
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
    is no vector to sweep, and an empty sweep is refused, not passed."""
    if max_last < 2:
        raise ValueError(f"max_last must be at least 2 for a nonempty sweep, got {max_last}")
    _budgeted(2, max_last, DEFAULT_BUDGET, f"subsets of 1..{max_last} to sweep")
    return [
        functools.partial(_theta_image_instance, d, p, seed, trials)
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
    dominated by lambda, and stable samples stay dominated by the flag
    bound.  lambda is not in general the largest type in the image of theta
    (see theta_image); the random chains seldom leave the greedy path, so
    passing does not show that it is."""
    instances = _map_jobs(_theta_image_tasks(max_last, p, seed, trials), jobs)
    return _theta_image_from(instances, max_last, p, seed, trials)


def _enumerate_z_points(dims: tuple, field: FieldSpec) -> Iterator[Tuple[int, QuiverRep]]:
    """One (weight, point) per point of the relation variety over a tiny
    field whose last forward map A_{t-1} is in rank normal form; the weight
    is the number of variety points the point stands for.

    Base change at the last two vertices takes A_{t-1} of rank r to
    [[I_r, 0], [0, 0]] and carries the completions of one rank-r matrix by
    the other maps onto those of any other, keeping the relations,
    injectivity and the subspace criterion.  So each completion of the normal
    form stands for _rank_count(d_t, d_{t-1}, r, p) points.

    The last relation B_{t-1} A_{t-1} = A_{t-2} B_{t-2} (= 0 when t = 2) is
    solved by lookup: for each normal form every B_{t-1} is listed, in
    itertools.product order, under its product B_{t-1} A_{t-1}.  The loop
    runs over the other maps only: one relations pass on the first t - 1
    vertices (_point_products) checks them and ends with A_{t-2} B_{t-2},
    and the loop takes the B_{t-1} listed under that.  B_{t-1} is the last
    block of the enumeration, so the points come in the order of a filter
    over every completion."""
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
    zero = (0,) * (cols * cols)
    for rank in range(min(rows, cols) + 1):
        weight = _rank_count(rows, cols, rank, p)
        normal = _rank_normal_form(rows, cols, rank)
        A_last = ExactMatrix._reduced(rows, cols, normal, field)
        solutions: Dict[tuple, List[ExactMatrix]] = {}
        for entries in itertools.product(range(p), repeat=rows * cols):
            key = tuple(_mul_flat(entries, normal, cols, rows, cols, p))
            solutions.setdefault(key, []).append(ExactMatrix._reduced(cols, rows, entries, field))
        for entries in itertools.product(range(p), repeat=offsets[-1]):
            mats = [entries[offsets[k] : offsets[k + 1]] for k in range(len(outer))]
            A_flat, B_flat = mats[: t - 2], mats[t - 2 :]
            products = _point_products(dims[:-1], A_flat, B_flat, p)
            if products is None:
                continue
            listed = solutions.get(tuple(products[-1]) if products else zero)
            if listed:
                A = tuple(ExactMatrix._reduced(r, c, m, field) for (r, c), m in zip(a_shapes, A_flat)) + (A_last,)
                B = tuple(ExactMatrix._reduced(r, c, m, field) for (r, c), m in zip(b_shapes, B_flat))
                for B_last in listed:
                    yield weight, QuiverRep._unchecked(dims, A, B + (B_last,), field)


def stability_report(
    dims_list: Sequence[Sequence[int]] = ((1, 2), (1, 2, 3)),
    p: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """Compare the injectivity criterion with the subspace definition of
    stability on every variety point over a tiny field, one rank-normal-form
    representative at a time; the counts weigh each by the points it stands
    for, and tuples counts every matrix tuple."""
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


def reducible_report(p: int = DEFAULT_PRIME, seed: int = 0) -> VerifyReport:
    """Reproduce the reducibility certificate on (1,4,5): greedy chain type
    (3,2) against stable type (3,1,1), with a non-injective middle forward
    map on the chain witness and an exactly generic stable witness."""
    field = FieldSpec(p)
    rng = derive_rng(seed, "reducible", (1, 4, 5))
    # The builders certify the relations and the stable witness's stability.
    report = witness_reducible((1, 4, 5), field, rng)
    chain, stable = report.witnesses[0], report.witnesses[1]
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
