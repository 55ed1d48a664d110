import hashlib
import itertools
import os
import pickle
import random
import subprocess
import sys
import textwrap

import pytest

from quiverz import abdiagrams, exactmat, quiverrep, verify
from quiverz.abdiagrams import ABDiagram, _placement, _random_draws, enumerate_b_parts, max_diagram, random_diagram
from quiverz.exactmat import (
    CertificateError,
    ExactMatrix,
    FieldSpec,
    _jordan_basis,
    _jordan_flat,
    _mul_flat,
    _partial_permutation,
    conjugator,
    hstack,
    identity,
    inverse,
    is_injective,
    jordan_type,
    mul,
    random_matrix,
    rank,
    zeros,
)
from quiverz.partitions import Partition, dominates, mu_of, partitions_of_weight, theta_image
from quiverz.quiverrep import (
    FlagPoint,
    QuiverRep,
    _backward_types,
    _certified,
    _degrees_bounded,
    _flag_blocks,
    _flag_point,
    _interface_recheck,
    _interface_types,
    _lowering_rows,
    _rep_products,
    _sample_stable,
    _top,
    _walk,
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
from quiverz.verify import strictly_monotone_vectors

from oracles import _flag_blocks as flag_blocks_by_endo
from oracles import (
    _chain_order,
    _lowering_endo,
    build_from_chain_by_chain_order,
    build_from_chain_dense,
    build_from_chain_by_conjugators,
    flag_sample_by_point,
    glued_maps_two_pass,
    mat_pow,
    nilpotency_by_powers,
    random_group_element,
    random_invertible,
    sample_flag_point,
    zero_rep,
)
from oracles import z_points_by_brute_force as _enumerate_z_points

F = FieldSpec()
F2 = FieldSpec(2)


def P(*parts):
    return Partition(parts)


def same_subspace(X, Y):
    return X.cols == Y.cols and rank(hstack(X, Y)) == X.cols


# --- construction / relations -------------------------------------------------


def test_quiverrep_shape_validation():
    with pytest.raises(ValueError):
        QuiverRep((1, 2), [zeros(1, 2, F)], [zeros(1, 2, F)], F)
    with pytest.raises(ValueError):
        QuiverRep((1, 2), [zeros(2, 1, F)], [], F)
    z = zero_rep((1, 2, 3), F)
    assert z.t == 3
    assert z.A[1].shape == (3, 2)


def test_json_round_trip():
    z = sample_stable((1, 4, 5), F, random.Random(0))
    again = QuiverRep.from_json_dict(z.to_json_dict())
    assert again == z


def test_check_relations():
    assert check_relations(zero_rep((1, 4, 5), F))
    z = sample_stable((1, 4, 5), F, random.Random(1))
    assert check_relations(z)
    bad = QuiverRep(
        (1, 2),
        [ExactMatrix.from_rows([[1], [0]], F)],
        [ExactMatrix.from_rows([[1, 0]], F)],
        F,
    )
    assert not check_relations(bad)  # B1 A1 = [1] != 0


def test_nilpotency_degrees():
    assert nilpotency_degrees(zero_rep((2, 3), F))
    # One vertex: no relation and no product, which must not read as failure.
    single = QuiverRep((3,), [], [], F)
    assert check_relations(single) is True
    assert nilpotency_degrees(single) is True
    z = sample_stable((1, 2, 5, 8, 12), F, random.Random(2))
    assert nilpotency_degrees(z)
    bad = QuiverRep(
        (1, 2),
        [ExactMatrix.from_rows([[1], [0]], F)],
        [ExactMatrix.from_rows([[1, 0]], F)],
        F,
    )
    with pytest.raises(ValueError, match="relations"):
        nilpotency_degrees(bad)


def _relations_by_matrices(z):
    """The relations checked on ExactMatrix products, map by map."""
    for i in range(z.t - 1):
        back_forward = mul(z.B[i], z.A[i])
        if i == 0:
            if not back_forward.is_zero():
                return False
        elif back_forward != mul(z.A[i - 1], z.B[i - 1]):
            return False
    return True


def _perturbed(z, rng):
    """z with one entry of one map raised by one."""
    maps = list(z.A) + list(z.B)
    k = rng.randrange(len(maps))
    entries = list(maps[k].entries)
    entries[rng.randrange(len(entries))] += 1
    maps[k] = ExactMatrix(maps[k].rows, maps[k].cols, entries, z.field)
    return QuiverRep(z.dims, maps[: z.t - 1], maps[z.t - 1 :], z.field)


def test_check_relations_matches_matrix_oracle():
    points = []
    for e in itertools.product(range(2), repeat=4):  # every tuple on (1, 2) over F_2
        A, B = ExactMatrix(2, 1, e[:2], F2), ExactMatrix(1, 2, e[2:], F2)
        points.append(QuiverRep((1, 2), [A], [B], F2))
    F3 = FieldSpec(3)
    rng = random.Random(16)
    for _ in range(300):
        A = [random_matrix(2, 1, F3, rng), random_matrix(3, 2, F3, rng)]
        B = [random_matrix(1, 2, F3, rng), random_matrix(2, 3, F3, rng)]
        points.append(QuiverRep((1, 2, 3), A, B, F3))
    for d in ((1, 2), (1, 4, 5), (2, 3, 5, 8), (1, 2, 5, 8, 12)):
        for z in (
            build_from_chain(greedy_chain(d), F),
            build_from_chain(random_chain(d, rng), F),
            sample_stable(d, F, rng),
        ):
            points += [z, _perturbed(z, rng)]
    verdicts = [check_relations(z) for z in points]
    assert verdicts == [_relations_by_matrices(z) for z in points]
    assert sum(verdicts[:16]) == 10 and True in verdicts[16:316] and False in verdicts[316:]


def _nilpotency_by_both_powers(z):
    """(B_i A_i)^i = 0 and (A_i B_i)^{i+1} = 0, each power taken."""
    for i in range(1, z.t):
        ba = mul(z.B[i - 1], z.A[i - 1])
        ab = mul(z.A[i - 1], z.B[i - 1])
        if not mat_pow(ba, i).is_zero() or not mat_pow(ab, i + 1).is_zero():
            return False
    return True


def test_nilpotency_degrees_matches_two_power_oracle():
    points = _enumerate_z_points((1, 2, 3), F2)
    assert points
    for z in points:
        assert nilpotency_degrees(z) == _nilpotency_by_both_powers(z)


def test_nilpotency_degrees_matches_power_loop_oracle(monkeypatch):
    """The one Jordan pass per A_i B_i against the mat_pow loop: chain and
    stable points over F_32003 pass both; with the input check patched away,
    a non-nilpotent A_1 B_1 and a nilpotent one with a block longer than 2
    fail both."""
    rng = random.Random(17)
    for d in ((1, 2), (1, 4, 5), (2, 3, 5, 8), (1, 2, 5, 8, 12), (3, 7, 12, 20)):
        for z in (
            build_from_chain(greedy_chain(d), F),
            build_from_chain(random_chain(d, rng), F),
            sample_stable(d, F, rng),
        ):
            assert nilpotency_degrees(z) is True
            assert nilpotency_by_powers(z) is True
    rows = ExactMatrix.from_rows
    idempotent = QuiverRep((1, 2), [rows([[1], [0]], F)], [rows([[1, 0]], F)], F)  # A_1 B_1 = e_11
    shift = QuiverRep((2, 3), [rows([[1, 0], [0, 1], [0, 0]], F)], [rows([[0, 1, 0], [0, 0, 1]], F)], F)
    assert jordan_type(mul(shift.A[0], shift.B[0])) == P(3)
    # Both points fail B_1 A_1 = 0; the relations pass is patched to skip
    # that check and hand on their one product, theta.
    monkeypatch.setattr(
        quiverrep, "_point_products", lambda dims, A, B, p: [_mul_flat(A[0], B[0], dims[1], dims[0], dims[1], p)]
    )
    for z in (idempotent, shift):
        assert nilpotency_degrees(z) is False
        assert nilpotency_by_powers(z) is False


def test_degrees_bound_reads_each_types_first_part():
    """_degrees_bounded reads the longest block of each type off its first
    part: it agrees with the maximum over every part, the check it
    replaced, on every list of up to three types, each None, the empty
    partition or a partition of weight at most 5.  Of the 20 types, 12
    pass the bound 2, 16 the bound 3 and 18 the bound 4, so 8 + (400 -
    12 * 16) + (8000 - 12 * 16 * 18) = 4760 lists fail."""
    types = [None, P()] + [eta for w in range(1, 6) for eta in partitions_of_weight(w)]
    count = 0
    for k in range(4):
        for combo in itertools.product(types, repeat=k):
            want = all(typ is not None and max(typ.parts, default=0) <= i + 1 for i, typ in enumerate(combo, start=1))
            assert _degrees_bounded(list(combo)) == want, combo
            count += not want
    assert count == 4760


# --- stability ------------------------------------------------------------------


def test_is_stable_examples():
    z = sample_stable((1, 4, 5), F, random.Random(3))
    assert is_stable(z)
    z1 = build_from_chain(greedy_chain((1, 4, 5)), F)
    assert not is_stable(z1)  # second forward map has a kernel
    assert not is_injective(z1.A[1])
    z0 = zero_rep((1, 2), F)
    assert not is_stable(z0)


def test_stability_subspace_cross_check_tiny():
    """Exhaustive agreement over F_2 at dims (1,2): every variety point."""
    pts = 0
    for a_entries in itertools.product(range(2), repeat=2):
        for b_entries in itertools.product(range(2), repeat=2):
            z = QuiverRep(
                (1, 2),
                [ExactMatrix(2, 1, a_entries, F2)],
                [ExactMatrix(1, 2, b_entries, F2)],
                F2,
            )
            if not check_relations(z):
                continue
            pts += 1
            assert is_stable(z) == is_stable_subspace_criterion(z)
    assert pts == 10


def test_subspace_criterion_requires_relations():
    bad = QuiverRep(
        (1, 2),
        [ExactMatrix.from_rows([[1], [0]], F2)],
        [ExactMatrix.from_rows([[1, 0]], F2)],
        F2,
    )
    with pytest.raises(ValueError):
        is_stable_subspace_criterion(bad)


# --- theta / action ---------------------------------------------------------------


def test_theta_examples():
    assert theta(zero_rep((1, 4, 5), F)).is_zero()
    z1 = build_from_chain(greedy_chain((1, 4, 5)), F)
    assert jordan_type(theta(z1)) == P(3, 2)
    with pytest.raises(ValueError):
        theta(zero_rep((3,), F))


def test_act_identity():
    z = sample_stable((1, 4, 5), F, random.Random(4))
    g = [identity(n, F) for n in (1, 4, 5)]
    assert act(g, z) == z


def test_act_preserves_structure():
    rng = random.Random(5)
    z = sample_stable((1, 4, 5), F, rng)
    g = random_group_element((1, 4, 5), F, rng)
    zg = act(g, z)
    assert check_relations(zg)
    assert is_stable(zg)
    assert jordan_type(theta(zg)) == jordan_type(theta(z))


def test_act_subgroup_fixes_theta_exactly():
    rng = random.Random(6)
    z = sample_stable((1, 2, 5, 8, 12), F, rng)
    th = theta(z)
    for _ in range(100):
        h = random_group_element((1, 2, 5, 8, 12), F, rng, fix_last=True)
        assert theta(act(h, z)) == th
    # a t-1 component tuple is the same subgroup element
    h = random_group_element((1, 2, 5, 8, 12), F, rng, fix_last=True)
    assert act(h[:-1], z) == act(h, z)


def test_act_errors():
    z = zero_rep((1, 2), F)
    with pytest.raises(ValueError, match="invertible"):
        act([zeros(1, 1, F), identity(2, F)], z)
    with pytest.raises(ValueError, match="shape|components"):
        act([identity(2, F), identity(2, F)], z)


# --- sampling ----------------------------------------------------------------------


def test_sample_stable_smallest():
    z = sample_stable((1, 2), F, random.Random(7))
    assert is_injective(z.A[0])
    assert dominates(P(2), jordan_type(theta(z)))


def test_sample_stable_generic_type():
    hits = 0
    for k in range(40):
        z = sample_stable((1, 4, 5), F, random.Random(100 + k))
        if jordan_type(theta(z)) == P(3, 1, 1):
            hits += 1
    assert hits >= 38


def test_sample_stable_bounded_by_mu():
    for d in ((1, 4, 5), (1, 2, 5, 8, 12)):
        for k in range(10):
            z = sample_stable(d, F, random.Random(200 + k))
            assert dominates(mu_of(d), jordan_type(theta(z)))


def test_sample_stable_matches_act_oracle():
    """sample_stable equals act(random_group_element(...), z0) on the point
    z0 of inclusions and restrictions of the same lowering endomorphism, from
    the same rng state, and leaves the rng in the same state."""
    for field in (F2, FieldSpec(3), F):
        for d in ((1, 2), (1, 4, 5), (2, 3, 5, 8), (1, 2, 5, 8, 12)):
            for seed in range(3):
                rng_fast, rng_slow = random.Random(seed), random.Random(seed)
                z = sample_stable(d, field, rng_fast)
                endo = _lowering_endo(d, field, rng_slow)
                A = [
                    ExactMatrix(d[i + 1], d[i], [int(r == c) for r in range(d[i + 1]) for c in range(d[i])], field)
                    for i in range(len(d) - 1)
                ]
                B = [
                    ExactMatrix(d[i], d[i + 1], [endo.at(r, c) for r in range(d[i]) for c in range(d[i + 1])], field)
                    for i in range(len(d) - 1)
                ]
                z0 = QuiverRep(d, A, B, field)
                assert z == act(random_group_element(d, field, rng_slow), z0)
                assert rng_fast.getstate() == rng_slow.getstate()


def test_sample_stable_rejects_non_monotone():
    with pytest.raises(ValueError):
        sample_stable((2, 2), F, random.Random(0))


def test_flag_sample_base_changes_to_sample_stable():
    """The re-checked flag point, base-changed by act (the generic base
    change) with the group element drawn after it from the same stream, is
    _sample_stable's point, for every strictly monotone vector with last
    entry at most 6.  Both points have the same interface types, and the
    type the flag point's re-check returns is _jordan_flat of its theta:
    theta-image checks the flag point, and sample_stable keeps its draws
    and its bytes."""
    for p in (2, 3, 32003):
        field = FieldSpec(p)
        for r in range(2, 7):
            for d in itertools.combinations(range(1, 7), r):
                for seed in range(2):
                    rng_flag, rng_stable = random.Random(seed), random.Random(seed)
                    z0, typ = _certified(_flag_point(d, field, rng_flag))
                    z, _ = _sample_stable(d, field, rng_stable)
                    assert act(random_group_element(d, field, rng_flag), z0) == z
                    assert rng_flag.getstate() == rng_stable.getstate()
                    types = _interface_types(z0)
                    assert types == _interface_types(z)
                    assert types[-1] == typ == _jordan_flat(theta(z0).entries, d[-1], p)


def _rows_with_one_at(r, c):
    """_lowering_rows with entry (r, c) of its rows set to 1."""
    real = _lowering_rows

    def patched(dims, p, rng):
        rows = real(dims, p, rng)
        rows[r * dims[-1] + c] = 1
        return rows

    return patched


def test_flag_sample_rejects_endo_outside_lowering_pattern(monkeypatch):
    """An entry outside the lowering pattern, at any position of the
    n_{t-1} rows a draw fills, makes the flag sample raise
    CertificateError, and an entry inside it passes: such an entry breaks
    a relation of the coordinate-flag point.  The last n_t - n_{t-1} rows
    of the endomorphism enter no map of that point and are never drawn.
    In a plain and in a python -O interpreter the theta-image instance
    that draws the sample refuses every position outside the pattern and
    passes every one inside it."""
    vectors = ((1, 2), (1, 4, 5), (2, 3, 5), (1, 2, 4, 6))
    cases = []  # (d, r, c, whether (r, c) is inside the pattern)
    for d in vectors:
        bound = [low for low, n in zip((0,) + d, d) for _ in range(low, n)]
        cases += [(d, r, c, r < bound[c]) for r in range(d[-2]) for c in range(d[-1])]
    for d, r, c, inside in cases:
        monkeypatch.setattr(quiverrep, "_lowering_rows", _rows_with_one_at(r, c))
        if inside:
            _certified(_flag_point(d, F, random.Random(r)))
        else:
            with pytest.raises(CertificateError, match="sample_stable"):
                _certified(_flag_point(d, F, random.Random(r)))
    script = textwrap.dedent(
        """
        from quiverz import exactmat, quiverrep, verify
        real = quiverrep._lowering_rows

        def one_at(r, c):
            def patched(dims, p, rng):
                rows = real(dims, p, rng)
                rows[r * dims[-1] + c] = 1
                return rows

            return patched

        for d in %r:
            for r in range(d[-2]):
                for c in range(d[-1]):
                    quiverrep._lowering_rows = one_at(r, c)
                    try:
                        ok = verify._theta_image_instance(d, exactmat.DEFAULT_PRIME, r, 1)["ok"]
                        print(d, r, c, "passed" if ok else "failed")
                    except exactmat.CertificateError as exc:
                        print(d, r, c, "raised in", str(exc).split(":")[0])
        """
        % (vectors,)
    )
    expected = [f"{d} {r} {c} " + ("passed" if inside else "raised in sample_stable") for d, r, c, inside in cases]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == expected, flags


_MOVED_BREAKS = textwrap.dedent(
    """
    from quiverz import exactmat, quiverrep


    def broken_relation(z, g, ginv):  # the flag point with B_1 A_1 = 1 at (0, 0)
        B = list(z.B)
        entries = list(B[0].entries)
        entries[0] = 1
        B[0] = exactmat.ExactMatrix(B[0].rows, B[0].cols, entries, z.field)
        return quiverrep.QuiverRep(z.dims, z.A, B, z.field)


    def unstable(z, g, ginv):  # the zero point: on the variety, A_1 not injective
        A = [exactmat.zeros(M.rows, M.cols, z.field) for M in z.A]
        B = [exactmat.zeros(M.rows, M.cols, z.field) for M in z.B]
        return quiverrep.QuiverRep(z.dims, A, B, z.field)
    """
)


def test_sample_stable_rechecks_the_base_changed_point(monkeypatch):
    """sample_stable's one re-check of the base-changed point (_certified)
    refuses a point that breaks a relation and a point on the variety with
    a forward map that is not injective: with _moved patched to return
    either, sample_stable raises CertificateError, in-process and in a plain
    and a python -O interpreter.  Each patched point breaks only the
    condition named, so each branch of the re-check is tried alone."""
    moved = {}
    exec(_MOVED_BREAKS, moved)
    vectors = ((1, 2), (1, 4, 5), (2, 3, 5), (1, 2, 4, 6))
    for d in vectors:
        z0 = _flag_point(d, F, random.Random(0))
        assert is_stable(moved["broken_relation"](z0, None, None))
        assert not check_relations(moved["broken_relation"](z0, None, None))
        assert check_relations(moved["unstable"](z0, None, None))
        assert not is_stable(moved["unstable"](z0, None, None))
        for name in ("broken_relation", "unstable"):
            monkeypatch.setattr(quiverrep, "_moved", moved[name])
            with pytest.raises(CertificateError, match="sample_stable"):
                sample_stable(d, F, random.Random(0))
    script = _MOVED_BREAKS + textwrap.dedent(
        """
        import random

        for d in %r:
            for patch in (broken_relation, unstable):
                quiverrep._moved = patch
                try:
                    quiverrep.sample_stable(d, exactmat.FieldSpec(), random.Random(0))
                    print(d, patch.__name__, "passed")
                except exactmat.CertificateError as exc:
                    print(d, patch.__name__, "raised in", str(exc).split(":")[0])
        """
        % (vectors,)
    )
    expected = [f"{d} {name} raised in sample_stable" for d in vectors for name in ("broken_relation", "unstable")]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == expected, flags


def test_certified_type_matches_jordan_type_of_theta():
    """The type _certified reads off the ranks of the backward composites
    is _jordan_flat of theta, formed here by a relations pass
    (_rep_products), on the stable samples of every strictly monotone
    vector with last entry at most 7, over F_2, F_3, F_32003 and
    F_(2^31 - 1), three seeds each.  The vectors with t = 2 are among them,
    and over F_2 and F_3 many samples are not generic (not of type mu_of(d)),
    also at t = 2.  With one vertex there is no theta: the type is None."""
    non_generic = set()
    for p in (2, 3, 32003, 2**31 - 1):
        field = FieldSpec(p)
        for d in strictly_monotone_vectors(7):
            for seed in range(3):
                z, typ = _sample_stable(d, field, random.Random(seed))
                assert typ == _jordan_flat(_rep_products(z)[-1], d[-1], p), (p, d, seed)
                if typ != mu_of(d):
                    non_generic.add((p, len(d)))
    assert {(2, 2), (3, 2), (2, 4), (3, 4)} <= non_generic
    assert _certified(_flag_point((3,), F, random.Random(0))) == (_flag_point((3,), F, random.Random(0)), None)


def test_certified_refuses_a_point_that_breaks_only_the_last_relation():
    """The flag point with 1 added to entry (0, n_{t-1} - 1) of B_{t-1}, a
    column that the inclusion A_{t-1} keeps, meets every relation but
    B_{t-1} A_{t-1} = A_{t-2} B_{t-2} (B_1 A_1 = 0 when t = 2) and stays
    stable; _certified refuses it with CertificateError, in a plain and in
    a python -O interpreter."""
    vectors = ((1, 2), (1, 4, 5), (2, 3, 5), (1, 2, 4, 6), (2, 5, 8, 12, 13, 16))
    script = textwrap.dedent(
        """
        import random
        from quiverz import exactmat, quiverrep

        for d in %r:
            z = quiverrep._flag_point(d, exactmat.FieldSpec(), random.Random(0))
            last = list(z.B[-1].entries)
            last[d[-2] - 1] = (last[d[-2] - 1] + 1) %% z.field.p
            B = z.B[:-1] + (exactmat.ExactMatrix(d[-2], d[-1], last, z.field),)
            broken = quiverrep.QuiverRep(d, z.A, B, z.field)
            A_flat, B_flat = [M.entries for M in z.A], [M.entries for M in B]
            assert quiverrep.is_stable(broken) and not quiverrep.check_relations(broken)
            assert quiverrep._point_products(d[:-1], A_flat[:-1], B_flat[:-1], z.field.p) is not None
            try:
                quiverrep._certified(broken)
                print(d, "passed")
            except exactmat.CertificateError as exc:
                print(d, "raised in", str(exc).split(":")[0])
        """
        % (vectors,)
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for flags in ([], ["-O"]):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [f"{d} raised in sample_stable" for d in vectors], flags


def test_flag_endo_matches_flag_point_oracle(monkeypatch):
    """The drawn rows' re-check (_flag_blocks) against the check
    theta-image made on the coordinate-flag point (flag_sample_by_point),
    for every strictly monotone d with last entry at most 5 over F_2 and
    F_32003 and every single-entry change of the n_{t-1} drawn rows, and
    the rows unchanged.  _flag_blocks passes exactly when the oracle passes
    on the endomorphism of those rows, its last n_t - n_{t-1} rows zero,
    whose theta is then that endomorphism; where both pass, the blocks are
    the oracle point's backward maps and the prefix types the image sweep
    reads off them (_backward_types) equal the oracle's and
    _interface_types of the flag point."""
    seen = {"passed": 0, "refused": 0}
    for p in (2, 32003):
        field = FieldSpec(p)
        for d in strictly_monotone_vectors(5):
            n, m = d[-1], d[-2]
            drawn = _lowering_rows(d, p, random.Random(p + n))
            for slot in [None] + list(range(m * n)):
                rows = list(drawn)
                if slot is not None:
                    rows[slot] = (rows[slot] + 1) % p
                endo = ExactMatrix(n, n, rows + [0] * ((n - m) * n), field)
                monkeypatch.setattr(quiverrep, "_lowering_rows", lambda dims, p, rng, rows=rows: list(rows))
                try:
                    z, types = flag_sample_by_point(d, field, endo)
                    assert theta(z) == endo
                    oracle_ok = True
                except CertificateError:
                    oracle_ok = False
                try:
                    blocks = _flag_blocks(d, field, None)
                except CertificateError:
                    assert not oracle_ok, (p, d, slot)
                    seen["refused"] += 1
                    continue
                assert oracle_ok, (p, d, slot)
                assert blocks == [list(M.entries) for M in z.B]
                fast_types = _backward_types(blocks, d, p, d[1:])
                assert fast_types == types == _interface_types(_flag_point(d, field, None)), (p, d, slot)
                seen["passed"] += 1
    assert all(seen.values()), seen


def test_flag_blocks_match_parent_draw():
    """_flag_blocks against the draw it replaced (oracles._flag_blocks,
    which draws the whole n_t x n_t endomorphism, re-checks it column by
    column and copies its leading blocks): the same blocks, and rng left
    in the same state, for every strictly monotone d with last entry at
    most 8 and for one vertex, over F_2, F_3 and F_32003, several samples
    from one stream each; and _flag_point's backward maps are those
    blocks."""
    for p in (2, 3, 32003):
        field = FieldSpec(p)
        for d in [(1,), (4,)] + strictly_monotone_vectors(8):
            rng, twin = random.Random(p * 7 + len(d)), random.Random(p * 7 + len(d))
            for _ in range(3):
                assert _flag_blocks(d, field, rng) == flag_blocks_by_endo(d, field, twin), (p, d)
                assert rng.getstate() == twin.getstate(), (p, d)
            assert [list(M.entries) for M in _flag_point(d, field, rng).B] == flag_blocks_by_endo(d, field, twin)
            assert rng.getstate() == twin.getstate(), (p, d)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_flag_blocks_refuse_each_forbidden_entry(flags):
    """Each forbidden position of the drawn rows (row r, n_{j-1} <= r <
    n_j, column c < n_j) set to a nonzero value makes _flag_blocks raise
    CertificateError, also under python -O, for every strictly monotone d
    with last entry at most 5; every allowed position passes."""
    script = textwrap.dedent(
        """
        import random
        from quiverz import exactmat, quiverrep, verify
        real = quiverrep._lowering_rows
        field = exactmat.FieldSpec(3)
        for d in verify.strictly_monotone_vectors(5):
            for r in range(d[-2]):
                for c in range(d[-1]):
                    def patched(dims, p, rng, r=r, c=c):
                        rows = real(dims, p, rng)
                        rows[r * dims[-1] + c] = 2
                        return rows
                    quiverrep._lowering_rows = patched
                    try:
                        quiverrep._flag_blocks(d, field, random.Random(r))
                        print(d, r, c, "passed")
                    except exactmat.CertificateError as exc:
                        print(d, r, c, "does not lower the flag" in str(exc))
        """
    )
    expected = []
    for d in strictly_monotone_vectors(5):
        zero = [n for low, n in zip((0,) + d, d[:-1]) for _ in range(low, n)]  # row r vanishes below column zero[r]
        expected += [f"{d} {r} {c} " + ("passed" if c >= zero[r] else "True") for r in range(d[-2]) for c in range(d[-1])]
    assert "True" in {line.split()[-1] for line in expected}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == expected, flags


# --- flags -----------------------------------------------------------------------


def test_flag_point_validation():
    x = sample_flag_point((1, 4, 5), F, random.Random(8))
    x.validate()
    broken = FlagPoint(x.flag, identity(5, F))
    with pytest.raises(ValueError):
        broken.validate()


def test_flag_point_keeps_flag_as_tuple_and_compares_by_fields():
    x = sample_flag_point((1, 4, 5), F, random.Random(8))
    listed = FlagPoint(list(x.flag), x.endo)
    assert isinstance(listed.flag, tuple) and listed == x
    assert pickle.loads(pickle.dumps(x)) == x
    assert FlagPoint(x.flag, identity(5, F)) != x
    assert FlagPoint(x.flag[:1], x.endo) != x


def test_from_flag_point_zero_endo():
    basis1 = ExactMatrix.from_rows([[1], [0], [0]], F)
    basis2 = ExactMatrix.from_rows([[1, 0], [0, 1], [0, 0]], F)
    x = FlagPoint((basis1, basis2), zeros(3, 3, F))
    z = from_flag_point(x)
    assert all(M.is_zero() for M in z.B)
    assert is_stable(z)


def test_from_flag_point_round_trip():
    rng = random.Random(9)
    for _ in range(10):
        x = sample_flag_point((1, 4, 5), F, rng)
        z = from_flag_point(x)
        assert check_relations(z) and is_stable(z)
        assert theta(z) == x.endo
        assert dominates(mu_of((1, 4, 5)), jordan_type(theta(z)))
        back = alpha(z)
        assert back.endo == x.endo
        for got, want in zip(back.flag, x.flag):
            assert same_subspace(got, want)


def test_alpha_on_plain_flag_construction():
    """With inclusion forward maps the image flag is the coordinate flag."""
    rng = random.Random(10)
    d = (1, 2, 4)
    nt = d[-1]
    basis = [
        ExactMatrix.from_rows(
            [[1 if r == c else 0 for c in range(n)] for r in range(nt)], F
        )
        for n in d[:-1]
    ]
    x = FlagPoint(tuple(basis), _lowering_endo(d, F, rng))
    z = from_flag_point(x)
    got = alpha(z)
    for got_basis, want_basis in zip(got.flag, basis):
        assert same_subspace(got_basis, want_basis)


def test_alpha_errors():
    z1 = build_from_chain(greedy_chain((1, 4, 5)), F)
    with pytest.raises(ValueError, match="stable"):
        alpha(z1)
    bad = QuiverRep(
        (1, 2),
        [ExactMatrix.from_rows([[1], [0]], F)],
        [ExactMatrix.from_rows([[1, 0]], F)],
        F,
    )
    with pytest.raises(ValueError, match="relation"):
        alpha(bad)


def test_alpha_and_from_flag_point_form_theta_once(monkeypatch):
    """alpha and from_flag_point take theta from the last product of their
    one relations pass: each makes one _point_products call and no theta
    call, and both still round-trip.  A flag of length one has no theta and
    is refused."""
    calls = {"_point_products": 0, "theta": 0}
    for name in calls:

        def counting(*args, name=name, real=getattr(quiverrep, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(quiverrep, name, counting)
    rng = random.Random(11)
    for d in ((1, 2), (1, 4, 5), (2, 3, 5), (1, 2, 4, 6)):
        x = sample_flag_point(d, F, rng)
        z = from_flag_point(x)
        assert calls == {"_point_products": 1, "theta": 0}, d
        back = alpha(z)
        assert calls == {"_point_products": 2, "theta": 0}, d
        calls.update(_point_products=0)
        assert back.endo == x.endo == mul(z.A[-1], z.B[-1])
        for got, want in zip(back.flag, x.flag):
            assert same_subspace(got, want)
    with pytest.raises(ValueError, match="two vertices"):
        from_flag_point(FlagPoint((), zeros(3, 3, F)))


# --- chains ---------------------------------------------------------------------


def test_greedy_chain_row_example():
    chain = greedy_chain((1, 4, 5))
    assert chain[0].to_strings() == ["bab", "b", "b"]
    assert chain[1].to_strings() == ["babab", "bab", "a"]
    z = build_from_chain(chain, F)
    assert z.dims == (1, 4, 5)
    assert jordan_type(theta(z)) == P(3, 2)
    assert check_relations(z) and nilpotency_degrees(z)


def test_build_from_chain_single_row():
    z = build_from_chain([ABDiagram.from_strings(["bab"])], F)
    assert z.dims == (1, 2)
    assert jordan_type(theta(z)) == P(2)
    zsplit = build_from_chain([ABDiagram.from_strings(["ab", "b"])], F)
    assert jordan_type(theta(zsplit)) == P(1, 1)


def test_build_from_chain_takes_conjugator_inverse_from_bases(monkeypatch):
    """build_from_chain eliminates nothing: no inverse, no RREF and no rank
    echelon, neither to glue nor in its re-check, which reads the type of
    every interface off its chains.  conjugator takes g = g1 g2^-1 from the Jordan bases with one
    inverse, of g2, and g2 g1^-1, the g^-1 the conjugator oracle of the
    chains glues with, is inverse(g)."""
    counted = {"_inverse_flat": [], "_rref": [], "_echelon": []}

    def counting(name):
        real = getattr(exactmat, name)

        def wrapper(*args):
            counted[name].append(args[1])
            return real(*args)

        return wrapper

    for dims in ((1, 4, 5), (1, 2, 5, 8, 12), (2, 4, 6)):
        chain = greedy_chain(dims)
        expected = build_from_chain(chain, F)
        with monkeypatch.context() as m:
            for name in counted:
                m.setattr(exactmat, name, counting(name))
            assert build_from_chain(chain, F) == expected
        assert counted == {"_inverse_flat": [], "_rref": [], "_echelon": []}
    rng = random.Random(19)
    for eta in (P(1), P(2, 1), P(4, 2, 2, 1), P(6, 3, 3, 2)):
        n = exactmat.canonical_nilpotent(eta, F)
        h1, h2 = (random_invertible(eta.weight, F, rng) for _ in range(2))
        n1, n2 = mul(mul(h1, n), inverse(h1)), mul(mul(h2, n), inverse(h2))
        with monkeypatch.context() as m:
            m.setattr(exactmat, "_inverse_flat", counting("_inverse_flat"))
            g = conjugator(n1, n2)
        assert counted["_inverse_flat"] == [eta.weight]
        counted["_inverse_flat"].clear()
        g1, _ = _jordan_basis(n1)
        g2, _ = _jordan_basis(n2)
        assert g == mul(g1, inverse(g2))
        assert mul(g2, inverse(g1)) == inverse(g)


def test_build_from_chain_computes_nothing_before_its_recheck(monkeypatch):
    """The glue forms no product and no matrix, reads no chain and builds
    no pair with build_pair before its re-check.  A chain is walked once
    (_walk), and at each of its t - 1 interfaces the walk numbers the
    diagram (_numbered_pair) and re-checks that interface at once
    (_interface_recheck), which composes the index maps and reads the chains
    of A_i B_i (_index_chains).  Then each of the 2 (t - 1) maps is written
    once as its matrix (_index_matrix) and read back once
    (_partial_permutation), and no product is formed at all, where the
    re-check of the point once formed the 2 (t - 1) products of the
    relations and theta.  When the maps of the whole chain were re-checked
    in a second pass, one re-check followed every numbering."""
    calls = []
    depth = [0]

    def recording(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, depth[0]))
            return real(*args, **kwargs)

        return wrapper

    def nesting(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, depth[0]))
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    for name in ("_walk", "_interface_recheck"):
        monkeypatch.setattr(quiverrep, name, nesting(name, getattr(quiverrep, name)))
    for name in ("_numbered_pair", "_mul_flat", "_index_chains", "_index_matrix", "_partial_permutation"):
        monkeypatch.setattr(quiverrep, name, recording(name, getattr(quiverrep, name)))
    for name in ("_mul_flat", "_chains"):
        monkeypatch.setattr(exactmat, name, recording(name, getattr(exactmat, name)))
    monkeypatch.setattr(abdiagrams, "build_pair", recording("build_pair", abdiagrams.build_pair))
    rng = random.Random(31)
    for dims in ((1, 4, 5), (1, 2, 5, 8, 12), (4, 8, 9), (12, 27, 40)):
        for chain in (greedy_chain(dims), random_chain(dims, rng)):
            calls.clear()
            build_from_chain(chain, F)
            t = len(dims)
            assert calls == (
                [("_walk", 0)]
                + [("_numbered_pair", 1), ("_interface_recheck", 1), ("_index_chains", 2)] * (t - 1)
                + [("_index_matrix", 0)] * (2 * (t - 1))
                + [("_partial_permutation", 0)] * (2 * (t - 1))
            )


def test_build_from_chain_certifies_every_interface(monkeypatch):
    """Glued from the pairs of another chain with the same last b-part, a
    point of (1, 3, 4) meets the relations and theta has the claimed type,
    which was all the re-check read before; but A_1 B_1 has type (2, 1), not
    the (1, 1, 1) its chain claims, and build_from_chain raises at the
    first interface's re-check, before the second diagram is numbered.  The
    pairs are swapped where the walk numbers the letters of each diagram."""
    first = enumerate_b_parts(P(1), 2, witnesses=True)
    right = [first[P(1, 1, 1)], enumerate_b_parts(P(1, 1, 1), 1, witnesses=True)[P(2, 2)]]
    wrong = [first[P(2, 1)], enumerate_b_parts(P(2, 1), 1, witnesses=True)[P(2, 2)]]
    z = build_from_chain(wrong, F)
    assert check_relations(z) and jordan_type(theta(z)) == right[-1].b_part
    swap = {id(good): bad for good, bad in zip(right, wrong)}
    real = quiverrep._numbered_pair
    numbered = []

    def numbering(delta, a_starts=None):
        numbered.append(delta)
        return real(swap[id(delta)], a_starts)

    monkeypatch.setattr(quiverrep, "_numbered_pair", numbering)
    with pytest.raises(CertificateError, match="build_from_chain"):
        build_from_chain(right, F)
    assert numbered == right[:1]


def test_lowering_endo_matches_checked_constructor():
    """_lowering_rows draws the same stream as randrange, column by column,
    and gives the first n_{t-1} rows of the lowering endomorphism the
    checked constructor builds from it, whose other rows are zero."""
    for p in (2, 32003):
        field = FieldSpec(p)
        for dims in ((1, 2), (1, 4, 5), (2, 3, 7, 9)):
            rng, twin = random.Random(p), random.Random(p)
            rows = _lowering_rows(dims, p, rng)
            nt = dims[-1]
            entries = [0] * (nt * nt)
            for lower, n in zip((0,) + dims, dims):
                for c in range(lower, n):
                    for r in range(lower):
                        entries[r * nt + c] = twin.randrange(p)
            endo = ExactMatrix(nt, nt, entries, field)
            assert rows == list(endo.entries[: dims[-2] * nt]) and not any(endo.entries[dims[-2] * nt :])
            assert rng.getstate() == twin.getstate()


def _chains_to_compare():
    """Per field, the greedy chain and three seeded random chains of every
    strictly monotone vector with last entry at most 7, then the greedy and
    one random chain of three larger vectors at p = 32003."""
    for p in (2, 3, 32003):
        field = FieldSpec(p)
        rng = random.Random(p)
        for r in range(2, 8):
            for dims in itertools.combinations(range(1, 8), r):
                yield dims, field, greedy_chain(dims)
                for _ in range(3):
                    yield dims, field, random_chain(dims, rng)
    rng = random.Random(23)
    for dims in ((4, 11, 16), (4, 7, 13, 16), (12, 27, 40)):
        yield dims, F, greedy_chain(dims)
        yield dims, F, random_chain(dims, rng)


def _maps(walked):
    """(the chain, its forward maps A, its backward maps B) of the states of
    a walk (_walk)."""
    return tuple([state[k] for state in walked] for k in (1, 2, 3))


def _greedy(dims, path):
    """The greedy chain of dims walked on path."""
    return _maps(_walk(dims, path, _top, max_diagram))[0]


def _random(dims, path, rng):
    """A random chain of dims walked on path, random_diagram's draws from
    rng at each step."""
    return _maps(_walk(dims, path, lambda eta, step: _random_draws(eta, step, rng), _placement))[0]


def _placed_one_by_one(dims, place):
    """The chain of dims placed diagram by diagram, place(eta, step) at each
    step from the b-part before, with no walk and no glue."""
    eta, chain = P(*([1] * dims[0])), []
    for lo, hi in zip(dims, dims[1:]):
        chain.append(place(eta, hi - lo))
        eta = chain[-1].b_part
    return chain


def _replayed(chain):
    """(dims, A, B) of the walk that takes the diagrams of chain as its
    draws, as build_from_chain walks it."""
    dims = (chain[0].total_a,) + tuple(delta.total_b for delta in chain)
    steps = itertools.count()
    walked, A, B = _maps(_walk(dims, [], lambda eta, step: (next(steps),), lambda eta, step, i: chain[i]))
    assert walked == list(chain)
    return dims, A, B


def _rechecked(chain, A, B):
    """A_i B_i of every interface, theta last, as index maps, if the maps A
    and B pass _interface_recheck at each interface of chain in turn, else
    CertificateError."""
    products = []
    ab = [-1] * chain[0].total_a
    for delta, a, b in zip(chain, A, B):
        ab = _interface_recheck(a, b, ab, delta)
        products.append(ab)
    return products


def test_walk_glue_matches_two_pass_oracle():
    """The walk that numbers and re-checks each diagram as it places it
    gives the (dims, A, B) of the glue that numbered every diagram first and
    re-checked the chain in a second pass (oracles.glued_maps_two_pass): on
    every chain of _chains_to_compare, replayed as build_from_chain walks
    it, and on the greedy chain and three seeded random chains of every
    strictly monotone vector with last entry at most 8, as the walk places
    them."""
    count = 0
    for dims, _, chain in _chains_to_compare():
        assert _replayed(chain) == glued_maps_two_pass(chain), (dims, chain)
        count += 1
    rng = random.Random(53)
    for dims in strictly_monotone_vectors(8):
        draw = lambda eta, step: _random_draws(eta, step, rng)  # noqa: E731
        walks = [_walk(dims, [], _top, max_diagram)] + [_walk(dims, [], draw, _placement) for _ in range(3)]
        for chain, A, B in map(_maps, walks):
            assert (dims, A, B) == glued_maps_two_pass(chain), (dims, chain)
            count += 1
    assert count == 3 * 4 * 120 + 6 + 4 * 247


def test_prefix_walk_matches_walk_from_n1(monkeypatch):
    """The greedy chain walked on along a prefix stack (_walk) is the chain
    of top placements placed one by one (max_diagram), and greedy_chain's on
    a fresh stack, for every strictly monotone d with last entry at most 9,
    whatever vector the stack walked before: in sorted order, reversed and
    in a seeded shuffle, each on one stack.  The stack holds one entry per
    vertex of the vector walked last, each past n_1 with one state, the
    greedy one, as no random chain is walked.  In sorted order, the
    depth-first preorder of the prefix tree, each vector costs one glued
    step: at max_last 6, 57 steps (_numbered_pair), where walking each from
    n_1 took 129."""
    vectors = strictly_monotone_vectors(9)
    want = {d: _placed_one_by_one(d, max_diagram) for d in vectors}
    shuffled = list(vectors)
    random.Random(9).shuffle(shuffled)
    for order in (vectors, vectors[::-1], shuffled):
        path = []
        for d in order:
            assert _greedy(d, path) == want[d] == greedy_chain(d), d
            assert [entry[0] for entry in path] == list(d)
            assert [len(entry[1]) for entry in path] == [0] + [1] * (len(d) - 1)
    steps = [0]
    real = quiverrep._numbered_pair

    def counting(*args):
        steps[0] += 1
        return real(*args)

    monkeypatch.setattr(quiverrep, "_numbered_pair", counting)
    path = []
    for d in strictly_monotone_vectors(6):
        _greedy(d, path)
    assert steps[0] == len(strictly_monotone_vectors(6)) == 57
    assert sum(len(d) - 1 for d in strictly_monotone_vectors(6)) == 129


def test_prefix_walk_leaves_the_parent_entries_unchanged():
    """Walking a child keeps every entry of its prefix on the stack as it
    was: the same objects, and every state kept there still kept under its
    key, the same object, equal to a deep copy taken before, for each
    vector with last entry at most 7, walked by its greedy chain and one
    random chain, and each of its one-entry extensions, walked by theirs
    and two random chains.  A vector that leaves the prefix pops the
    child's entries with the states they keep, its own n_1 first.  A
    decreasing step raises ValueError, on a fresh stack as on a kept one,
    after the entries of the increasing prefix."""
    for d in strictly_monotone_vectors(7):
        path = []
        rng = random.Random(repr(d))
        _greedy(d, path)
        _random(d, path, rng)
        kept = list(path)
        states = [dict(entry[1]) for entry in path]
        before = pickle.loads(pickle.dumps(states))
        for n in range(d[-1] + 1, 9):
            _greedy(d + (n,), path)
            _random(d + (n,), path, rng)
            _random(d + (n,), path, rng)
            assert len(path) == len(d) + 1
            assert all(a is b for a, b in zip(path, kept)), (d, n)
            for entry, old, copy in zip(path, states, before):
                assert all(entry[1][key] is state for key, state in old.items()), (d, n)
                assert {key: entry[1][key] for key in copy} == copy, (d, n)
    path = []
    _greedy((1, 4, 5), path)
    _random((1, 4, 5), path, random.Random(0))
    assert [len(entry[1]) for entry in path] == [0, 2, 2]
    _greedy((2, 3), path)
    assert [entry[0] for entry in path] == [2, 3]
    assert [len(entry[1]) for entry in path] == [0, 1]
    with pytest.raises(ValueError, match="decreasing step at position 2"):
        greedy_chain((2, 5, 4))
    with pytest.raises(ValueError, match="decreasing step at position 2"):
        _greedy((2, 5, 4), path)
    assert [entry[0] for entry in path] == [2, 5]


def test_stack_walk_draws_as_random_chain():
    """A random chain walked along the prefix stack (_walk) is the chain
    random_diagram places one by one from a twin rng, draw for draw: the
    same diagrams and the same rng state after each of three chains per
    vector, for every strictly monotone d with last entry at most 8, in
    sorted, reversed and seeded-shuffle order on one stack, the greedy chain
    walked first except in the shuffle.  After the sorted sweep the stack
    keeps only the states of its last vector, (7, 8): the greedy one and at
    most 3 random ones."""
    vectors = strictly_monotone_vectors(8)
    shuffled = list(vectors)
    random.Random(8).shuffle(shuffled)
    for order in (vectors, vectors[::-1], shuffled):
        path = []
        for d in order:
            rng, twin = random.Random(repr(d)), random.Random(repr(d))
            if order is not shuffled:
                _greedy(d, path)
            for _ in range(3):
                want = _placed_one_by_one(d, lambda eta, step: random_diagram(eta, step, twin))
                assert _random(d, path, rng) == want, d
                assert rng.getstate() == twin.getstate(), d
            assert [entry[0] for entry in path] == list(d)
        if order is vectors:
            assert [entry[0] for entry in path] == [7, 8]
            assert sum(len(entry[1]) for entry in path) <= 4


class _ScriptedRandom:
    """An rng whose getrandbits returns the values given, then those of
    random.Random(seed); used counts the calls."""

    def __init__(self, values, seed):
        self.values = list(values)
        self.rest = random.Random(seed)
        self.used = 0

    def getrandbits(self, k):
        self.used += 1
        return self.values.pop(0) if self.values else self.rest.getrandbits(k)


def test_random_states_part_where_the_lead_bit_is_read():
    """A random state is keyed by its jvec and by the lead bit of each row
    with one end b, the only lead bits _placement reads: a row with one
    leading end b and a row with two end b's both lead with b but are
    different rows, so they never share a state.  Every first draw of
    (1, 3, 5) (one row, two extra b's: j = 0, 1 with either lead, 2) and of
    (2, 4, 5) (two rows, j in 0..2 each, both lead bits), each followed by
    the draws of three seeds, walks random_chain's chain on one stack with
    the same calls to the rng; the states at n_2 are one per distinct key,
    4 for (1, 3, 5), with 4 distinct diagrams, and 16 = (1 + 2 + 1)^2 for
    (2, 4, 5), of 36 draws."""
    for d, rows, want in (((1, 3, 5), 1, 4), ((2, 4, 5), 2, 16)):
        path = []
        for jvec, leads, seed in itertools.product(
            itertools.product(range(3), repeat=rows), itertools.product(range(2), repeat=rows), range(3)
        ):
            rng, twin = _ScriptedRandom(jvec + leads, seed), _ScriptedRandom(jvec + leads, seed)
            assert _random(d, path, rng) == random_chain(d, twin), (d, jvec, leads)
            assert rng.used == twin.used
        states = path[1][1]
        assert len(states) == want
        if rows == 1:
            assert len({state[1] for state in states.values()}) == want


def test_random_state_is_kept_only_after_its_recheck(monkeypatch):
    """A random step not kept on the stack is placed, numbered and
    re-checked (_interface_recheck) before its state is kept: a refused
    re-check raises CertificateError and keeps nothing beside the greedy
    states, and the same draws then re-check each interface again.  Once
    kept, the same draws re-check nothing."""
    d = (1, 3, 5)
    want = random_chain(d, random.Random(1))
    path = []
    _greedy(d, path)
    real = quiverrep._interface_recheck
    calls = [0]

    def refused(*args):
        raise CertificateError("refused")

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(quiverrep, "_interface_recheck", refused)
    with pytest.raises(CertificateError, match="refused"):
        _random(d, path, random.Random(1))
    assert [len(entry[1]) for entry in path] == [0, 1, 1]
    monkeypatch.setattr(quiverrep, "_interface_recheck", counting)
    assert _random(d, path, random.Random(1)) == want
    assert calls[0] == 2 and [len(entry[1]) for entry in path] == [0, 2, 2]
    assert _random(d, path, random.Random(1)) == want
    assert calls[0] == 2 and [len(entry[1]) for entry in path] == [0, 2, 2]


def _top_script(dims):
    """getrandbits values that make random_diagram draw, at each step of
    dims, the placement of max_diagram: per step the largest jvec whose
    placement, with a leading b where one end b is taken, is the top one,
    which is max_diagram's own (non-increasing) jvec, then lead bits 1."""
    values = []
    for top, lo, hi in zip(_placed_one_by_one(dims, max_diagram), dims, dims[1:]):
        eta = top.a_part
        jvec = max(
            jvec
            for jvec in itertools.product(range(3), repeat=len(eta.parts))
            if _placement(eta, hi - lo, jvec, [j == 1 for j in jvec]) == top
        )
        values += list(jvec) + [1] * len(jvec)
    return values


def test_greedy_and_random_states_stay_apart(monkeypatch):
    """A greedy step's key, (), is never a random step's: a random chain
    that draws exactly the top placements, walked first on a stack, is the
    greedy chain, yet the greedy chain walked after it on that stack still
    places each step by max_diagram, whose add(eta, a) check runs once per
    greedy interface, for every strictly monotone d with last entry at most
    6 and in the sweep's instance on that stack; a max_diagram that raises
    CertificateError raises there.  Merging the greedy key into the random
    keys would take the random states and skip max_diagram.  A sorted sweep
    at max_last 6 calls max_diagram 57 times, once per vector."""
    calls = [0]

    def counting(eta, a):
        calls[0] += 1
        return max_diagram(eta, a)

    def refused(eta, a):
        raise CertificateError("max_diagram refused")

    for d in strictly_monotone_vectors(6):
        path = []
        script = _top_script(d)
        assert _random(d, path, _ScriptedRandom(script, 0)) == greedy_chain(d), d
        calls[0] = 0
        assert _maps(_walk(d, path, _top, counting))[0] == greedy_chain(d)
        assert calls[0] == len(d) - 1, d
        assert [len(entry[1]) for entry in path] == [0] + [2] * (len(d) - 1)
        with monkeypatch.context() as patch:
            path = []
            _random(d, path, _ScriptedRandom(script, 0))
            patch.setattr(verify, "max_diagram", counting)
            calls[0] = 0
            assert verify._theta_image_instance(d, 32003, 0, 1, path)["ok"]
            assert calls[0] == len(d) - 1, d
            path = []
            _random(d, path, _ScriptedRandom(script, 0))
            patch.setattr(verify, "max_diagram", refused)
            with pytest.raises(CertificateError, match="max_diagram refused"):
                verify._theta_image_instance(d, 32003, 0, 1, path)
    monkeypatch.setattr(verify, "max_diagram", counting)
    calls[0] = 0
    for task in verify._theta_image_tasks(6, 32003, 5, 3):
        task()
    assert calls[0] == len(strictly_monotone_vectors(6)) == 57


def test_random_chain_draws_as_placed_one_by_one():
    """random_chain draws exactly what random_diagram draws along the chain,
    one placement after the other, the glue drawing nothing: the chains and
    the rng state after them are those of a twin rng that places the same
    chain diagram by diagram, and both are pinned by digest."""
    rng, twin = random.Random(59), random.Random(59)
    out = []
    for d in strictly_monotone_vectors(7):
        chain = random_chain(d, rng)
        eta = P(*([1] * d[0]))
        for delta, lo, hi in zip(chain, d, d[1:]):
            assert delta == random_diagram(eta, hi - lo, twin), (d, chain)
            eta = delta.b_part
        assert rng.getstate() == twin.getstate()
        out.append((d, [delta.to_strings() for delta in chain]))
    digest = lambda x: hashlib.sha256(repr(x).encode()).hexdigest()[:16]  # noqa: E731
    assert (digest(rng.getstate()), digest(out)) == ("c77f0c5dedde9c78", "a1c547842690bc60")


def test_build_from_chain_matches_conjugator_oracle():
    """The letter-numbering glue gives the conjugator glue entry for entry."""
    count = 0
    for dims, field, chain in _chains_to_compare():
        z = build_from_chain(chain, field)
        assert z.dims == dims
        assert z == build_from_chain_by_conjugators(chain, field), (dims, field, chain)
        count += 1
    assert count == 3 * 4 * 120 + 6


def test_build_from_chain_matches_chain_order_oracle():
    """The letter-numbering glue gives the permutation glue, whose columns
    and rows it read off the chains of both compositions at each interface,
    entry for entry: on the chains of _chains_to_compare, on the greedy and
    three random chains of every strictly monotone vector with last entry at
    most 8 over F_2 and F_3, and on random chains of vectors whose chain
    ends go beyond the greedy type, with the chain of (4, 8, 9) that ends in
    (3, 3, 3)."""
    def cases():
        yield from _chains_to_compare()
        for p in (2, 3):
            field = FieldSpec(p)
            rng = random.Random(p + 8)
            for dims in strictly_monotone_vectors(8):
                yield dims, field, greedy_chain(dims)
                for _ in range(3):
                    yield dims, field, random_chain(dims, rng)
        rng = random.Random(29)
        for dims in ((4, 8, 9), (1, 5, 9, 10), (12, 27, 40)):
            for _ in range(20):
                yield dims, F, random_chain(dims, rng)
        d1 = ABDiagram.from_strings(["bab", "bab", "bab", "ba", "b"])
        d2 = ABDiagram.from_strings(["babab", "babab", "babab", "a", "a"])
        yield (4, 8, 9), F, [d1, d2]

    count = 0
    for dims, field, chain in cases():
        z = build_from_chain(chain, field)
        assert z.dims == dims
        assert z == build_from_chain_by_chain_order(chain, field), (dims, field, chain)
        count += 1
    assert count == 3 * 4 * 120 + 6 + 2 * 4 * 247 + 3 * 20 + 1


def test_build_from_chain_matches_dense_oracle():
    """The glue of index maps against the glue that filled dense 0/1 lists
    and re-checked the point by products and Jordan types
    (build_from_chain_dense): on the greedy chain and five seeded random
    chains of every strictly monotone vector with last entry at most 7,
    over F_2 and F_32003, the points are equal entry for entry, the A_i B_i
    the interface re-checks compose are the products of the point, and
    their types are the b-parts of the chain, as _interface_types finds on
    the point."""
    count = 0
    for field in (F2, F):
        rng = random.Random(41)
        for dims in strictly_monotone_vectors(7):
            for chain in [greedy_chain(dims)] + [random_chain(dims, rng) for _ in range(5)]:
                z = build_from_chain(chain, field)
                oracle = build_from_chain_dense(chain, field)
                assert z == oracle, (dims, field, chain)
                assert [M.entries for M in z.A + z.B] == [M.entries for M in oracle.A + oracle.B]
                glued_dims, A, B = _replayed(chain)
                assert glued_dims == dims
                products = [_partial_permutation(ab, n, n) for ab, n in zip(_rep_products(z), dims[1:])]
                assert _rechecked(chain, A, B) == products
                assert _interface_types(z) == [delta.b_part for delta in chain]
                count += 1
    assert count == 2 * 120 * 6


def _dense_point(dims, A, B, field):
    """The point whose maps are the 0/1 matrices with a 1 at (image[c], c),
    built entry by entry."""
    def matrix(image, rows):
        return ExactMatrix(rows, len(image), [int(image[c] == r) for r in range(rows) for c in range(len(image))], field)

    forward = [matrix(image, dims[i + 1]) for i, image in enumerate(A)]
    backward = [matrix(image, dims[i]) for i, image in enumerate(B)]
    return QuiverRep(dims, forward, backward, field)


def _changed_maps(A, B, dims):
    """Every (A', B') that differs from (A, B) in one image of one map: the
    image of a letter dropped, redirected to each other letter of the
    target space, or added where there was none."""
    maps = list(A) + list(B)
    t = len(A) + 1
    for k, image in enumerate(maps):
        rows = dims[k + 1] if k < t - 1 else dims[k - (t - 1)]
        for c, old in enumerate(image):
            for new in [-1] + list(range(rows)):
                if new != old:
                    changed = [list(m) for m in maps]
                    changed[k][c] = new
                    yield changed[: t - 1], changed[t - 1 :]


def test_map_recheck_matches_point_recheck_on_changed_maps():
    """One image of one map dropped, redirected or added, at every letter,
    on the greedy chain and two random chains of every strictly monotone
    vector with last entry at most 5: the map re-check, _interface_recheck
    at each interface in turn, passes exactly when every map is still a
    0/1 partial permutation and the point of the
    changed maps passes the point re-check, its relations and the Jordan
    type of every A_i B_i (_interface_types).  Changes that keep the
    relations and every type pass both: 572 of the 2742 changes, 389 of
    them in A_{t-1} or B_{t-1}, which only the type of theta constrains.
    The other 2170 fail both, or leave a map that is not a partial
    permutation."""
    rng = random.Random(43)
    outcomes = {True: 0, False: 0}
    for dims in strictly_monotone_vectors(5):
        for chain in (greedy_chain(dims), random_chain(dims, rng), random_chain(dims, rng)):
            _, A, B = _replayed(chain)
            parts = [delta.b_part for delta in chain]
            for A2, B2 in _changed_maps(A, B, dims):
                injective = all(len(set(m) - {-1}) == len(m) - m.count(-1) for m in A2 + B2)
                expect = injective and _interface_types(_dense_point(dims, A2, B2, F2)) == parts
                try:
                    _rechecked(chain, A2, B2)
                    passed = True
                except CertificateError:
                    passed = False
                assert passed == expect, (dims, chain, A2, B2)
                outcomes[passed] += 1
    assert outcomes == {True: 572, False: 2170}


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_map_recheck_refuses_changed_letter_maps(flags):
    """On the greedy chain of (1, 4, 5), A_1 = [1] (a0 -> b1) and B_1 = [0,
    -1, -1, -1] (b0 -> a0).  Three changes of one image each make the maps
    glue no point of the chain, and the interface re-check
    (_interface_recheck), run at each interface in turn, raises
    CertificateError, also under python -O; so does build_from_chain when
    the numbering of its walk hands it those maps, and the theta-image
    instance when its walk re-checks them:
    - A_1's image redirected to b2, a letter no map reaches: A_1 B_1 keeps
      its type (2, 1, 1), but B_2 A_2 = A_1 B_1 fails;
    - A_1's image dropped: A_1 B_1 = 0 has type (1, 1, 1, 1);
    - B_1 = [-1, 0, -1, -1]: b1 -> a0, so B_1 A_1 sends a0 to itself."""
    script = textwrap.dedent(
        """
        from quiverz import exactmat, quiverrep, verify
        walked = quiverrep._walk((1, 4, 5), [], quiverrep._top, quiverrep.max_diagram)
        chain, A, B = ([state[k] for state in walked] for k in (1, 2, 3))
        if (A, B) != ([[1], [1, 2, 4, -1]], [[0, -1, -1, -1], [0, 1, -1, 2, -1]]):
            raise SystemExit(f"unexpected maps {A} {B}")
        real_glue = quiverrep._numbered_pair
        changes = {
            "redirected": ([[2], A[1]], B),
            "dropped": ([[-1], A[1]], B),
            "b1a1": (A, [[-1, 0, -1, -1], B[1]]),
        }

        def recheck(A2, B2):
            ab = [-1] * chain[0].total_a
            for delta, a, b in zip(chain, A2, B2):
                ab = quiverrep._interface_recheck(a, b, ab, delta)

        for name, (A2, B2) in changes.items():
            def glue(delta, a_starts=None):
                a_map, b_map, starts = real_glue(delta, a_starts)
                k = chain.index(delta)
                return A2[k], B2[k], starts

            calls = (
                lambda: recheck(A2, B2),
                lambda: quiverrep.build_from_chain(chain, exactmat.FieldSpec()),
                lambda: verify._theta_image_instance((1, 4, 5), 32003, 0, 0),
            )
            quiverrep._numbered_pair = glue
            for call in calls:
                try:
                    call()
                    print(name, "passed")
                except exactmat.CertificateError as exc:
                    print(name, "raised in", str(exc).split(":")[0])
            quiverrep._numbered_pair = real_glue
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *flags, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"{name} raised in build_from_chain" for name in ("redirected", "dropped", "b1a1") for _ in range(3)
    ]


def _nilpotent_partial_permutations(n):
    """Flat entries of every nilpotent 0/1 partial permutation of size n:
    each injective partial map sigma gives the matrix with a 1 at
    (sigma(c), c), kept when n steps of sigma leave its domain from every c."""
    for k in range(n + 1):
        for cols in itertools.combinations(range(n), k):
            for rows in itertools.permutations(range(n), k):
                sigma = dict(zip(cols, rows))
                if all(_leaves_domain(sigma, c, n) for c in cols):
                    entries = [0] * (n * n)
                    for c, r in sigma.items():
                        entries[r * n + c] = 1
                    yield entries


def _leaves_domain(sigma, c, steps):
    for _ in range(steps):
        if c not in sigma:
            return True
        c = sigma[c]
    return c not in sigma


def test_chain_order_matches_jordan_basis():
    """On every nilpotent 0/1 partial permutation of size at most 6, the
    Jordan basis _jordan_basis picks is the permutation _chain_order reads."""
    counts = []
    for n in range(7):
        counts.append(0)
        for entries in _nilpotent_partial_permutations(n):
            order = _chain_order(entries, n)
            g = _jordan_basis(ExactMatrix(n, n, entries, F))[0]
            assert g.entries == tuple(int(r == order[k]) for r in range(n) for k in range(n)), entries
            counts[-1] += 1
    assert counts == [1, 1, 3, 13, 73, 501, 4051]  # sets of chains: sum_k n!/k! C(n-1, k-1)


def test_chain_order_rejects_other_matrices():
    F3 = FieldSpec(3)
    three_cycle = ExactMatrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], F)
    entry_two = ExactMatrix.from_rows([[0, 2, 0], [0, 0, 1], [0, 0, 0]], F3)
    column_twice = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 1, 0]], F)
    row_twice = ExactMatrix.from_rows([[0, 1, 1], [0, 0, 0], [0, 0, 0]], F)
    for M in (three_cycle, entry_two, column_twice, row_twice):
        assert _chain_order(M.entries, M.rows) is None
    assert exactmat.jordan_type(entry_two) == P(3)  # nilpotent, but not 0/1
    assert _chain_order((), 0) == []


def test_build_from_chain_interface_errors():
    with pytest.raises(ValueError, match="all-ones"):
        build_from_chain([ABDiagram.from_strings(["abab"])], F)
    first = ABDiagram.from_strings(["bab", "b", "b"])  # b-part (2,1,1)
    second = ABDiagram.from_strings(["babab", "abab", "a"])  # a-part (2,2,1)
    with pytest.raises(ValueError, match="interface 1"):
        build_from_chain([first, second], F)
    with pytest.raises(ValueError, match="at least one"):
        build_from_chain([], F)


def test_random_chains_bounded_by_image_type():
    rng = random.Random(11)
    for d in ((1, 4, 5), (1, 2, 5, 8, 12), (2, 4, 6)):
        lam = theta_image(d)
        for _ in range(5):
            z = build_from_chain(random_chain(d, rng), F)
            assert check_relations(z)
            assert dominates(lam, jordan_type(theta(z)))


def test_greedy_chain_realizes_image_type_sweep():
    for r in range(2, 5):
        for d in itertools.combinations(range(1, 9), r):
            z = build_from_chain(greedy_chain(d), F)
            assert jordan_type(theta(z)) == theta_image(d)


def test_chain_bound_boundary_beyond_sweep():
    """The iterated-add image type stops bounding chain points at (4,8,9).

    This explicit chain passes through the intermediate type (2,2,2,1,1),
    strictly below the greedy (2,2,2,2); one added box then yields (3,3,3),
    which strictly dominates the iterated-add value (3,3,2,1).  It is the
    matrix-level face of the monotonicity failure documented in
    test_partitions.test_add_monotonicity_boundary; every strictly monotone
    vector with last entry <= 8 is checked clean by the image sweep."""
    d1 = ABDiagram.from_strings(["bab", "bab", "bab", "ba", "b"])
    d2 = ABDiagram.from_strings(["babab", "babab", "babab", "a", "a"])
    z = build_from_chain([d1, d2], F)
    assert z.dims == (4, 8, 9)
    assert check_relations(z) and nilpotency_degrees(z)
    got = jordan_type(theta(z))
    assert got == P(3, 3, 3)
    assert theta_image((4, 8, 9)) == P(3, 3, 2, 1)
    assert not dominates(theta_image((4, 8, 9)), got)
    assert dominates(got, theta_image((4, 8, 9)))


# --- reducibility -----------------------------------------------------------------


def test_witness_reducible_row_example():
    rep = witness_reducible((1, 4, 5), F, random.Random(12))
    assert rep.verdict == "reducible"
    assert rep.lam == P(3, 2)
    assert rep.mu == P(3, 1, 1)
    kinds = [w["kind"] for w in rep.witnesses]
    assert kinds == ["chain", "stable"]
    z1 = QuiverRep.from_json_dict(rep.witnesses[0]["rep"])
    z2 = QuiverRep.from_json_dict(rep.witnesses[1]["rep"])
    assert check_relations(z1) and check_relations(z2)
    assert jordan_type(theta(z1)) == P(3, 2)
    assert not is_injective(z1.A[1])
    assert is_stable(z2)
    assert rep.to_json_dict()["verdict"] == "reducible"
    assert rep.to_json_dict()["lambda"] == [3, 2]


def test_witness_no_obstruction():
    for d in ((1, 2), (1, 2, 5, 8, 12)):
        rep = witness_reducible(d, F, random.Random(13))
        assert rep.verdict == "no_obstruction"
        assert rep.lam == rep.mu
        assert rep.witnesses == []
    with pytest.raises(ValueError):
        witness_reducible((2, 2), F, random.Random(0))


def test_certificate_checks_survive_optimisation():
    """Under python -O a failing re-check still raises CertificateError: the
    checks in build_from_chain, sample_stable and witness_reducible are not
    asserts.  The relations of a sample fail when _point_products, which
    every relations pass of a point runs, reports them failed: then
    sample_stable raises, and witness_reducible, which emits relations: true
    only after its builders' re-checks, raises in its stable sample.  Its
    chain witness is re-checked on its index maps, which do not go through
    _point_products; with the matching of one interface reversed, the k-th
    a-row of the later diagram meeting the k-th shortest b-row where it
    should meet the k-th longest, the maps glue a point off the variety and
    build_from_chain raises: at the one interface of (1, 4, 5), and at the
    second of the three of (1, 2, 5, 8, 12), the others glued right.  A matrix written with its
    first column zeroed reads back as another map than the one that passed,
    and build_from_chain raises too."""
    script = textwrap.dedent(
        """
        import random
        from quiverz import exactmat, quiverrep
        from quiverz.partitions import Partition
        F = exactmat.FieldSpec()

        def attempt(call):
            try:
                call()
                print("passed")
            except exactmat.CertificateError as exc:
                print("raised in", str(exc).split(":")[0])

        real_products = quiverrep._point_products
        quiverrep._point_products = lambda *args: None  # no point satisfies the relations
        attempt(lambda: quiverrep.sample_stable((1, 4, 5), F, random.Random(0)))
        attempt(lambda: quiverrep.witness_reducible((1, 4, 5), F, random.Random(0)))
        quiverrep._point_products = real_products
        quiverrep.mu_of = lambda d: Partition((1,) * d[-1])  # a bound no stable sample meets
        attempt(lambda: quiverrep.witness_reducible((1, 4, 5), F, random.Random(0)))
        real_pair = quiverrep._numbered_pair
        short = quiverrep.greedy_chain((1, 4, 5))
        long = quiverrep.greedy_chain((1, 2, 5, 8, 12))

        def reversing(interface):
            calls = []

            def numbered_pair(delta, a_starts=None):  # a_starts is None for the first diagram
                calls.append(delta)
                if len(calls) == interface + 1:
                    a_starts = a_starts[::-1]
                return real_pair(delta, a_starts)

            return numbered_pair

        quiverrep._numbered_pair = reversing(1)
        attempt(lambda: quiverrep.build_from_chain(short, F))
        quiverrep._numbered_pair = reversing(2)
        attempt(lambda: quiverrep.build_from_chain(long, F))
        quiverrep._numbered_pair = real_pair
        attempt(lambda: quiverrep.build_from_chain(long, F))
        real_matrix = quiverrep._index_matrix
        quiverrep._index_matrix = lambda image, rows, field: real_matrix([-1] + image[1:], rows, field)
        attempt(lambda: quiverrep.build_from_chain(short, F))
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised in sample_stable",
        "raised in sample_stable",
        "raised in witness_reducible",
        "raised in build_from_chain",
        "raised in build_from_chain",
        "passed",
        "raised in build_from_chain",
    ]
