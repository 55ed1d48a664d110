import itertools
import math
import os
import random
import subprocess
import sys
import textwrap

import pytest

from quiverz import exactmat
from quiverz.exactmat import (
    _SLOT_LIMIT,
    DEFAULT_PRIME,
    CertificateError,
    ExactMatrix,
    FieldSpec,
    _chains,
    _jordan_flat,
    _inverse_flat,
    _is_prime,
    _mul_flat,
    _packs,
    _partial_permutation,
    _random_invertible_pair,
    _rref,
    _times_rowspace,
    all_subspaces,
    canonical_nilpotent,
    conjugator,
    hstack,
    identity,
    inverse,
    is_injective,
    jordan_basis,
    jordan_type,
    kernel_basis,
    mul,
    random_matrix,
    rank,
    solve,
    zeros,
)
from quiverz.partitions import Partition
from quiverz.quiverrep import QuiverRep, _flag_point, sample_stable, theta
from quiverz.verify import strictly_monotone_vectors

from oracles import (
    _chain_order,
    inverse_by_augmenting,
    is_nilpotent,
    jordan_type_by_power_ranks,
    mat_pow,
    mul_by_rows,
    partitions_up_to_weight,
    random_invertible,
    rref_by_rows,
    solutions_by_search,
    transpose,
)

F = FieldSpec()
F2 = FieldSpec(2)
F3 = FieldSpec(3)


def M(rows, field=F):
    return ExactMatrix.from_rows(rows, field)


# --- independent oracles -----------------------------------------------------


def rank_by_span_count(mat):
    """|row space| = p^rank, counted by enumerating all row combinations."""
    p = mat.field.p
    span = set()
    for coeffs in itertools.product(range(p), repeat=mat.rows):
        vec = tuple(
            sum(c * mat.at(i, j) for i, c in enumerate(coeffs)) % p
            for j in range(mat.cols)
        )
        span.add(vec)
    size = len(span)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


def kernel_dim_by_count(mat):
    """Count vectors killed by mat; the kernel has p^dim of them."""
    p = mat.field.p
    count = 0
    for vec in itertools.product(range(p), repeat=mat.cols):
        if all(
            sum(mat.at(i, j) * vec[j] for j in range(mat.cols)) % p == 0
            for i in range(mat.rows)
        ):
            count += 1
    d = 0
    while p**d < count:
        d += 1
    assert p**d == count
    return d


# --- field / matrix basics ---------------------------------------------------


def test_field_validation():
    assert FieldSpec().p == DEFAULT_PRIME == 32003
    assert FieldSpec(2).p == 2
    for bad in (0, 1, 4, 32001):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    assert FieldSpec(2**31 - 1).p == 2**31 - 1
    for big in (2**31, 1000000000000000003):  # the latter is prime
        with pytest.raises(ValueError, match="below 2\\^31"):
            FieldSpec(big)


def test_matrix_construction():
    m = ExactMatrix(2, 2, [1, -1, 32004, 0], F)
    assert m.entries == (1, 32002, 1, 0)
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3], F)
    assert zeros(0, 3, F).shape == (0, 3)
    assert M([[1, 2], [3, 4]]).at(1, 0) == 3


def test_from_rows_refuses_ragged_rows():
    """Rows of unequal length are refused, not read as one flat list cut
    into rows as long as the first."""
    for rows in ([[1, 2], [3], [4, 5, 6]], [[1], [2, 3]], [[1, 2], []]):
        with pytest.raises(ValueError, match="ragged"):
            ExactMatrix.from_rows(rows, FieldSpec(5))
    assert ExactMatrix.from_rows([[], []], F).shape == (2, 0)


def test_constructor_refuses_non_integral_entries():
    """Entries go through operator.index: ints, bools and other integral
    types are taken mod p, and floats, strings and None raise ValueError
    instead of being truncated or parsed.  A witness document read back by
    QuiverRep.from_json_dict meets the same check."""
    assert ExactMatrix(2, 2, [True, False, -1, 32005], F).entries == (1, 0, 32002, 2)
    for bad in (2.7, 2.0, "2", None):
        with pytest.raises(ValueError, match="integers"):
            ExactMatrix(2, 2, [True, bad, 3, 4], F)
    doc = sample_stable((1, 4, 5), F, random.Random(0)).to_json_dict()
    assert QuiverRep.from_json_dict(doc).to_json_dict() == doc
    doc["B"][1]["entries"][0] += 0.5
    with pytest.raises(ValueError, match="integers"):
        QuiverRep.from_json_dict(doc)


def test_field_refuses_non_integral_modulus():
    """The modulus goes through operator.index: an int or a bool is taken,
    and a float or a string raises ValueError instead of being truncated
    (5.9 was F_5) or parsed ('7' was F_7)."""
    assert FieldSpec(5).p == 5 and FieldSpec(True + 2).p == 3
    for bad in (5.9, 7.0, "7", None):
        with pytest.raises(ValueError, match="integer"):
            FieldSpec(bad)


def test_constructor_refuses_non_integral_shape():
    """rows and cols go through operator.index too, in the constructor and
    in the JSON loader, which read 2.9 rows and "1" col as a 2 x 1 matrix."""
    assert ExactMatrix(True, 2, [1, 2], F).shape == (1, 2)
    for rows, cols in ((2.9, 1), (2, "1"), (2.0, 1.0), (None, 2)):
        with pytest.raises(ValueError, match="integers"):
            ExactMatrix(rows, cols, [1, 2], F)
    doc = {"rows": 2.9, "cols": "1", "p": 5, "entries": [1, 2]}
    for bad in (doc, dict(doc, rows=2), dict(doc, rows=2, cols=1, p=5.0)):
        with pytest.raises(ValueError, match="integer"):
            ExactMatrix.from_json_dict(bad)
    assert ExactMatrix.from_json_dict(dict(doc, rows=2, cols=1)).shape == (2, 1)


def test_matrix_json_round_trip():
    m = random_matrix(3, 4, F, random.Random(0))
    again = ExactMatrix.from_json_dict(m.to_json_dict())
    assert again == m
    assert m.to_json_dict()["p"] == 32003


def test_transpose_and_hstack():
    m = M([[1, 2, 3], [4, 5, 6]])
    assert transpose(m) == M([[1, 4], [2, 5], [3, 6]])
    assert hstack(m, m).shape == (2, 6)
    with pytest.raises(ValueError):
        hstack(m, identity(3, F))


# --- multiplication ----------------------------------------------------------


def test_mul_identity_and_zero():
    m = random_matrix(3, 3, F, random.Random(1))
    assert mul(identity(3, F), m) == m
    assert mul(m, identity(3, F)) == m
    assert mul(zeros(2, 3, F), m) == zeros(2, 3, F)


def test_mul_errors():
    with pytest.raises(ValueError):
        mul(zeros(2, 3, F), zeros(2, 3, F))
    with pytest.raises(ValueError):
        mul(zeros(2, 2, F), zeros(2, 2, F2))


def test_mul_associative():
    rng = random.Random(2)
    for _ in range(10):
        a = random_matrix(3, 4, F, rng)
        b = random_matrix(4, 2, F, rng)
        c = random_matrix(2, 5, F, rng)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def _with_zeros(size, zeros_wanted, p, rng):
    """size entries, exactly zeros_wanted of them 0, the rest in [1, p)."""
    out = [rng.randrange(1, p) for _ in range(size)]
    for i in rng.sample(range(size), zeros_wanted):
        out[i] = 0
    return out


def _counting(monkeypatch, name):
    """Replace exactmat.<name> by a wrapper; returns the list of its calls."""
    real = getattr(exactmat, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exactmat, name, counting)
    return calls


def test_mul_flat_matches_row_loop_oracle(monkeypatch):
    """Both sides of the packed switch (m >= 8, at most half of xe zero, and
    m + 1 products of residues within a 64-bit slot): inner dimension 7 and
    8, zero counts around one half, mat-vecs (k = 1), dense products with
    k >= 8, every zero dimension, and p = 2, 32003 and 2^31 - 1, whose
    products are too wide to pack."""
    packs = _counting(monkeypatch, "_pack")
    rng = random.Random(31)
    shapes = [
        (4, 7, 3), (4, 8, 3), (5, 8, 1), (3, 9, 1), (7, 7, 1), (6, 16, 5), (1, 8, 8),
        (9, 8, 8), (8, 12, 10), (3, 20, 16),
        (0, 8, 3), (3, 0, 4), (4, 8, 0), (0, 0, 0), (0, 9, 0), (1, 1, 1),
    ]
    sides = set()
    for p in (2, 32003, 2**31 - 1):
        for n, m, k in shapes:
            size = n * m
            for z in sorted({0, size // 2 - 1, size // 2, size // 2 + 1, size} & set(range(size + 1))):
                xe = _with_zeros(size, z, p, rng)
                ye = [rng.randrange(p) for _ in range(m * k)]
                before = len(packs)
                assert _mul_flat(xe, ye, n, m, k, p) == mul_by_rows(xe, ye, n, m, k, p), (p, n, m, k, z)
                sides.add((p, m, k >= 8, len(packs) > before))
                assert _mul_flat(tuple(xe), tuple(ye), n, m, k, p) == mul_by_rows(xe, ye, n, m, k, p)
    assert {(7, False), (8, False), (8, True), (16, False), (16, True)} <= {(m, packed) for p, m, _, packed in sides}
    assert {(32003, True, True), (32003, True, False), (2**31 - 1, True, False)} <= {
        (p, wide, packed) for p, _, wide, packed in sides
    }
    assert not any(packed for p, _, _, packed in sides if p == 2**31 - 1)


def _rref_inputs(nrows, p, rng):
    """(rows, pivot_cols) for _rref: pivot blocks of width nrows - 3, nrows
    and nrows + 5, and [M | I] with pivot_cols = nrows; zero counts of the
    pivot block one below, at and one above half; then, at half, a rank
    deficient matrix, zero rows and entries that are negative or >= p."""
    for cols, augment in ((nrows - 3, False), (nrows, False), (nrows + 5, False), (nrows, True)):
        size = nrows * cols
        for z in (size // 2 - 1, size // 2, size // 2 + 1, "deficient", "zero rows", "unreduced"):
            block = _with_zeros(size, z if isinstance(z, int) else size // 2, p, rng)
            rows = [block[i * cols : (i + 1) * cols] for i in range(nrows)]
            if z == "deficient":  # the last third are combinations of rows 0 and 1
                for i in range(2 * nrows // 3, nrows):
                    a, b = rng.randrange(p), rng.randrange(p)
                    rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
            elif z == "zero rows":
                rows[1] = [0] * cols
                rows[-1] = [0] * cols
            elif z == "unreduced":
                rows = [[v + p * rng.choice((-2, -1, 1, 2)) if v else v for v in row] for row in rows]
            if augment:
                rows = [row + [int(j == i) for j in range(nrows)] for i, row in enumerate(rows)]
            yield rows, (cols if augment else None)


def test_rref_matches_list_loop_oracle(monkeypatch):
    """The packed elimination gives the pivots of the list loop it keeps for
    inputs with fewer than 8 rows, more than half of the pivot block zero,
    or p too wide for a 64-bit slot (2^31 - 1, where both sides run the list
    loop, so its largest size is left out), and the same rows reduced mod p
    (the list loop leaves rows that no operation touches unreduced)."""
    packed_runs = _counting(monkeypatch, "_rref_packed")
    rng = random.Random(37)
    sides = set()
    for p in (2, 3, 32003, 2**31 - 1):
        cases = [([[] for _ in range(nrows)], None) for nrows in (0, 7, 8)]
        for nrows in (7, 8, 9, 16, 40) if p < 1 << 16 else (7, 8, 9, 16):
            cases += _rref_inputs(nrows, p, rng)
        for rows, pivot_cols in cases:
            expect = [row[:] for row in rows]
            expect_pivots = rref_by_rows(expect, p, pivot_cols)
            before = len(packed_runs)
            pivots = _rref(rows, p, pivot_cols)
            sides.add((p, len(rows), len(packed_runs) > before))
            assert pivots == expect_pivots, (p, len(rows), pivot_cols)
            assert [[v % p for v in row] for row in rows] == [[v % p for v in row] for row in expect]
            if len(packed_runs) > before:
                assert all(0 <= v < p for row in rows for v in row)
    for p in (2, 3, 32003):
        assert {(p, 7, False), (p, 8, False), (p, 8, True), (p, 40, False), (p, 40, True)} <= sides
    assert not any(packed for p, _, packed in sides if p == 2**31 - 1)


def _random_partial_permutation(rows, cols, rng, kills):
    """A 0/1 rows x cols partial permutation: min(rows, cols) columns sent to
    distinct rows, then `kills` of them sent to 0 instead."""
    entries = [0] * (rows * cols)
    size = min(rows, cols)
    pairs = list(zip(rng.sample(range(rows), size), rng.sample(range(cols), size)))
    for r, c in pairs[kills:]:
        entries[r * cols + c] = 1
    return entries


def test_partial_permutation_products_match_row_loop(monkeypatch):
    """Two 0/1 partial permutations multiply as a gather at every inner
    dimension: square and rectangular shapes, with and without killed
    columns, at m = 7, 8, 9 and 40, give the row loop's entries.  The
    reader is called once, on the left factor, whose index map makes the
    product."""
    reads = _counting(monkeypatch, "_partial_permutation")
    rng = random.Random(41)
    for p in (2, 3, 32003):
        for m in (7, 8, 9, 40):
            for n, k in ((m, m), (m - 3, m), (m, m + 5), (m + 2, m - 1), (1, m), (m, 1)):
                for kills in (0, 1, 3):
                    xe = _random_partial_permutation(n, m, rng, kills)
                    ye = _random_partial_permutation(m, k, rng, (kills + 1) % 3)
                    reads.clear()
                    assert _mul_flat(xe, ye, n, m, k, p) == mul_by_rows(xe, ye, n, m, k, p), (p, n, m, k)
                    assert reads == [(xe, n, m)]


def test_gather_products_match_row_loop(monkeypatch):
    """Either factor a 0/1 partial permutation, the other drawn over F_p
    with and without zeros: square and rectangular shapes and killed
    columns, m = 1 to 9 and 40, p = 2, 3, 32003 and 2^31 - 1.  The product
    is the row loop's, made by a gather: the last read of the reader found
    a partial permutation, and no row was packed."""
    results = []
    real = exactmat._partial_permutation

    def reading(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(exactmat, "_partial_permutation", reading)
    packs = _counting(monkeypatch, "_pack")
    rng = random.Random(47)
    sides = set()
    for p in (2, 3, 32003, 2**31 - 1):
        for m in (*range(1, 10), 40):
            for n, k in ((m, m), (max(m - 3, 1), m), (m, m + 5), (m + 2, max(m - 1, 1)), (1, m), (m, 1)):
                for kills in (0, 1, min(m, 3)):
                    for half in (False, True):
                        x_perm = _random_partial_permutation(n, m, rng, kills)
                        y_perm = _random_partial_permutation(m, k, rng, kills)
                        x_other = _with_zeros(n * m, (n * m) // 2 if half else 0, p, rng)
                        y_other = _with_zeros(m * k, (m * k) // 2 if half else 0, p, rng)
                        for left, xe, ye in ((True, x_perm, y_other), (False, x_other, y_perm)):
                            results.clear()
                            assert _mul_flat(xe, ye, n, m, k, p) == mul_by_rows(xe, ye, n, m, k, p), (p, n, m, k)
                            assert len(results) <= 2 and results[-1] is not None
                            sides.add((left, len(results)))
    assert packs == []
    assert {(True, 1), (False, 2)} <= sides


def test_partial_permutation_near_misses_fall_through():
    """Matrices one step from a 0/1 partial permutation are not read as one,
    and their products with a partial permutation, on either side, are the
    row loop's: an entry 2, two ones in a row, two ones in a column, and a
    dense matrix with few zeros."""
    rng = random.Random(43)
    for m in (8, 9, 40):
        base = _random_partial_permutation(m, m, rng, 2)
        ones = [i for i, v in enumerate(base) if v]
        free_col = next(c for c in range(m) if not any(base[r * m + c] for r in range(m)))
        free_row = next(r for r in range(m) if not any(base[r * m : (r + 1) * m]))
        two = base[:]
        two[ones[0]] = 2
        row_twice = base[:]  # a second one in the row of an existing one, in an unused column
        row_twice[(ones[0] // m) * m + free_col] = 1
        col_twice = base[:]  # a second one in the column of an existing one, in an unused row
        col_twice[free_row * m + ones[0] % m] = 1
        for p in (3, 5, 32003):
            dense = _with_zeros(m * m, m // 2, p, rng)
            for bad in (two, row_twice, col_twice, dense):
                assert _partial_permutation(bad, m, m) is None
                assert _mul_flat(bad, base, m, m, m, p) == mul_by_rows(bad, base, m, m, m, p)
                assert _mul_flat(base, bad, m, m, m, p) == mul_by_rows(base, bad, m, m, m, p)
        assert _partial_permutation(base, m, m) is not None


# --- rank / kernel / injectivity ----------------------------------------------


def test_rank_examples():
    assert rank(identity(4, F)) == 4
    assert rank(zeros(3, 5, F)) == 0
    assert rank(canonical_nilpotent(Partition((3, 2)), F)) == 3  # 5 - number of parts


def test_rank_nullity():
    rng = random.Random(3)
    for _ in range(100):
        m = random_matrix(rng.randrange(1, 9), rng.randrange(1, 9), F, rng)
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        assert mul(m, k).is_zero()
        assert rank(k) == k.cols


def test_rank_against_span_count():
    rng = random.Random(4)
    for field in (F2, F3):
        for _ in range(25):
            m = random_matrix(rng.randrange(1, 4), rng.randrange(1, 5), field, rng)
            assert rank(m) == rank_by_span_count(m)


def test_kernel_dim_against_vector_count():
    rng = random.Random(5)
    for _ in range(25):
        m = random_matrix(rng.randrange(1, 4), rng.randrange(1, 5), F2, rng)
        assert kernel_basis(m).cols == kernel_dim_by_count(m)


def test_is_injective():
    incl = M([[1, 0], [0, 1], [0, 0]])
    assert is_injective(incl)
    assert not is_injective(M([[1, 0], [0, 0]]))  # zero column
    assert is_injective(zeros(3, 0, F))


# --- solve ---------------------------------------------------------------------


def test_solve_invertible_unique():
    rng = random.Random(6)
    m = random_invertible(4, F, rng)
    c = random_matrix(4, 2, F, rng)
    x = solve(m, c)
    assert mul(m, x) == c
    assert x == mul(inverse(m), c)


def test_solve_random_consistent_systems():
    """M X = C with C = M X0 has the one solution X0 when M has full column
    rank, and solve refuses it as not unique otherwise."""
    rng = random.Random(8)
    for field in (F2, F):
        for _ in range(100):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = random_matrix(rows, cols, field, rng)
            x0 = random_matrix(cols, rng.randrange(1, 4), field, rng)
            c = mul(m, x0)
            if rank(m) == cols:
                assert solve(m, c) == x0
            else:
                with pytest.raises(ValueError, match="not unique"):
                    solve(m, c)


def test_solve_inconsistent():
    m = M([[1, 0], [0, 0]])
    c = M([[1], [1]])  # second row unreachable
    with pytest.raises(ValueError, match="no solution"):
        solve(m, c)
    with pytest.raises(ValueError, match="no solution"):
        solve(M([[1], [2]]), M([[1], [1]]))  # injective, but c is off its image
    with pytest.raises(ValueError, match="no solution"):
        solve(zeros(2, 0, F), M([[0], [1]]))


def test_solve_not_unique():
    """A consistent system with a kernel is refused, also with C = 0 and
    with more unknowns than equations."""
    for m, c in (
        (M([[1, 2], [2, 4], [3, 6]]), zeros(3, 2, F)),
        (M([[1, 0], [0, 0]]), M([[5], [0]])),
        (M([[1, 2, 3]]), M([[4]])),
        (zeros(0, 2, F), zeros(0, 1, F)),
    ):
        with pytest.raises(ValueError, match="not unique"):
            solve(m, c)


def test_solve_shapes():
    assert solve(zeros(0, 0, F), zeros(0, 3, F)).shape == (0, 3)
    assert solve(identity(2, F), zeros(2, 0, F)).shape == (2, 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        solve(identity(2, F), zeros(3, 1, F))
    with pytest.raises(ValueError, match="field mismatch"):
        solve(identity(2, F), zeros(2, 1, F2))


def test_solve_injective_prescribed_on_image():
    m = M([[1], [2]])  # 2x1, injective
    c = M([[7], [14]])
    x = solve(m, c)
    assert x == M([[7]])
    assert mul(m, x) == c


def test_solve_matches_search_oracle():
    """Over F_2 and F_3, for M of full column rank and C either M X0 or
    drawn at random: solve returns the one X that a search over every
    matrix finds, or raises no solution where the search finds none.  For M
    with a kernel and a consistent C the search finds several and solve
    refuses them."""
    rng = random.Random(16)
    outcomes = set()
    for field in (F2, F3):
        for _ in range(60):
            rows, cols, k = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 2)
            m = random_matrix(rows, cols, field, rng)
            if rng.random() < 0.5:
                c = mul(m, random_matrix(cols, k, field, rng))
            else:
                c = random_matrix(rows, k, field, rng)
            found = solutions_by_search(m, c)
            outcomes.add((field.p, rank(m) == cols, min(len(found), 2)))
            if len(found) == 1:
                assert solve(m, c) == found[0]
            else:
                with pytest.raises(ValueError, match="no solution" if not found else "not unique"):
                    solve(m, c)
    assert {(p, True, n) for p in (2, 3) for n in (0, 1)} <= outcomes
    assert {(p, False, 2) for p in (2, 3)} <= outcomes


def test_inverse():
    rng = random.Random(10)
    m = random_invertible(5, F, rng)
    assert mul(m, inverse(m)) == identity(5, F)
    with pytest.raises(ValueError, match="singular"):
        inverse(zeros(3, 3, F))


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_random_invertible_pair_matches_random_invertible():
    """The pair's g is random_invertible's draw from the same rng state, it
    leaves the rng in the same state, and its second element is g^-1.  Over
    F_2 singular draws are common, so the redraw loop runs."""
    redrawn = False
    for field in (F2, F3, F):
        for n in (0, 1, 2, 3, 5, 12):
            for seed in range(6):
                rng_pair, rng_one = CountingRandom(seed), random.Random(seed)
                g, ginv = _random_invertible_pair(n, field, rng_pair)
                assert g == random_invertible(n, field, rng_one)
                assert rng_pair.getstate() == rng_one.getstate()
                assert mul(g, ginv) == identity(n, field) == mul(ginv, g)
                assert ginv == inverse(g)
                redrawn |= rng_pair.draws > n * n
    assert redrawn


def _slot_edge_prime(rows):
    """The largest prime that passes the _packs gate for this many rows."""
    p = math.isqrt((_SLOT_LIMIT - 1) // (rows + 1)) + 2
    while not (_packs(rows, p) and _is_prime(p)):
        p -= 1
    return p


def _inverse_inputs(n, p, rng):
    """(kind, flat n x n entries) for _inverse_flat: dense, half zero, a
    reversed upper-triangular matrix whose every column has its pivot on
    another row, and singular ones: a zero row, column 1 a multiple of
    column 0 (no pivot in column 1), and the last column a combination of
    the others (no pivot in the last column)."""
    size = n * n
    yield "dense", [rng.randrange(p) for _ in range(size)]
    yield "half zero", _with_zeros(size, size // 2, p, rng)
    upper = [rng.randrange(1, p) if j >= i else 0 for i in range(n) for j in range(n)]
    yield "row swapping", [v for i in reversed(range(n)) for v in upper[i * n : (i + 1) * n]]
    if not n:
        return
    dense = [rng.randrange(p) for _ in range(size)]
    zero_row = dense[:]
    zero_row[(n // 2) * n : (n // 2 + 1) * n] = [0] * n
    yield "zero row", zero_row
    if n >= 2:
        twice = dense[:]
        for i in range(n):
            twice[i * n + 1] = 3 * twice[i * n] % p
        yield "no pivot in column 1", twice
    last = dense[:]
    coeffs = [rng.randrange(p) for _ in range(n - 1)]
    for i in range(n):
        last[i * n + n - 1] = sum(c * last[i * n + j] for j, c in enumerate(coeffs)) % p
    yield "no pivot in the last column", last


def test_inverse_matches_augmented_elimination_oracle(monkeypatch):
    """_inverse_flat against the RREF of [M | I], which it runs itself below
    the packing gate and replaced with an inversion in place above it, on
    every input of _inverse_inputs for n in {0, 1, 2, 3, 7, 8, 9, 16, 40}
    and p in {2, 3, 5, 32003, 2^31 - 1} and the largest prime that packs 8
    rows (the slot-bound edge, packed at n = 8 and in lists from n = 9):
    the same entries, or None exactly when the oracle finds M singular."""
    packs = _counting(monkeypatch, "_pack")
    rng = random.Random(47)
    edge = _slot_edge_prime(8)
    assert not _packs(8, next(q for q in itertools.count(edge + 1) if _is_prime(q))) and not _packs(9, edge)
    sides = set()
    for p in (2, 3, 5, 32003, 2**31 - 1, edge):
        for n in (0, 1, 2, 3, 7, 8, 9, 16, 40):
            for kind, entries in _inverse_inputs(n, p, rng):
                expect = inverse_by_augmenting(entries, n, p)
                before = len(packs)
                got = _inverse_flat(entries, n, p)
                sides.add((p, n, len(packs) > before))
                assert got == expect, (p, n, kind)
                assert _inverse_flat(tuple(entries), n, p) == expect
                if kind.startswith("no pivot") or kind == "zero row":
                    assert got is None, (p, n, kind)
                elif kind == "row swapping":
                    assert got is not None
                if got is not None:
                    assert all(0 <= v < p for v in got)
    assert {(32003, 8, True), (32003, 40, True), (32003, 7, False), (edge, 8, True), (edge, 9, False)} <= sides
    assert not any(packed for p, _, packed in sides if p == 2**31 - 1)


# --- nilpotents ----------------------------------------------------------------


def test_canonical_nilpotent_shapes():
    assert canonical_nilpotent(Partition((1, 1)), F) == zeros(2, 2, F)
    assert canonical_nilpotent(Partition((2,)), F) == M([[0, 1], [0, 0]])
    n = canonical_nilpotent(Partition((3, 2)), F)
    assert n.shape == (5, 5)
    assert jordan_type(n) == Partition((3, 2))


def test_is_nilpotent():
    assert is_nilpotent(zeros(4, 4, F))
    assert not is_nilpotent(identity(2, F))
    with pytest.raises(ValueError):
        is_nilpotent(zeros(2, 3, F))


def test_jordan_type_examples():
    assert jordan_type(zeros(3, 3, F)) == Partition((1, 1, 1))
    assert jordan_type(canonical_nilpotent(Partition((3, 2)), F)) == Partition((3, 2))
    with pytest.raises(ValueError, match="not nilpotent"):
        jordan_type(identity(3, F))


def _check_against_power_oracle(m):
    nilpotent, typ = jordan_type_by_power_ranks(m)
    assert is_nilpotent(m) == nilpotent, m.entries
    if nilpotent:
        assert jordan_type(m) == typ, m.entries
    else:
        with pytest.raises(ValueError, match="not nilpotent"):
            jordan_type(m)


def test_jordan_type_matches_power_oracle_all_3x3_over_f2():
    kinds = {True: 0, False: 0}
    for entries in itertools.product(range(2), repeat=9):
        m = ExactMatrix(3, 3, entries, F2)
        _check_against_power_oracle(m)
        kinds[is_nilpotent(m)] += 1
    assert kinds[True] == 2 ** 6  # nilpotent 3x3 matrices over F_q number q^(n^2 - n)


def test_jordan_type_matches_power_oracle_4x4_over_f3():
    rng = random.Random(13)
    cases = [random_matrix(4, 4, F3, rng) for _ in range(150)]
    for eta in partitions_up_to_weight(4):
        if eta.weight == 4:
            h = random_invertible(4, F3, rng)
            cases.append(mul(mul(h, canonical_nilpotent(eta, F3)), inverse(h)))
    for r in range(1, 4):
        # Idempotents of rank r: the ranks of their powers stall at r.
        d = ExactMatrix(4, 4, [int(i == j and i < r) for i in range(4) for j in range(4)], F3)
        h = random_invertible(4, F3, rng)
        cases.append(mul(mul(h, d), inverse(h)))
    # Nilpotent plus idempotent on complementary blocks: ranks drop, then stall.
    cases.append(M([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]], F3))
    for m in cases:
        _check_against_power_oracle(m)
    assert sum(is_nilpotent(m) for m in cases) >= 5
    assert sum(not is_nilpotent(m) for m in cases) >= 100


def _from_pairs(n, pairs):
    """Flat n x n 0/1 entries with N e_c = e_r for each (c, r) in pairs."""
    entries = [0] * (n * n)
    for c, r in pairs:
        entries[r * n + c] = 1
    return entries


def _nilpotent_partial_permutations(n):
    """Every nilpotent n x n 0/1 partial permutation, mapped to its type: a
    set of chains that cover 0..n-1, cut from some order of them."""
    found = {}
    for order in itertools.permutations(range(n)):
        for cuts in itertools.product((False, True), repeat=max(n - 1, 0)):
            chains = [[order[0]]] if n else []
            for cut, c in zip(cuts, order[1:]):
                if cut:
                    chains.append([])
                chains[-1].append(c)
            pairs = [(a, b) for chain in chains for a, b in zip(chain, chain[1:])]
            found[tuple(_from_pairs(n, pairs))] = Partition(sorted(map(len, chains), reverse=True))
    return found


def test_chain_branch_matches_power_oracle_on_all_small_01_matrices():
    """Every 0/1 matrix of size at most 3 over F_2 and F_3: the partial
    permutations among them are read off their chains, the others
    eliminated, and both agree with the power oracle."""
    for field in (F2, F3):
        read = 0
        for n in range(4):
            for entries in itertools.product((0, 1), repeat=n * n):
                _, typ = jordan_type_by_power_ranks(ExactMatrix(n, n, entries, field))
                assert _jordan_flat(entries, n, field.p) == typ, entries
                read += _chains(entries, n) is not None
        assert read == 1 + 2 + 7 + 34  # the partial permutations of sizes 0 to 3


def test_chain_branch_matches_power_oracle_on_nilpotent_partial_permutations():
    """Every nilpotent 0/1 partial permutation of size at most 6: its type is
    its chain lengths, as the power oracle finds."""
    counts = []
    for n in range(7):
        found = _nilpotent_partial_permutations(n)
        counts.append(len(found))
        for entries, typ in found.items():
            assert _jordan_flat(entries, n, F.p) == typ, entries
            assert jordan_type_by_power_ranks(ExactMatrix(n, n, entries, F)) == (True, typ), entries
    assert counts == [1, 1, 3, 13, 73, 501, 4051]  # sets of lists that cover n points


def test_chain_branch_rejects_partial_permutations_with_cycles():
    """A partial permutation with a cycle is not nilpotent: _jordan_flat
    returns None, as the power oracle finds, and _chain_order reads no
    order off it."""
    cyclic = 0
    for n in range(5):
        for k in range(n + 1):
            for cols in itertools.combinations(range(n), k):
                for rows in itertools.permutations(range(n), k):
                    entries = _from_pairs(n, zip(cols, rows))
                    nilpotent, typ = jordan_type_by_power_ranks(ExactMatrix(n, n, entries, F))
                    assert _jordan_flat(entries, n, F.p) == typ, entries
                    assert (_chain_order(entries, n) is None) == (not nilpotent)
                    cyclic += not nilpotent
    # (1 + 2 + 7 + 34 + 209) partial permutations, (1 + 1 + 3 + 13 + 73) nilpotent
    assert cyclic == 253 - 91
    # At n = 40: chains of lengths 20 and 17 and a 3-cycle, then the cycle
    # opened into a third chain.
    order = list(range(40))
    random.Random(40).shuffle(order)
    pairs = list(zip(order[:19], order[1:20])) + list(zip(order[20:36], order[21:37]))
    pairs += [(order[37], order[38]), (order[38], order[39]), (order[39], order[37])]
    entries = _from_pairs(40, pairs)
    assert _chains(entries, 40) is not None
    assert _jordan_flat(entries, 40, F.p) is None
    assert jordan_type_by_power_ranks(ExactMatrix(40, 40, entries, F)) == (False, None)
    entries = _from_pairs(40, pairs[:-1])
    assert _jordan_flat(entries, 40, F.p) == Partition((20, 17, 3))
    assert jordan_type_by_power_ranks(ExactMatrix(40, 40, entries, F)) == (True, Partition((20, 17, 3)))


def test_prefix_types_match_leading_blocks():
    """Theta of every flag point drawn for each strictly monotone d with
    last entry at most 6, over F_2, F_3 and F_32003: typed at every
    coordinate prefix in one call, it gives the type _jordan_flat finds for
    each leading block on its own.  A lowering endomorphism is strictly
    upper triangular, so it keeps every prefix.  Some F_2 draws are 0/1
    partial permutations other than 0, read off their chains."""
    chain_reads = 0
    for p in (2, 3, 32003):
        field = FieldSpec(p)
        rng = random.Random(53 + p)
        for d in strictly_monotone_vectors(6):
            for _ in range(3):
                entries = theta(_flag_point(d, field, rng)).entries
                n = d[-1]
                types = _jordan_flat(entries, n, p, range(n + 1))
                blocks = [[entries[r * n + c] for r in range(k) for c in range(k)] for k in range(n + 1)]
                assert types == [_jordan_flat(block, k, p) for k, block in enumerate(blocks)], (p, d, entries)
                assert _jordan_flat(entries, n, p, d) == [types[k] for k in d]
                chain_reads += any(entries) and _chains(entries, n) is not None
        if p == 2:
            assert chain_reads > 0


def test_prefix_types_refuse_what_they_cannot_read():
    """A requested prefix that N does not keep, or one outside 0..n, raises
    ValueError, for a partial permutation and for a matrix the elimination
    would type; a non-nilpotent N that keeps every requested prefix gives
    None."""
    for p in (2, 3, 32003):
        down = [0, 0, 1, 0]  # e_0 -> e_1: the first coordinate is not kept
        assert _jordan_flat(down, 2, p, [2]) == [Partition((2,))]
        with pytest.raises(ValueError):
            _jordan_flat(down, 2, p, [1])
        with pytest.raises(ValueError):
            _jordan_flat([0, 0, 1, 1], 2, p, [0, 1])  # two ones in a row: no partial permutation
        with pytest.raises(ValueError):
            _jordan_flat([0, 1, 0, 0], 2, p, [3])
        assert _jordan_flat([0, 1, 0, 0], 2, p, [0, 1, 2]) == [Partition(), Partition((1,)), Partition((2,))]
        assert _jordan_flat([1, 0, 0, 0], 2, p, [1, 2]) is None  # a 0/1 partial permutation with a fixed point
        assert _jordan_flat([1, 1, 0, 0], 2, p, [1, 2]) is None  # eliminated: rank 1 at every power
        assert _jordan_flat([0, 1, 0, 0], 2, p, []) == []


def test_chain_branch_leaves_entries_of_two_to_elimination():
    """A 2 in place of a 1 keeps the type of a chain but makes no partial
    permutation: the elimination types it, as the power oracle does."""
    for field in (F3, FieldSpec(5), F):
        for n in range(1, 5):
            for entries, typ in _nilpotent_partial_permutations(n).items():
                for idx in [i for i, v in enumerate(entries) if v][:2]:
                    twice = list(entries)
                    twice[idx] = 2
                    assert _chains(twice, n) is None
                    assert _jordan_flat(twice, n, field.p) == typ, twice
                    assert jordan_type_by_power_ranks(ExactMatrix(n, n, twice, field)) == (True, typ), twice
        # [[0, 2], [1, 0]] squares to 2 I: a 2-cycle, not nilpotent.
        assert _jordan_flat([0, 2, 1, 0], 2, field.p) is None
        assert jordan_type_by_power_ranks(ExactMatrix(2, 2, [0, 2, 1, 0], field)) == (False, None)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_rowspace_product_matches_full_product(p):
    """_times_rowspace equals the full product of R and N for ranks from 0
    to n, whether it forms R N as N at the pivot rows plus R' times N at the
    free rows (R' passes the _packs gate and R is more than half zero)
    or as the full product.  Where p allows packing, n = 40 takes the split
    path."""
    field = FieldSpec(p)
    rng = random.Random(p)
    split = set()
    for n in (7, 8, 9, 16, 40):
        N = random_matrix(n, n, field, rng)
        cases = [zeros(n, n, field), _random_invertible_pair(n, field, rng)[0]]
        for r in (1, n // 3, n // 2, 3 * n // 4, n - 1):
            cases.append(mul(random_matrix(n, r, field, rng), random_matrix(r, n, field, rng)))
        ranks = set()
        for M in cases:
            rows = M.to_rows()
            pivots = _rref(rows, p)
            r = len(pivots)
            ranks.add(r)
            flat = [v for row in rows[:r] for v in row]
            if _packs(n - r, p) and 2 * flat.count(0) > r * n:
                split.add(n)
            full = _mul_flat(flat, N.entries, r, n, n, p)
            assert _times_rowspace(rows, pivots, N.entries, n, p) == full, (n, r)
        assert {0, n} <= ranks
    assert (40 in split) == _packs(8, p)


def test_random_matrix_matches_checked_constructor():
    """random_matrix skips the checks of the constructor but draws the same
    stream and gives the same matrix, of ints in [0, p)."""
    for p in (2, 3, 32003, 2**31 - 1):
        field = FieldSpec(p)
        for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (4, 7)):
            rng, twin = random.Random(p + rows), random.Random(p + rows)
            M = random_matrix(rows, cols, field, rng)
            assert M == ExactMatrix(rows, cols, [twin.randrange(p) for _ in range(rows * cols)], field)
            assert rng.getstate() == twin.getstate()
            assert all(type(v) is int and 0 <= v < p for v in M.entries)
    with pytest.raises(ValueError, match="negative shape"):
        random_matrix(-1, -1, F, random.Random(0))


def test_jordan_basis_recheck_survives_optimisation():
    """Under python -O a wrong canonical form must still make jordan_basis
    raise: the re-check is not an assert."""
    script = textwrap.dedent(
        """
        from quiverz import exactmat
        from quiverz.partitions import Partition
        F = exactmat.FieldSpec()
        N = exactmat.canonical_nilpotent(Partition((2, 1)), F)
        exactmat.canonical_nilpotent = lambda eta, field: exactmat.zeros(eta.weight, eta.weight, field)
        try:
            exactmat.jordan_basis(N)
        except ArithmeticError as exc:
            print("raised", type(exc).__name__)
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "raised CertificateError"


def test_jordan_type_round_trip():
    for eta in partitions_up_to_weight(10):
        assert jordan_type(canonical_nilpotent(eta, F)) == eta


def test_jordan_type_conjugation_invariant():
    rng = random.Random(11)
    etas = [eta for eta in partitions_up_to_weight(7) if eta]
    for _ in range(100):
        eta = rng.choice(etas)
        n = canonical_nilpotent(eta, F)
        h = random_invertible(eta.weight, F, rng)
        assert jordan_type(mul(mul(h, n), inverse(h))) == eta


def test_jordan_basis_contract():
    rng = random.Random(12)
    for eta in partitions_up_to_weight(6):
        n = canonical_nilpotent(eta, F)
        g = jordan_basis(n)  # canonical input: contract still just conjugation
        assert mul(mul(inverse(g), n), g) == n
    for _ in range(30):
        eta = rng.choice([e for e in partitions_up_to_weight(7) if e])
        size = eta.weight
        h = random_invertible(size, F, rng)
        n = mul(mul(h, canonical_nilpotent(eta, F)), inverse(h))
        g = jordan_basis(n)
        assert mul(mul(inverse(g), n), g) == canonical_nilpotent(eta, F)


def test_jordan_basis_zero_matrix():
    g = jordan_basis(zeros(3, 3, F))
    assert rank(g) == 3


def test_jordan_basis_small_fields():
    rng = random.Random(13)
    for field in (F2, F3):
        for _ in range(30):
            eta = rng.choice([e for e in partitions_up_to_weight(5) if e])
            h = random_invertible(eta.weight, field, rng)
            n = mul(mul(h, canonical_nilpotent(eta, field)), inverse(h))
            g = jordan_basis(n)
            assert mul(mul(inverse(g), n), g) == canonical_nilpotent(eta, field)


def _jordan_basis_reference(N):
    """jordan_basis as first written, as an oracle: a kernel_basis of every
    power N^k, and chain tops chosen greedily by rank from
    [ker N^{j-1} | longer chains at height j | ker N^j]."""
    typ = jordan_type(N)
    n, field = N.rows, N.field
    if n == 0:
        return identity(0, field)
    kernels = []  # kernels[j] spans ker N^{j+1}
    P = N
    for _ in range(typ.parts[0]):
        K = kernel_basis(P)
        kernels.append([K.column(c) for c in range(K.cols)])
        P = mul(P, N)
    chains = []
    for j in range(len(kernels), 0, -1):
        picked = [chain[len(chain) - j] for chain in chains]
        if j >= 2:
            picked = kernels[j - 2] + picked
        for v in kernels[j - 1]:
            before = rank(ExactMatrix.from_rows(picked, field, cols=n))
            if rank(ExactMatrix.from_rows(picked + [v], field)) > before:
                picked.append(v)
                chain = [v]
                for _ in range(j - 1):
                    chain.append(mul(N, ExactMatrix(n, 1, chain[-1], field)).entries)
                chains.append(chain)
    columns = [col for chain in chains for col in reversed(chain)]
    return transpose(ExactMatrix.from_rows(columns, field))


def test_jordan_basis_matches_power_loop_oracle(monkeypatch):
    """The kernels from one _rref of each power and the tops from one _rref
    per height give the same g, byte for byte, as a kernel_basis of every
    power and tops picked by rank.  The cases: conjugated nilpotents up to
    size 7 over F_2, F_3 and F_32003 and of sizes 8, 12 and 16 over
    F_32003, and every nilpotent 0/1 partial permutation up to size 5 over
    F_2 and F_32003, whose types are read off their chains.  Between them
    the powers and the tops are each eliminated both packed and in lists."""
    rng = random.Random(15)
    cases = []
    for field in (F2, F3, F):
        cases += [zeros(0, 0, field), zeros(4, 4, field)]
        for eta in partitions_up_to_weight(7):
            h = random_invertible(eta.weight, field, rng)
            cases.append(mul(mul(h, canonical_nilpotent(eta, field)), inverse(h)))
    for n in (8, 12, 16):
        for eta in (Partition((n,)), Partition((3,) * (n // 3) + (n % 3,) * (n % 3 > 0)), Partition((2,) * (n // 2))):
            h = random_invertible(n, F, rng)
            cases.append(mul(mul(h, canonical_nilpotent(eta, F)), inverse(h)))
    for field in (F2, F):
        for n in range(6):
            cases += [ExactMatrix(n, n, entries, field) for entries in _nilpotent_partial_permutations(n)]
    # Each _rref call outside the type pass, as [stage, packed]: a power's
    # RREF goes on to _null_vectors, a height's tops do not.
    calls, in_type = [], []
    rref, rref_packed, null_vectors, jordan_flat = (
        exactmat._rref, exactmat._rref_packed, exactmat._null_vectors, exactmat._jordan_flat
    )

    def spy_rref(*args):
        if not in_type:
            calls.append(["tops", False])
        return rref(*args)

    def spy_rref_packed(*args):
        if not in_type:
            calls[-1][1] = True
        return rref_packed(*args)

    def spy_null_vectors(*args):
        calls[-1][0] = "power"
        return null_vectors(*args)

    def spy_jordan_flat(*args):
        in_type.append(1)
        try:
            return jordan_flat(*args)
        finally:
            in_type.pop()

    spies = {"_rref": spy_rref, "_rref_packed": spy_rref_packed,
             "_null_vectors": spy_null_vectors, "_jordan_flat": spy_jordan_flat}
    for n in cases:
        with monkeypatch.context() as m:
            for name, spy in spies.items():
                m.setattr(exactmat, name, spy)
            g, _ = exactmat._jordan_basis(n)
        assert jordan_basis(n) == g == _jordan_basis_reference(n)
    assert {tuple(call) for call in calls} == {(stage, packed) for stage in ("power", "tops") for packed in (True, False)}


def test_conjugator():
    rng = random.Random(14)
    n = canonical_nilpotent(Partition((2, 1)), F)
    assert conjugator(n, n).shape == (3, 3)
    h = random_invertible(3, F, rng)
    m = mul(mul(h, n), inverse(h))
    g = conjugator(n, m)
    assert mul(mul(g, m), inverse(g)) == n
    with pytest.raises(ValueError, match="types differ"):
        conjugator(n, canonical_nilpotent(Partition((1, 1, 1)), F))


def test_singular_jordan_basis_is_a_certificate_error(monkeypatch):
    """A singular basis from _jordan_basis is an internal fault.  The zero
    matrix meets N g = g C, so jordan_basis sees it only by its rank;
    conjugator refuses a singular g2 when it inverts it, and a singular g1
    by the rank of g, as g N2 = N1 g holds for g = 0."""
    real = exactmat._jordan_basis
    h = random_invertible(5, F, random.Random(16))
    n = canonical_nilpotent(Partition((3, 2)), F)
    m = mul(mul(h, n), inverse(h))
    for singular, call in (
        (0, lambda: jordan_basis(m)),
        (0, lambda: conjugator(n, m)),
        (1, lambda: conjugator(n, m)),
    ):
        calls = []

        def patched(N):
            g, typ = real(N)
            calls.append(N)
            return (zeros(N.rows, N.rows, N.field) if len(calls) - 1 == singular else g), typ

        with monkeypatch.context() as mp:
            mp.setattr(exactmat, "_jordan_basis", patched)
            with pytest.raises(CertificateError):
                call()


def test_conjugator_runs_two_jordan_passes(monkeypatch):
    """One Jordan-type pass per matrix: the bases carry the types.  g is
    the product of the first basis and the inverse of the second."""
    from quiverz import exactmat

    real = exactmat._jordan_flat
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    rng = random.Random(15)
    n = canonical_nilpotent(Partition((4, 2, 2, 1)), F)
    h = random_invertible(9, F, rng)
    m = mul(mul(h, n), inverse(h))
    expected = mul(jordan_basis(n), inverse(jordan_basis(m)))
    monkeypatch.setattr(exactmat, "_jordan_flat", counting)
    assert conjugator(n, m) == expected
    assert calls == [9, 9]
    calls.clear()
    conjugator(m, m)
    assert len(calls) == 2
    with pytest.raises(ValueError, match="^not nilpotent$"):
        conjugator(n, identity(9, F))
    with pytest.raises(ValueError, match="^nilpotency of a non-square matrix$"):
        conjugator(zeros(2, 3, F), n)


def test_mat_pow():
    n = canonical_nilpotent(Partition((3,)), F)
    assert mat_pow(n, 0) == identity(3, F)
    assert mat_pow(n, 2) == mul(n, n)
    assert mat_pow(n, 3).is_zero()


# --- subspace enumeration -------------------------------------------------------


def test_all_subspaces_counts():
    assert len(all_subspaces(2, F2)) == 5
    assert len(all_subspaces(3, F2)) == 16
    assert len(all_subspaces(2, F3)) == 6


def test_all_subspaces_are_distinct_full_rank():
    spaces = all_subspaces(3, F2)
    for W in spaces:
        assert rank(W) == W.cols
    # distinct as subspaces: no two have the same column span
    for i, X in enumerate(spaces):
        for Y in spaces[i + 1 :]:
            if X.cols == Y.cols and X.cols > 0:
                assert rank(hstack(X, Y)) > X.cols or X == Y


def test_all_subspaces_cached_per_size_and_field():
    """One shared, immutable tuple per (n, p), equal to an uncached build."""
    first = all_subspaces(3, F2)
    assert all_subspaces(3, FieldSpec(2)) is first
    assert isinstance(first, tuple)
    assert first == tuple(all_subspaces.__wrapped__(3, F2))
    assert all_subspaces(3, F3) is not first
    assert all_subspaces(3, F3) == tuple(all_subspaces.__wrapped__(3, F3))


# --- the trusted constructor ------------------------------------------------------


def _assert_matches_checked(R):
    """R holds a tuple of ints and equals itself built again through the
    public constructor, which reduces mod p."""
    assert type(R.entries) is tuple and all(type(e) is int for e in R.entries)
    assert R == ExactMatrix(R.rows, R.cols, R.entries, R.field)


def test_trusted_results_match_checked_constructor():
    """Every result the kernel wraps without the constructor's reduction
    equals the same matrix built the checked way, on inputs given as
    negative and >= p integers."""
    rng = random.Random(41)
    for field in (F2, F3, F):
        p = field.p
        for n in (0, 1, 3, 8, 11):

            def unreduced(rows, cols):
                return ExactMatrix(rows, cols, [rng.randint(-3 * p, 3 * p) for _ in range(rows * cols)], field)

            X, Y = unreduced(n, n + 2), unreduced(n + 2, 3)
            h = random_invertible(n, field, rng)
            results = [mul(X, Y), transpose(X), inverse(h), kernel_basis(X), kernel_basis(transpose(X))]
            # A conjugated nilpotent, its entries shifted by multiples of p.
            N = mul(mul(h, canonical_nilpotent(Partition((n,)) if n else Partition(), field)), inverse(h))
            N = ExactMatrix(n, n, [e + p * rng.randint(-2, 2) for e in N.entries], field)
            results.append(jordan_basis(N))
            for R in results:
                _assert_matches_checked(R)
        for d in ((1, 2), (1, 4, 5), (2, 5, 9, 11)):
            z = sample_stable(d, field, rng)
            for R in z.A + z.B:
                _assert_matches_checked(R)
