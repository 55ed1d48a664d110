"""rank, kernel_basis and inverse against sympy's DomainMatrix over GF(p), an
elimination written apart from this package, on matrices up to 12 x 12 over
F_2, F_3, F_32003 and F_(2^31 - 1), drawn by hypothesis under the profile of
conftest.py.  Without sympy or hypothesis these tests skip themselves."""

import contextlib
import random
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
pytest.importorskip("sympy")

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from quiverz import exactmat
from quiverz.exactmat import ExactMatrix, FieldSpec, inverse, kernel_basis, rank

from oracles import slot_edge_prime

PRIMES = (2, 3, 32003, 2**31 - 1)


def _matrix(rows: int, cols: int, p: int, kind: str, seed: int) -> ExactMatrix:
    """A rows x cols matrix over F_p drawn from random.Random(seed): every
    entry uniform ("dense"), about three in four zero ("sparse"), an upper
    triangle of nonzero entries with its rows reversed, so that every
    column's pivot lies on another row ("swapping"), or a product of random
    rows x k and k x cols factors with k < min(rows, cols) ("low rank"),
    singular when square."""
    rng = random.Random(seed)
    if kind == "dense":
        entries = [rng.randrange(p) for _ in range(rows * cols)]
    elif kind == "swapping":
        entries = [rng.randrange(1, p) if j >= rows - 1 - i else 0 for i in range(rows) for j in range(cols)]
    elif kind == "sparse":
        entries = [rng.randrange(1, p) if rng.random() < 0.25 else 0 for _ in range(rows * cols)]
    else:
        k = rng.randrange(max(min(rows, cols), 1))
        x = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        y = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        entries = [sum(x[i][l] * y[l][j] for l in range(k)) % p for i in range(rows) for j in range(cols)]
    return ExactMatrix(rows, cols, entries, FieldSpec(p))


def _domain(M: ExactMatrix) -> DomainMatrix:
    K = GF(M.field.p)
    return DomainMatrix([[K(v) for v in M.row(i)] for i in range(M.rows)], M.shape, K)


KINDS = st.sampled_from(["dense", "sparse", "swapping", "low rank"])
SEEDS = st.integers(0, 2**32 - 1)
matrices = st.builds(_matrix, st.integers(0, 12), st.integers(0, 12), st.sampled_from(PRIMES), KINDS, SEEDS)
square_matrices = st.integers(0, 12).flatmap(
    lambda n: st.builds(_matrix, st.just(n), st.just(n), st.sampled_from(PRIMES), KINDS, SEEDS)
)


@hypothesis.given(matrices)
def test_rank_matches_sympy(M):
    assert rank(M) == _domain(M).rank()


@hypothesis.given(matrices)
def test_kernel_basis_matches_sympy(M):
    """kernel_basis has as many columns as sympy's nullspace has vectors,
    and sympy finds M K = 0 and K of full column rank."""
    D = _domain(M)
    K = kernel_basis(M)
    assert K.cols == D.nullspace().shape[0] == M.cols - D.rank()
    DK = _domain(K)
    assert (D * DK).is_zero_matrix
    assert DK.rank() == K.cols


# Both sides of the _packs gate for sure: 12 x 12 over F_32003, dense,
# swapping and singular, and a sparse one over F_3 pass it; a dense one
# over F_(2^31 - 1) and a dense 7 x 7 over F_32003 do not.
@hypothesis.example(_matrix(12, 12, 32003, "dense", 0))
@hypothesis.example(_matrix(12, 12, 32003, "swapping", 0))
@hypothesis.example(_matrix(12, 12, 32003, "low rank", 0))
@hypothesis.example(_matrix(12, 12, 2**31 - 1, "dense", 0))
@hypothesis.example(_matrix(12, 12, 3, "sparse", 0))
@hypothesis.example(_matrix(7, 7, 32003, "dense", 0))
@hypothesis.given(square_matrices)
def test_inverse_matches_sympy(M):
    """inverse gives sympy's inverse entry for entry, or refuses M as
    singular exactly when sympy does."""
    p = M.field.p
    try:
        expect = [int(v) % p for row in _domain(M).inv().to_list() for v in row]
    except DMNonInvertibleMatrixError:
        with pytest.raises(ValueError, match="singular"):
            inverse(M)
        return
    assert list(inverse(M).entries) == expect


def test_inverse_examples_straddle_the_gate():
    """The explicit examples of test_inverse_matches_sympy fall on the sides
    of the _packs gate that its comment gives them: the inversion packs rows
    exactly for the three 12 x 12 over F_32003 and the sparse one over F_3,
    whose zeros do not count."""
    for M, packs in (
        (_matrix(12, 12, 32003, "dense", 0), True),
        (_matrix(12, 12, 32003, "swapping", 0), True),
        (_matrix(12, 12, 32003, "low rank", 0), True),
        (_matrix(12, 12, 2**31 - 1, "dense", 0), False),
        (_matrix(12, 12, 3, "sparse", 0), True),
        (_matrix(7, 7, 32003, "dense", 0), False),
    ):
        with mock.patch.object(exactmat, "_pack", wraps=exactmat._pack) as spy:
            exactmat._inverse_flat(M.entries, M.rows, M.field.p)
        assert spy.called == packs


@contextlib.contextmanager
def _echelon_sides():
    """Within the block, each call of exactmat._echelon appends to the list
    it yields whether it packed its rows (called _pack), so a caller that
    also packs for its products (_mul_flat) is told apart."""
    sides = []
    real = exactmat._echelon

    def echelon(*args):
        with mock.patch.object(exactmat, "_pack", wraps=exactmat._pack) as spy:
            pivots = real(*args)
        sides.append(spy.called)
        return pivots

    with mock.patch.object(exactmat, "_echelon", echelon):
        yield sides


def test_echelon_rank_matches_rref_and_sympy():
    """The rank echelon that rank counts (_echelon) has the pivots of the
    RREF, and its pivot count is sympy's rank: at n = 7, 8 and 9, dense,
    sparse, swapping and of low rank, with n - 3, n and n + 5 columns, so
    on both sides of the _packs gate, which counts rows alone; at n = 40;
    and on shapes with no rows or no columns."""
    sides = set()
    for p in PRIMES:
        cases = [_matrix(r, c, p, "dense", 0) for r, c in ((0, 0), (0, 5), (5, 0), (0, 40), (40, 0))]
        for n in (7, 8, 9, 40):
            for kind in ("dense", "sparse", "swapping", "low rank"):
                cases += [_matrix(n, cols, p, kind, n * cols) for cols in (n - 3, n, n + 5)]
        for M in cases:
            with _echelon_sides() as packed:
                pivots = exactmat._echelon(M.entries, M.rows, M.cols, p)
            sides.add((p, M.rows, packed == [True]))
            assert (packed == [True]) == exactmat._packs(M.rows, p), (p, M.shape)
            assert pivots == exactmat._rref(M.to_rows(), p)[0], (p, M.shape)
            assert len(pivots) == rank(M) == _domain(M).rank(), (p, M.shape)
    for p in (2, 3, 32003):
        assert {(p, 7, False), (p, 8, True), (p, 40, True)} <= sides
    assert not any(packed for p, _, packed in sides if p == 2**31 - 1)


def _echelon_inputs(p, rng):
    """(kind, rows, cols, flat entries) for the rank echelon: wide, tall and
    square shapes with 3, 7, 8, 9 and 16 rows, dense, half zero, column 1 a
    multiple of column 0, a zero row, and zero; then 0 x k and k x 0."""
    for rows in (3, 7, 8, 9, 16):
        for cols in (rows + 5, max(rows - 2, 2), rows):
            size = rows * cols
            dense = [rng.randrange(p) for _ in range(size)]
            half = [rng.randrange(1, p) for _ in range(size)]
            for i in rng.sample(range(size), size // 2):
                half[i] = 0
            multiple, zero_row, factor = dense[:], dense[:], rng.randrange(p)
            for i in range(rows):
                multiple[i * cols + 1] = factor * multiple[i * cols] % p
            zero_row[(rows // 2) * cols : (rows // 2 + 1) * cols] = [0] * cols
            yield from (
                ("dense", rows, cols, dense), ("half zero", rows, cols, half),
                ("column multiple", rows, cols, multiple), ("zero row", rows, cols, zero_row),
                ("zero", rows, cols, [0] * size),
            )
    for k in (1, 8, 12):
        yield "no rows", 0, k, []
        yield "no columns", k, 0, []


def test_rank_echelon_matches_rref_pivots_and_sympy_rank():
    """_echelon gives the pivot columns of the RREF (_rref) and sympy's rank
    over GF(p), for every input of _echelon_inputs, given as a list and as
    a tuple, over p in {2, 3, 32003, 2^31 - 1} and the largest prime that
    packs 8 rows.  Both sides of the gate are reached over every prime but
    2^31 - 1, which packs nothing."""
    rng = random.Random(71)
    edge = slot_edge_prime(8)
    sides = set()
    for p in PRIMES + (edge,):
        for kind, rows, cols, entries in _echelon_inputs(p, rng):
            M = ExactMatrix(rows, cols, entries, FieldSpec(p))
            with _echelon_sides() as packed:
                pivots = exactmat._echelon(entries, rows, cols, p)
            sides.add((p, packed == [True]))
            assert pivots == exactmat._rref(M.to_rows(), p)[0], (p, kind, rows, cols)
            assert len(pivots) == _domain(M).rank(), (p, kind, rows, cols)
            assert exactmat._echelon(tuple(entries), rows, cols, p) == pivots
            if kind == "column multiple":
                assert 1 not in pivots
            elif kind == "zero":
                assert pivots == []
    assert {(p, packed) for p in (2, 3, 32003, edge) for packed in (False, True)} <= sides
    assert (2**31 - 1, True) not in sides


def test_composite_ranks_match_sympy():
    """_composite_ranks gives sympy's rank of every composite F_1, F_2 F_1,
    ... of factors drawn as _matrix draws them, over each prime: dense,
    sparse, swapping and of low rank, on chains whose composites pass the
    _packs gate (from 8 rows, dense, over F_2, F_3 and F_32003) and fall
    below it; with a zero factor, after which every rank is 0; and with a
    factor of no rows or no columns: one list for the width dims[0], and
    one list per width w of sympy's ranks of the first w columns of each
    composite, for every w from 0 to dims[0] in one call."""
    chains = [(12, 10, 9, 8), (5, 12, 11, 3), (3, 5, 2), (9, 4, 9, 12), (7, 0, 3), (0, 4, 6), (4, 1, 6, 2)]
    sides = set()
    for p in PRIMES:
        for dims in chains:
            for kind in ("dense", "sparse", "swapping", "low rank", "zero"):
                factors = [
                    ExactMatrix(m, n, [0] * (m * n), FieldSpec(p)) if kind == "zero" and j == 1
                    else _matrix(m, n, p, "dense" if kind == "zero" else kind, 31 * j)
                    for j, (n, m) in enumerate(zip(dims, dims[1:]))
                ]
                composites = []
                for F in factors:
                    composites.append(_domain(F) if not composites else _domain(F) * composites[-1])
                expect = [Q.rank() for Q in composites]
                with _echelon_sides() as packed:
                    ranks = exactmat._composite_ranks([F.entries for F in factors], dims, p, dims[:1])
                assert ranks == [expect], (p, dims, kind)
                sides.add((p, any(packed)))
                if kind == "zero":
                    assert expect[1:] == [0] * (len(dims) - 2)
                widths = range(dims[0] + 1)
                by_width = [[Q[:, :w].rank() for Q in composites] for w in widths]
                assert exactmat._composite_ranks([F.entries for F in factors], dims, p, widths) == by_width
    assert {(p, packed) for p in (2, 3, 32003) for packed in (False, True)} <= sides
    assert (2**31 - 1, True) not in sides
