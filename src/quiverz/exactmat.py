"""Dense exact linear algebra over a prime field F_p.

Matrices are immutable values: a shape, a field, and a flat row-major tuple
of residues in [0, p).  Everything is computed with Python integers, so all
results are exact; the default modulus 32003 is large enough that the
desk-scale rank and Jordan-type computations used here behave like the
characteristic-zero ones, while p = 2 keeps exhaustive enumerations small.

The dense kernels work on packed rows: one Python int per row, entry j in
the 64-bit slot at bits 64j to 64j + 63 (_pack and _unpack hold the
format), so a row operation is one C-level multiply-add of big ints.  Slots
only ever grow between reductions, so every slot has to stay below 2^64.
One gate decides for the three packed loops, of _mul_flat, _rref and
_inverse_flat: at least 8 rows to combine, (p - 1)^2 * (rows + 1) + p <
2^64 (_packs; it holds for p = 32003 and fails for p near 2^31), and at
most half of the entries that select the work zero.

_mul_flat, the one product, has three paths.  When either factor is a 0/1
partial permutation (_partial_permutation reads it, and _chains too), the
product is a gather of rows or columns of the other factor, at any size and
ahead of the gate: so are both products of every glued chain point and of
every flag point, whose forward maps are such matrices.  Otherwise it packs
the rows of its right operand; the gate counts the m rows of ye and the
zeros of xe.  Each output row is the sum of its entries of xe times those
packed rows, at most m (p - 1)^2 per slot, unpacked and reduced once.  Below
the gate the row loop skips zero entries and suits the tiny dense matrices
of the exhaustive drivers.  rank needs no elimination of a 0/1 partial
permutation: _partial_permutation reads it, and its rank is its count of
ones.

_rref is the one list-form elimination: rank, kernel_basis, the Jordan
type, the Jordan basis and every inverse below the gate run on it, and
solve, the unique X with M X = C, runs on one _rref of [M | C].
It counts its rows and the zeros of the columns it searches for pivots, so
an augmented system is judged by its left block.  Past the gate it reduces
the entries as it packs them; then row i += (p - f) * pivot row adds at
most (p - 1)^2 per slot for each pivot, a row is reduced again only when it
becomes the pivot row, and every row once at the end, when the lists are
written back.  Below it, the list loop skips rows with a zero in the pivot
column.  Both give the same RREF.  _inverse_flat inverts a matrix past the
gate in place on packed n-wide rows: the elimination row carries inv + 1 in
its pivot slot, so each row step stays one multiply-add.  Below the gate it
is one _rref of [M | I], which the same gate, on the left block, keeps in
lists.

_jordan_flat, the one Jordan-type routine, reads a 0/1 partial permutation
off its chains (_chains) and eliminates nothing: each chain is a Jordan
block.  Any other input runs one elimination per power, and multiplies each
reduced basis R = [I | R'] by N.  When R is more than half zero, which
sends the full product to its row loop, and R' passes the _packs gate for
its n - r columns, R N is N at the pivot rows plus one packed product of
R' (_times_rowspace).  The same pass types N on every coordinate prefix E_k
it keeps, the span of the first k coordinates: rank((N|E_k)^j) is the count
of pivots below k of the RREF of N^j, and a chain meets E_k in its indices
below k.  So theta alone types every interface of a flag point.
_jordan_basis needs nothing more: its type comes
from _jordan_flat, ker N^j from one _rref of N^j formed by _mul_flat, and
the chain tops of each height from one more _rref.

Kernel results are wrapped by ExactMatrix._reduced, which skips the checks
and the reduction of the public constructor.  Its precondition: exactly
rows * cols Python ints, each already in [0, p).  random_matrix takes its
entries from randrange(p), so they meet it too.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Union

from quiverz.partitions import Partition, dual

DEFAULT_PRIME = 32003
_SLOT_LIMIT = 1 << 64
_SLOT_MASK = _SLOT_LIMIT - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class CertificateError(ArithmeticError):
    """A re-check of a computed certificate failed: an internal fault, never
    bad input.  Raised by code that stays on under python -O."""


class FieldSpec:
    """A prime field F_p, p prime below 2^31 (default 32003)."""

    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        try:
            p = operator.index(p)
        except TypeError:
            raise ValueError(f"modulus must be an integer, got {p!r}") from None
        # The bound keeps the trial division in _is_prime under 2^15 steps.
        if p >= 1 << 31:
            raise ValueError(f"modulus must be below 2^31, got {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return f"FieldSpec({self.p})"


class ExactMatrix:
    """Dense matrix over F_p; entries stored row-major, reduced mod p."""

    __slots__ = ("rows", "cols", "field", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int], field: FieldSpec):
        try:
            rows, cols = operator.index(rows), operator.index(cols)
        except TypeError:
            raise ValueError(f"matrix shape must be integers, got ({rows!r}, {cols!r})") from None
        if rows < 0 or cols < 0:
            raise ValueError(f"negative shape ({rows}, {cols})")
        try:
            entries = tuple(operator.index(e) % field.p for e in entries)
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        self.rows = rows
        self.cols = cols
        self.field = field
        self.entries = entries

    @classmethod
    def _reduced(cls, rows: int, cols: int, entries: Iterable[int], field: FieldSpec) -> "ExactMatrix":
        """A matrix of kernel results: rows * cols ints already in [0, p),
        taken without the checks and the reduction of the constructor."""
        M = cls.__new__(cls)
        M.rows = rows
        M.cols = cols
        M.field = field
        M.entries = tuple(entries)
        return M

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[int]], field: FieldSpec, cols: Optional[int] = None
    ) -> "ExactMatrix":
        nrows = len(rows)
        if nrows:
            cols = len(rows[0])
            if any(len(row) != cols for row in rows):
                raise ValueError(f"ragged rows: lengths {[len(row) for row in rows]}")
        elif cols is None:
            cols = 0
        flat = [e for row in rows for e in row]
        return cls(nrows, cols, flat, field)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> List[List[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "p": self.field.p,
            "entries": list(self.entries),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExactMatrix":
        return cls(data["rows"], data["cols"], data["entries"], FieldSpec(data["p"]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.shape == other.shape
            and self.field == other.field
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.field.p, self.entries))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} mod {self.field.p})"


def _require_same_field(X: ExactMatrix, Y: ExactMatrix) -> None:
    if X.field != Y.field:
        raise ValueError(f"field mismatch: {X.field} vs {Y.field}")


def zeros(rows: int, cols: int, field: FieldSpec) -> ExactMatrix:
    return ExactMatrix(rows, cols, [0] * (rows * cols), field)


def identity(n: int, field: FieldSpec) -> ExactMatrix:
    e = [0] * (n * n)
    for i in range(n):
        e[i * n + i] = 1
    return ExactMatrix(n, n, e, field)


def _packs(count: int, p: int) -> bool:
    """The gate of the packed loops, before their zero counts: at least 8
    rows to combine, and count + 1 products of residues plus a residue fit
    in a 64-bit slot."""
    return count >= 8 and (p - 1) ** 2 * (count + 1) + p < _SLOT_LIMIT


def _pack(row: Sequence[int]) -> int:
    """One int holding the entries of row, each in [0, 2^64): entry j in the
    bits 64j to 64j + 63."""
    return int.from_bytes(array("Q", row).tobytes(), sys.byteorder)


def _unpack(packed: int, width: int) -> array:
    """The width slots of a packed row; every slot must be below 2^64."""
    return array("Q", packed.to_bytes(8 * width, sys.byteorder))


def _mul_flat(xe: Sequence[int], ye: Sequence[int], n: int, m: int, k: int, p: int) -> List[int]:
    """Row-major entries of the n x k product of the flat n x m matrix xe and
    the flat m x k matrix ye, both with entries in [0, p), reduced mod p.

    When either factor is a 0/1 partial permutation (_partial_permutation),
    the product is a gather, at any size: for x, row x(l) of the product is
    row l of ye; for y, column j is column y(j) of xe; the rows and columns
    they miss are zero.  Otherwise, past the _packs gate for the m rows of
    ye, with at most half of xe zero, each output row is the sum of its
    entries times the packed rows of ye, unpacked once.  Otherwise each row
    accumulates only its nonzero entries times the matching rows of ye."""
    xmap = _partial_permutation(xe, n, m)
    if xmap is not None:
        out = [0] * (n * k)
        for l, i in enumerate(xmap):
            if i >= 0:
                out[i * k : (i + 1) * k] = ye[l * k : (l + 1) * k]
        return out
    ymap = _partial_permutation(ye, m, k)
    if ymap is not None:
        return [xe[i + l] if l >= 0 else 0 for i in range(0, n * m, m) for l in ymap]
    if _packs(m, p) and 2 * xe.count(0) <= len(xe):
        packed = [_pack(ye[l * k : (l + 1) * k]) for l in range(m)]
        out = []
        for i in range(n):
            out.extend(v % p for v in _unpack(sum(map(operator.mul, xe[i * m : (i + 1) * m], packed)), k))
        return out
    out = [0] * (n * k)
    for i in range(n):
        xi = i * m
        acc = [0] * k
        for l in range(m):
            c = xe[xi + l]
            if c:
                yl = l * k
                for j in range(k):
                    acc[j] += c * ye[yl + j]
        oi = i * k
        for j in range(k):
            out[oi + j] = acc[j] % p
    return out


def mul(X: ExactMatrix, Y: ExactMatrix) -> ExactMatrix:
    """Exact product mod p."""
    _require_same_field(X, Y)
    if X.cols != Y.rows:
        raise ValueError(f"shape mismatch: {X.shape} times {Y.shape}")
    out = _mul_flat(X.entries, Y.entries, X.rows, X.cols, Y.cols, X.field.p)
    return ExactMatrix._reduced(X.rows, Y.cols, out, X.field)


def hstack(X: ExactMatrix, Y: ExactMatrix) -> ExactMatrix:
    _require_same_field(X, Y)
    if X.rows != Y.rows:
        raise ValueError(f"row mismatch: {X.shape} next to {Y.shape}")
    out = []
    for i in range(X.rows):
        out.extend(X.row(i))
        out.extend(Y.row(i))
    return ExactMatrix(X.rows, X.cols + Y.cols, out, X.field)


def _rref(rows: List[List[int]], p: int, pivot_cols: Optional[int] = None) -> List[int]:
    """In-place reduced row echelon form; returns the pivot column list.
    The package's one list-form elimination.

    Pivots are searched only in the first pivot_cols columns; row operations
    always span the full width, so augmented columns ride along, and a
    column is a pivot exactly when it is not in the span of the columns
    before it.  Past the _packs gate for its rows, with at most half of the
    first pivot_cols columns zero, the rows are eliminated packed
    (_rref_packed); otherwise in lists, reading entries mod p and skipping
    rows with a zero in the pivot column, where a row that no step touches
    keeps its entries as given."""
    nrows = len(rows)
    width = len(rows[0]) if nrows else 0
    if pivot_cols is None:
        pivot_cols = width
    if _packs(nrows, p) and 2 * sum(row[:pivot_cols].count(0) for row in rows) <= nrows * pivot_cols:
        return _rref_packed(rows, p, pivot_cols)
    pivots: List[int] = []
    r = 0
    for c in range(pivot_cols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c] % p, p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] % p:
                f = rows[i][c] % p
                ri, rr = rows[i], rows[r]
                rows[i] = [(ri[j] - f * rr[j]) % p for j in range(width)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _rref_packed(rows: List[List[int]], p: int, pivot_cols: int) -> List[int]:
    """_rref on packed rows, for inputs that pass the _packs gate.

    Rows are reduced when packed, when they become the pivot row and once
    at the end; between, row i += (p - f) * pivot row only adds, at most
    (p - 1)^2 per slot and pivot, so no slot reaches 2^64."""
    nrows = len(rows)
    width = len(rows[0])
    packed = [_pack([v % p for v in row]) for row in rows]
    pivots: List[int] = []
    r = 0
    for c in range(pivot_cols):
        shift = 64 * c
        pivot = next((i for i in range(r, nrows) if (packed[i] >> shift & _SLOT_MASK) % p), None)
        if pivot is None:
            continue
        row = _unpack(packed[pivot], width)
        packed[pivot] = packed[r]
        inv = pow(row[c] % p, p - 2, p)
        pivot_row = packed[r] = _pack([v * inv % p for v in row])
        for i in range(nrows):
            if i != r:
                f = (packed[i] >> shift & _SLOT_MASK) % p
                if f:
                    packed[i] += (p - f) * pivot_row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    rows[:] = [[v % p for v in _unpack(x, width)] for x in packed]
    return pivots


def rank(M: ExactMatrix) -> int:
    """The rank: the count of ones of a 0/1 partial permutation
    (_partial_permutation), one elimination (_rref) of anything else."""
    image = _partial_permutation(M.entries, M.rows, M.cols)
    if image is not None:
        return M.cols - image.count(-1)
    return len(_rref(M.to_rows(), M.field.p))


def is_injective(M: ExactMatrix) -> bool:
    return rank(M) == M.cols


def _null_vectors(rows: List[List[int]], pivots: List[int], width: int, p: int) -> List[List[int]]:
    """Basis of {x : R x = 0} for R in RREF with the given pivot columns,
    reading only its first width columns: one vector per free column."""
    pivot_set = set(pivots)
    vectors = []
    for f in range(width):
        if f not in pivot_set:
            v = [0] * width
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = (-rows[r][f]) % p
            vectors.append(v)
    return vectors


def _from_columns(vectors: Sequence[Sequence[int]], rows: int, field: FieldSpec) -> ExactMatrix:
    """The rows x len(vectors) matrix with the given columns."""
    return ExactMatrix._reduced(rows, len(vectors), [v[i] for i in range(rows) for v in vectors], field)


def kernel_basis(M: ExactMatrix) -> ExactMatrix:
    """Matrix whose columns form a basis of {x : Mx = 0}; cols - rank of them."""
    R = M.to_rows()
    pivots = _rref(R, M.field.p)
    return _from_columns(_null_vectors(R, pivots, M.cols, M.field.p), M.cols, M.field)


def _inverse_flat(entries: Sequence[int], n: int, p: int) -> Optional[List[int]]:
    """Flat entries of the inverse of the flat n x n matrix, entries in
    [0, p), or None if it is singular.

    Below the _packs gate for the n rows, or with more than half of the
    entries zero, one _rref of [M | I] both tests M and inverts it.
    Otherwise Gauss-Jordan runs in place on packed n-wide rows.  Step c swaps
    a pivot into row c, or finds the matrix singular when column c has none
    from row c down, and scales that row by inv = 1 / pivot with inv in the
    pivot slot.  Every other row takes f times the elimination row, the
    pivot row with inv + 1 in the pivot slot, where f is its entry in column
    c: that slot becomes f - f (inv + 1) = -f inv, the entry the inverse
    needs there, so a row step is one multiply-add.  Rows are reduced when
    they become the pivot row and once at the end, and row i += (p - f) *
    elimination row adds at most (p - 1)^2 per slot and step, (p - 1) p at
    the one step with inv + 1.  The row swaps come back as column swaps at
    the end, the last first."""
    if not _packs(n, p) or 2 * entries.count(0) > len(entries):
        aug = [list(entries[i * n : (i + 1) * n]) + [int(j == i) for j in range(n)] for i in range(n)]
        if len(_rref(aug, p, pivot_cols=n)) != n:
            return None
        return [v for row in aug for v in row[n:]]
    rows = [_pack(entries[i * n : (i + 1) * n]) for i in range(n)]
    swaps = []
    for c in range(n):
        shift = 64 * c
        col = [(x >> shift & _SLOT_MASK) % p for x in rows]
        pivot = next((i for i in range(c, n) if col[i]), None)
        if pivot is None:
            return None
        swaps.append(pivot)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        col[c], col[pivot] = col[pivot], col[c]
        inv = pow(col[c], p - 2, p)
        row = [v * inv % p for v in _unpack(rows[c], n)]
        row[c] = inv
        rows[c] = _pack(row)
        elim = rows[c] + (1 << shift)
        for i, f in enumerate(col):
            if f and i != c:
                rows[i] += (p - f) * elim
    rows = [[v % p for v in _unpack(x, n)] for x in rows]
    order = list(range(n))
    for c in range(n - 1, -1, -1):
        order[c], order[swaps[c]] = order[swaps[c]], order[c]
    return [row[j] for row in rows for j in order]


def inverse(M: ExactMatrix) -> ExactMatrix:
    if not M.is_square():
        raise ValueError("inverse of a non-square matrix")
    out = _inverse_flat(M.entries, M.rows, M.field.p)
    if out is None:
        raise ValueError("matrix is singular")
    return ExactMatrix._reduced(M.rows, M.rows, out, M.field)


def solve(M: ExactMatrix, C: ExactMatrix) -> ExactMatrix:
    """The unique X with M X = C, from one elimination (_rref) of [M | C].

    Raises ValueError("no solution") on an inconsistent system and
    ValueError("not unique") when M has a kernel."""
    _require_same_field(M, C)
    if M.rows != C.rows:
        raise ValueError(f"shape mismatch: solving {M.shape} * X = {C.shape}")
    n = M.cols
    aug = [list(M.row(i)) + list(C.row(i)) for i in range(M.rows)]
    pivots = _rref(aug, M.field.p, pivot_cols=n)
    if any(any(row[n:]) for row in aug[len(pivots) :]):
        raise ValueError("no solution")
    if len(pivots) < n:
        raise ValueError("not unique")
    return ExactMatrix._reduced(n, C.cols, [v for row in aug[:n] for v in row[n:]], M.field)


def random_matrix(rows: int, cols: int, field: FieldSpec, rng) -> ExactMatrix:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape ({rows}, {cols})")
    return ExactMatrix._reduced(rows, cols, [rng.randrange(field.p) for _ in range(rows * cols)], field)


def _random_invertible_pair(n: int, field: FieldSpec, rng) -> tuple:
    """(g, g^-1) for a uniformly random invertible g: draws as random_matrix
    until the in-place inversion finds a pivot in every column, which also
    gives g^-1."""
    while True:
        g = random_matrix(n, n, field, rng)
        ginv = _inverse_flat(g.entries, n, field.p)
        if ginv is not None:
            return g, ExactMatrix._reduced(n, n, ginv, field)


def canonical_nilpotent(eta: Partition, field: FieldSpec) -> ExactMatrix:
    """Block-diagonal nilpotent with one shift block per part of eta: basis
    vectors are the boxes of the Young diagram, each mapped to its left
    neighbour and the first column to 0."""
    n = eta.weight
    out = [0] * (n * n)
    offset = 0
    for part in eta.parts:
        for i in range(part - 1):
            out[(offset + i) * n + (offset + i + 1)] = 1
        offset += part
    return ExactMatrix(n, n, out, field)


def _partial_permutation(entries: Sequence[int], rows: int, cols: int) -> Optional[List[int]]:
    """The index map of the flat rows x cols matrix when it is a 0/1 partial
    permutation, else None: entry c is r when it sends e_c to e_r, -1 when it
    kills e_c.  A dense input is turned away by two nonzero entries in its
    first row, at the cost of that row, or else by its counts of zeros and
    of ones; the ones are found by index(), one step per one."""
    if rows and entries[:cols].count(0) < cols - 1:
        return None
    ones = len(entries) - entries.count(0)
    if ones > rows or ones > cols or entries.count(1) != ones:
        return None
    image = [-1] * cols
    hit = bytearray(rows)
    idx = -1
    for _ in range(ones):
        idx = entries.index(1, idx + 1)
        r = idx // cols
        c = idx - r * cols
        if image[c] >= 0 or hit[r]:
            return None
        image[c] = r
        hit[r] = 1
    return image


def _chains(entries: Sequence[int], n: int) -> Optional[List[List[int]]]:
    """The chains of the flat n x n matrix N when N is a 0/1 partial
    permutation (_partial_permutation), else None.

    A chain starts at an index that no column maps onto and follows N down
    to the index N kills, so it lists unit vectors top to bottom; the chains
    come by increasing top index.  They cover all n indices exactly when N
    is nilpotent: the other indices lie on cycles."""
    below = _partial_permutation(entries, n, n)
    if below is None:
        return None
    targets = set(below)
    chains = []
    for top in range(n):
        if top not in targets:
            chain = [top]
            while below[chain[-1]] >= 0:
                chain.append(below[chain[-1]])
            chains.append(chain)
    return chains


def _times_rowspace(rows: List[List[int]], pivots: List[int], entries: Sequence[int], n: int, p: int) -> List[int]:
    """Flat entries of R N, for R the first len(pivots) rows of an RREF of
    width n with these pivot columns and N the flat n x n matrix.

    Up to column order R is [I | R'].  When R is more than half zero, which
    sends the full product to its row loop, and R' passes the _packs gate
    for its n - r columns, R N is N at the pivot rows plus R' times N at
    the free rows: one packed product over the free columns.  Otherwise, as
    for every n <= 8, the full product."""
    r = len(pivots)
    flat = [v for row in rows[:r] for v in row]
    if not _packs(n - r, p) or 2 * flat.count(0) <= r * n:
        return _mul_flat(flat, entries, r, n, n, p)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    r_free = [row[c] for row in rows[:r] for c in free]
    n_free = [v for c in free for v in entries[c * n : (c + 1) * n]]
    tail = _mul_flat(r_free, n_free, r, len(free), n, p)
    head = [v for c in pivots for v in entries[c * n : (c + 1) * n]]
    return [(x + y) % p for x, y in zip(head, tail)]


def _jordan_flat(
    entries: Sequence[int], n: int, p: int, prefixes: Optional[Sequence[int]] = None
) -> Union[Partition, List[Partition], None]:
    """Jordan type of the flat n x n matrix N, or None if N is not nilpotent.

    A 0/1 partial permutation N is read off its chains: their lengths are
    the type, and an index left on a cycle means N is not nilpotent.
    Otherwise an RREF basis of rowspace(N^j) times N spans rowspace(N^{j+1}),
    so each power costs one elimination of ever fewer rows.  The ranks reach
    0 exactly when N is nilpotent; a rank that stalls above 0 means it is
    not.  The rank drops are the kernel-dimension increments, whose dual is
    the type.

    With prefixes, the list of the types of N restricted to E_k, the span
    of the first k coordinates, for each k in prefixes, from the same pass;
    None if N is not nilpotent.  N must keep each E_k: an N with a nonzero
    entry in a row >= k of a column < k raises ValueError.  Then
    rank((N|E_k)^j) is the rank of the first k columns of N^j, the number
    of pivots below k of its RREF, and the chain of a partial permutation
    meets E_k in its indices below k, a tail of the chain."""
    ks = (n,) if prefixes is None else tuple(prefixes)
    if prefixes is not None:
        for k in ks:
            if not 0 <= k <= n or any(any(entries[r * n : r * n + k]) for r in range(k, n)):
                raise ValueError(f"N does not keep the span of the first {k} of {n} coordinates")
    chains = _chains(entries, n)
    if chains is not None:
        if sum(map(len, chains)) != n:
            return None
        if prefixes is None:
            return Partition._sorted(tuple(sorted(map(len, chains), reverse=True)))
        meets = ([sum(i < k for i in chain) for chain in chains] for k in ks)
        return [Partition._sorted(tuple(sorted(filter(None, counts), reverse=True))) for counts in meets]
    powers = []  # the pivot columns of the RREF of each power N^j
    prev = n
    rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    while prev:
        pivots = _rref(rows, p)
        r = len(pivots)
        if r == prev:
            return None
        powers.append(pivots)
        prev = r
        if r:
            out = _times_rowspace(rows, pivots, entries, n, p)
            rows = [out[i * n : (i + 1) * n] for i in range(r)]
    types = []
    for k in ks:
        drops = []
        prev = k
        for pivots in powers:
            if not prev:
                break
            r = sum(c < k for c in pivots)
            drops.append(prev - r)
            prev = r
        types.append(dual(Partition(drops)))
    return types if prefixes is not None else types[0]


def jordan_type(N: ExactMatrix) -> Partition:
    """Jordan type of a nilpotent matrix: dual of the kernel-dimension
    increments of its powers."""
    if not N.is_square():
        raise ValueError("nilpotency of a non-square matrix")
    typ = _jordan_flat(N.entries, N.rows, N.field.p)
    if typ is None:
        raise ValueError("not nilpotent")
    return typ


def _jordan_basis(N: ExactMatrix) -> tuple:
    """(g, jordan_type(N)) with g^-1 N g the canonical nilpotent.

    Chains are grown from the top height down: at height j, new chain tops
    complete ker N^{j-1} plus the images of the longer chains to a basis of
    ker N^j.  ker N^j is the null vectors of one _rref of N^j, whose RREF,
    and so basis, is unique.  The tops are the pivot columns past the span
    block of one _rref of [ker N^{j-1} | longer chains at height j | ker N^j]
    with the vectors as columns: each vector of ker N^j, in order, outside
    the span of those before it.  Unchecked: the public callers re-check
    what they return."""
    if not N.is_square():
        raise ValueError("nilpotency of a non-square matrix")
    n = N.rows
    p = N.field.p
    typ = _jordan_flat(N.entries, n, p)
    if typ is None:
        raise ValueError("not nilpotent")
    kernels: List[List[List[int]]] = []  # kernels[j] spans ker N^{j+1}
    power = N.entries
    for j in range(typ.parts[0] if typ else 0):
        if j:
            power = _mul_flat(power, N.entries, n, n, n, p)
        rows = [list(power[i * n : (i + 1) * n]) for i in range(n)]
        kernels.append(_null_vectors(rows, _rref(rows, p), n, p))
    chains: List[list] = []  # chain[i] = N^i applied to the top
    for j in range(len(kernels), 0, -1):
        if chains:  # the longer chains, one height down: one product
            k = len(chains)
            out = _mul_flat(N.entries, [chain[-1][i] for i in range(n) for chain in chains], n, n, k, p)
            for t, chain in enumerate(chains):
                chain.append(out[t::k])
        span = (kernels[j - 2] if j >= 2 else []) + [chain[-1] for chain in chains]
        block = span + kernels[j - 1]
        rows = [[v[i] for v in block] for i in range(n)]
        chains.extend([block[c]] for c in _rref(rows, p) if c >= len(span))
    columns: list = []
    for chain in chains:  # built longest first
        columns.extend(reversed(chain))
    return _from_columns(columns, n, N.field), typ


def jordan_basis(N: ExactMatrix) -> ExactMatrix:
    """Invertible g with g^-1 N g = canonical_nilpotent(jordan_type(N)),
    re-checked as rank(g) = n and N g = g canonical_nilpotent."""
    g, typ = _jordan_basis(N)
    if rank(g) != N.rows or mul(N, g) != mul(g, canonical_nilpotent(typ, N.field)):
        raise CertificateError(f"jordan_basis: g is not an invertible Jordan basis of type {typ}")
    return g


def conjugator(N1: ExactMatrix, N2: ExactMatrix) -> ExactMatrix:
    """Invertible g with g N2 g^-1 = N1, for nilpotents of equal Jordan type:
    g = g1 g2^-1 from their Jordan bases, re-checked as rank(g) = n and
    g N2 = N1 g."""
    _require_same_field(N1, N2)
    g1, t1 = _jordan_basis(N1)
    g2, t2 = _jordan_basis(N2)
    if t1 != t2:
        raise ValueError(f"jordan types differ: {t1} vs {t2}")
    g2inv = _inverse_flat(g2.entries, g2.rows, g2.field.p)
    if g2inv is None:
        raise CertificateError("conjugator: the Jordan basis of N2 is singular")
    g = mul(g1, ExactMatrix._reduced(g2.rows, g2.rows, g2inv, g2.field))
    if rank(g) != g.rows or mul(g, N2) != mul(N1, g):
        raise CertificateError("conjugator: g is singular or g N2 differs from N1 g")
    return g


@lru_cache(maxsize=32)
def all_subspaces(n: int, field: FieldSpec) -> tuple:
    """Every subspace of F_p^n, as a matrix whose columns are an RREF basis,
    by dimension, then pivot columns, then free entries in
    itertools.product order.

    Exponential in n and p.  Two exhaustive drivers ask for the same (n, p)
    again and again, so the tuple is cached: the stability check once per
    point, and the pair check of verify once per rank, for the row spaces
    and column spaces of the blocks beside its corner block."""
    p = field.p
    out = []
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_slots = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, n)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(k)]
                for r in range(k):
                    rows[r][pivots[r]] = 1
                for (r, c), v in zip(free_slots, values):
                    rows[r][c] = v
                cols = [0] * (n * k)
                for r in range(k):
                    for c in range(n):
                        cols[c * k + r] = rows[r][c]
                out.append(ExactMatrix(n, k, cols, field))
    return tuple(out)
