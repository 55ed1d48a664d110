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
_echelon, on the size alone: at least 8 rows to combine and
(p - 1)^2 * (rows + 1) + p < 2^64 (_packs; it holds for p = 32003 and
fails for p near 2^31).  Zeros do not count: a matrix more than half zero
packs as a dense one does.

_mul_flat, the one product, has three paths.  When its right factor is a
0/1 partial permutation (_partial_permutation reads it, and _chains too),
the product is a gather of columns of the left factor, at any size and
ahead of the gate: so is h A_i when _moved changes the base of a point
whose forward map A_i is an inclusion.  Otherwise, past the gate for the m
rows of ye, it packs those rows, and each output row is the sum of its
entries of xe times them, at most m (p - 1)^2 per slot, unpacked and
reduced once.  Below the gate the row loop skips zero entries and suits the
tiny dense matrices of the exhaustive drivers.  rank counts the pivots of
the rank echelon, _echelon, of every input: it eliminates only below each
pivot.  Below the gate it copies each row once as a list and updates, in
place, only the columns past each pivot of the rows with a nonzero entry
under it; past the gate it packs rows straight from the entries and
shifts each spent column out.  is_injective reads a 0/1 partial
permutation off its index map, with no elimination: the forward maps of a
glued chain point are such.

_rref is the one Gauss-Jordan, in place: every column but the pivot
columns ends as the RREF's, and each pivot column holds the in-place entry,
which on a nonsingular square block is its inverse, columns in the order
of the row swaps _rref reports.  kernel_basis, the Jordan type and the
kernels of the Jordan basis read its free columns, solve, the unique X
with M X = C, the augmented columns of one _rref of [M | C], and
_inverse_flat its pivot columns, swapped back.  Past the gate for its rows
it packs (_rref_packed) and reads column c once per step (_column); below
it, the list loop skips rows with a zero in the pivot column.  Both give
the same entries.

_jordan_flat, the one Jordan-type routine, reads a 0/1 partial permutation
off its chains and eliminates nothing: each chain is a Jordan block.
_chains reads the index map (_partial_permutation) and walks it with
_index_chains, the one chain reader, which also types the composed index
maps of a glued chain point (quiverrep) without any matrix.  Any other input
runs one elimination per power on its rank factor: with R the RREF of N,
of rank r and pivot columns P, N = N[:, P] R, so N^{j+1} = N[:, P] M^j R
has the rank of M^j for the r x r matrix M = R N[:, P] = N[P, P] +
R' N[free, P], R' the free columns of R; then M takes N's place.  Beside
it, _composite_ranks ranks the first w columns of F_1, F_2 F_1, ..., each
composite formed on the pivot columns of the one before: the backward maps
of a stable point type theta so (quiverrep._certified), and the leading
blocks of a flag-lowering endomorphism type it on each E_{n_i} of its flag
(the image sweep).  Both read the type off the ranks of the powers by one
helper, _rank_type.  _jordan_basis needs nothing more: its type comes from
_jordan_flat, ker N^j from one _rref of N^j formed by _mul_flat, and the
chain tops of each height from one rank echelon.

Kernel results are wrapped by ExactMatrix._reduced, which skips the checks
and the reduction of the public constructor.  Its precondition: exactly
rows * cols Python ints, each already in [0, p).  random_matrix takes its
entries from _draws, randrange(p)'s stream drawn inline, so they meet it
too.
"""

from __future__ import annotations

import itertools
import operator
import sys
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence

from quiverz.partitions import Partition

DEFAULT_PRIME = 32003
_SLOT_LIMIT = 1 << 64
_SLOT_MASK = _SLOT_LIMIT - 1


@lru_cache(maxsize=32)
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
            if cols not in (None, len(rows[0])):  # cols is needed only when there are no rows
                raise ValueError(f"rows of length {len(rows[0])} given with cols={cols}")
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
    """The one gate of the packed loops: at least 8 rows to combine, and
    count + 1 products of residues plus a residue fit in a 64-bit slot."""
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

    When ye is a 0/1 partial permutation (_partial_permutation), the
    product is a gather, at any size: column j is column y(j) of xe, zero
    where y kills e_j, and all zero when m is 0.  Otherwise, past the _packs
    gate for the m rows of ye, each output row is the sum of its entries
    times the packed rows of ye, unpacked once; below it each row
    accumulates only its nonzero entries times the matching rows of ye."""
    ymap = _partial_permutation(ye, m, k)
    if ymap is not None:  # with m = 0 every l is -1, and any n row starts do
        return [xe[i + l] if l >= 0 else 0 for i in (range(0, n * m, m) if m else range(n)) for l in ymap]
    if _packs(m, p):
        packed = [_pack(ye[l * k : (l + 1) * k]) for l in range(m)]
        out = []
        for i in range(n):
            out += [v % p for v in _unpack(sum(map(operator.mul, xe[i * m : (i + 1) * m], packed)), k)]
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


def _rref(rows: List[Sequence[int]], p: int) -> tuple:
    """In-place Gauss-Jordan to reduced row echelon form: the package's one
    Gauss-Jordan.  Returns (pivots, swaps): the pivot columns, and for the
    k-th pivot the row swapped into row k.  The entries must be in [0, p).
    No row given is written to: a step that changes a row puts a new list
    in its place.

    A column is a pivot exactly when it is not in the span of the columns
    before it.  Every other column ends as the RREF's.  A pivot column ends
    as the in-place entry instead: step c scales the pivot row by inv = 1 /
    pivot with inv in the pivot slot, and every other row takes f times the
    elimination row, the pivot row with inv + 1 in the pivot slot, where f
    is its entry in column c, so that slot ends at f - f (inv + 1) = -f inv.
    On a nonsingular square block that is its inverse, columns in swap
    order (_inverse_flat).  Past the _packs gate for its rows the rows are
    eliminated packed (_rref_packed), where a row step adds at most
    (p - 1) p to a slot at the in-place step and (p - 1)^2 at every other,
    so _packs for the rows keeps every slot below 2^64; below it in lists,
    skipping rows with a zero in the pivot column.  A rank needs only the
    pivots: _echelon."""
    nrows = len(rows)
    width = len(rows[0]) if nrows else 0
    if _packs(nrows, p):
        return _rref_packed(rows, p)
    pivots: List[int] = []
    swaps: List[int] = []
    r = 0
    for c in range(width):
        for pivot in range(r, nrows):
            if rows[pivot][c]:
                break
        else:
            continue
        rr = rows[pivot]
        rows[pivot] = rows[r]
        inv = pow(rr[c], -1, p)
        rows[r] = rr = [v * inv % p for v in rr]
        rr[c] = inv + 1  # the elimination row
        for i, ri in enumerate(rows):
            f = ri[c]
            if f and i != r:
                rows[i] = [(x - f * y) % p for x, y in zip(ri, rr)]
        rr[c] = inv
        pivots.append(c)
        swaps.append(pivot)
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def _column(packed: Sequence[int], c: int, p: int) -> List[int]:
    """Slot c of each packed row, mod p."""
    shift = 64 * c
    return [(x >> shift & _SLOT_MASK) % p for x in packed]


def _rref_packed(rows: List[Sequence[int]], p: int) -> tuple:
    """_rref on packed rows, for inputs that pass the _packs gate; column c
    is read once per step (_column).

    Rows are reduced when they become the pivot row and once at the end,
    when the lists are written back; between, row i += (p - f) *
    elimination row only adds, within the slot bound of _rref."""
    nrows = len(rows)
    width = len(rows[0])
    packed = [_pack(row) for row in rows]
    pivots: List[int] = []
    swaps: List[int] = []
    r = 0
    for c in range(width):
        col = _column(packed, c, p)
        pivot = r if col[r] else next((i for i in range(r + 1, nrows) if col[i]), None)
        if pivot is None:
            continue
        inv = pow(col[pivot], -1, p)
        row = [v * inv % p for v in _unpack(packed[pivot], width)]
        row[c] = inv
        packed[pivot], col[pivot] = packed[r], col[r]
        packed[r] = _pack(row)
        elim = packed[r] + (1 << 64 * c)
        for i, f in enumerate(col):
            if f and i != r:
                packed[i] += (p - f) * elim
        pivots.append(c)
        swaps.append(pivot)
        r += 1
        if r == nrows:
            break
    rows[:] = [[v % p for v in _unpack(x, width)] for x in packed]
    return pivots, swaps


def _echelon(entries: Sequence[int], nrows: int, ncols: int, p: int) -> List[int]:
    """Pivot columns of the flat nrows x ncols matrix, entries in [0, p): the
    one rank echelon.  Each pivot row, the first row left with a nonzero h
    in its column, is removed and f / h times it taken off each row left
    with f there.  Below the _packs gate each row is copied once as a list
    and changed in place: the pivot search stops at that first row, only
    the columns past the pivot are updated, in the rows with an f, and the
    loop stops when no row is left.  Past the gate, rows are packed from
    the entries and shed each spent column: a column is slot 0 masked, a
    row step (x >> 64) + (p - f) * tail, at most (p - 1)^2 per slot and
    pivot."""
    pivots: List[int] = []
    if not _packs(nrows, p):
        rows = [list(entries[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
        for c in range(ncols):
            for pivot, row in enumerate(rows):
                if row[c]:
                    break
            else:
                continue
            del rows[pivot]
            pivots.append(c)
            if not rows:
                break
            inv = pow(row[c], -1, p)
            rest = range(c + 1, ncols)
            for r in rows:
                if r[c]:
                    g = r[c] * inv % p
                    for k in rest:
                        r[k] = (r[k] - g * row[k]) % p
        return pivots
    rows = [_pack(entries[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
    for c in range(ncols):
        col = [(x & _SLOT_MASK) % p for x in rows]
        head = next(filter(None, col), 0)
        if head:
            pivot = col.index(head)
            del col[pivot]
            inv = pow(head, -1, p)  # tail: the pivot row past its pivot, times 1 / head
            tail = _pack([v * inv % p for v in _unpack(rows.pop(pivot) >> 64, ncols - c - 1)])
            rows = [(x >> 64) + (p - f) * tail if f else x >> 64 for x, f in zip(rows, col)]
            pivots.append(c)
        else:
            rows = [x >> 64 for x in rows]
    return pivots


def rank(M: ExactMatrix) -> int:
    """The rank: the pivot count of the rank echelon (_echelon)."""
    return len(_echelon(M.entries, M.rows, M.cols, M.field.p))


def is_injective(M: ExactMatrix) -> bool:
    """rank(M) == M.cols: a 0/1 partial permutation (_partial_permutation)
    is injective exactly when it kills no unit vector, and any other matrix
    is ranked by the rank echelon."""
    image = _partial_permutation(M.entries, M.rows, M.cols)
    if image is not None:
        return -1 not in image
    return rank(M) == M.cols


def _composite_ranks(
    factors: Sequence[Sequence[int]], dims: Sequence[int], p: int, widths: Sequence[int]
) -> List[List[int]]:
    """For each w in widths, the ranks of the first w columns of F_1,
    F_2 F_1, ... for the flat F_j of shape dims[j] x dims[j - 1]: one rank
    echelon (_echelon) per composite.  Q = Q[:, P] R for P the pivot
    columns of Q and R its RREF, of full row rank, whose first w columns
    vanish below its first bisect_left(P, w) rows: so the first w columns
    of F Q have the rank of the first that many of F Q[:, P], the next
    composite formed."""
    ranks: List[List[int]] = [[] for _ in widths]
    ws, cur, width = widths, (), dims[0]
    for j, factor in enumerate(factors):
        m = dims[j + 1]
        cur = _mul_flat(factor, cur, m, dims[j], width, p) if j else factor
        pivots = _echelon(cur, m, width, p)
        ws = [bisect_left(pivots, w) for w in ws]
        for out, w in zip(ranks, ws):
            out.append(w)
        cur, width = [cur[i * width + c] for i in range(m) for c in pivots], len(pivots)
    return ranks


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
    pivots, _ = _rref(R, M.field.p)
    return _from_columns(_null_vectors(R, pivots, M.cols, M.field.p), M.cols, M.field)


def _inverse_flat(entries: Sequence[int], n: int, p: int) -> Optional[List[int]]:
    """Flat entries of the inverse of the flat n x n matrix, entries in
    [0, p), or None if it is singular: one in-place _rref of the n-wide
    rows, which finds M singular when it has fewer than n pivots and
    otherwise leaves the inverse of the row-swapped M in place, packed past
    _rref's gate for the n rows (inside it a slot takes at most (p - 1) p
    at the in-place step and (p - 1)^2 at every other).  The row swaps come
    back as column swaps, the last first."""
    rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    pivots, swaps = _rref(rows, p)
    if len(pivots) < n:
        return None
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

    Raises ValueError("no solution") on an inconsistent system, where a
    pivot lies past M's columns, and ValueError("not unique") when M has a
    kernel, fewer than n pivots."""
    _require_same_field(M, C)
    if M.rows != C.rows:
        raise ValueError(f"shape mismatch: solving {M.shape} * X = {C.shape}")
    n = M.cols
    aug = [list(M.row(i)) + list(C.row(i)) for i in range(M.rows)]
    pivots, _ = _rref(aug, M.field.p)
    if pivots and pivots[-1] >= n:
        raise ValueError("no solution")
    if len(pivots) < n:
        raise ValueError("not unique")
    return ExactMatrix._reduced(n, C.cols, [v for row in aug[:n] for v in row[n:]], M.field)


def _draws(rng, n: int, count: int) -> List[int]:
    """[rng.randrange(n) for _ in range(count)], leaving rng in the same
    state: randrange's own loop, which keeps getrandbits(k) for
    k = n.bit_length() once it falls below n, run inline without the
    argument checks and the three calls per draw of randrange."""
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        v = bits(k)
        while v >= n:
            v = bits(k)
        out.append(v)
    return out


def random_matrix(rows: int, cols: int, field: FieldSpec, rng) -> ExactMatrix:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative shape ({rows}, {cols})")
    return ExactMatrix._reduced(rows, cols, _draws(rng, field.p, rows * cols), field)


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


def _index_matrix(image: Sequence[int], rows: int, field: FieldSpec) -> ExactMatrix:
    """The 0/1 matrix with rows rows whose column c is e_{image[c]}, zero
    where image[c] is -1: the matrix _partial_permutation reads as image."""
    cols = len(image)
    entries = [0] * (rows * cols)
    for c, r in enumerate(image):
        if r >= 0:
            entries[r * cols + c] = 1
    return ExactMatrix._reduced(rows, cols, entries, field)


def _index_chains(below: Sequence[int]) -> List[List[int]]:
    """The chains of the 0/1 partial permutation of size len(below) whose
    index map (_partial_permutation) is below: the one chain reader.

    A chain starts at an index that no column maps onto and follows the map
    down to the index it kills, so it lists unit vectors top to bottom; the
    chains come by increasing top index.  They cover all indices exactly
    when the map is nilpotent: the other indices lie on cycles."""
    targets = set(below)
    chains = []
    for top in range(len(below)):
        if top not in targets:
            chain = [top]
            while below[chain[-1]] >= 0:
                chain.append(below[chain[-1]])
            chains.append(chain)
    return chains


def _chains(entries: Sequence[int], n: int) -> Optional[List[List[int]]]:
    """The chains (_index_chains) of the flat n x n matrix N when N is a 0/1
    partial permutation (_partial_permutation), else None."""
    below = _partial_permutation(entries, n, n)
    return None if below is None else _index_chains(below)


def _rank_type(ranks: Sequence[int]) -> Partition:
    """The Jordan type of the nilpotent whose j-th power has rank ranks[j],
    ranks[0] its size and every power past the list of rank 0: the one
    rank-to-type reader.  r_{j-1} - 2 r_j + r_{j+1} blocks of size j, the
    largest size first."""
    r = [*ranks, 0, 0]
    parts: List[int] = []
    for j in range(len(r) - 2, 0, -1):
        parts += [j] * (r[j - 1] - 2 * r[j] + r[j + 1])
    return Partition._sorted(tuple(parts))


def _jordan_flat(entries: Sequence[int], n: int, p: int) -> Optional[Partition]:
    """Jordan type of the flat n x n matrix N, or None if N is not nilpotent.

    A 0/1 partial permutation N is read off its chains: their lengths are
    the type, and an index left on a cycle means N is not nilpotent.
    Otherwise each power costs one elimination of an ever smaller matrix:
    with R the RREF of N, rank r and pivot columns P, rank(N^{j+1}) is the
    rank of M^j for the r x r rank factor M = R N[:, P], which is N[P, P]
    plus the free columns of R times N[free, P]; then M takes N's place.
    The ranks reach 0 exactly when N is nilpotent; a rank that stalls above
    0 means it is not.  The ranks of the powers give the type
    (_rank_type)."""
    chains = _chains(entries, n)
    if chains is not None:
        if sum(map(len, chains)) != n:
            return None
        return Partition._sorted(tuple(sorted(map(len, chains), reverse=True)))
    ranks = [n]
    m, cur = n, entries
    while m:
        rows = [list(cur[i * m : (i + 1) * m]) for i in range(m)]
        pivots, _ = _rref(rows, p)
        r = len(pivots)
        if r == m:
            return None
        ranks.append(r)
        if r:  # the next matrix: R N[:, P] = N[P, P] + R' N[free, P]
            pivot_set = set(pivots)
            free = [c for c in range(m) if c not in pivot_set]
            head = [cur[c * m + d] for c in pivots for d in pivots]
            r_free = [row[c] for row in rows[:r] for c in free]
            tail = _mul_flat(r_free, [cur[f * m + c] for f in free for c in pivots], r, m - r, r, p)
            cur = [(x + y) % p for x, y in zip(head, tail)]
        m = r
    return _rank_type(ranks)


def jordan_type(N: ExactMatrix) -> Partition:
    """Jordan type of a nilpotent matrix, from the ranks of its powers."""
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
    block of one rank echelon (_echelon) of [ker N^{j-1} | longer chains at
    height j | ker N^j] with the vectors as columns: each vector of ker N^j,
    in order, outside the span of those before it.  Unchecked: the public
    callers re-check what they return."""
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
        kernels.append(_null_vectors(rows, _rref(rows, p)[0], n, p))
    chains: List[list] = []  # chain[i] = N^i applied to the top
    for j in range(len(kernels), 0, -1):
        if chains:  # the longer chains, one height down: one product
            k = len(chains)
            out = _mul_flat(N.entries, [chain[-1][i] for i in range(n) for chain in chains], n, n, k, p)
            for t, chain in enumerate(chains):
                chain.append(out[t::k])
        span = (kernels[j - 2] if j >= 2 else []) + [chain[-1] for chain in chains]
        block = span + kernels[j - 1]
        flat = [v[i] for i in range(n) for v in block]
        chains.extend([block[c]] for c in _echelon(flat, n, len(block), p) if c >= len(span))
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
