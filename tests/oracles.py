"""Slow oracles for the fast paths of quiverz.

The exhaustive drivers in quiverz.verify visit one rank-normal-form
representative per base-change stratum; the brute-force loops here visit
every pair and every matrix tuple, as the drivers once did, so the tests can
compare the two at the smallest sizes.  One more loop keeps the normal forms
but runs B over every matrix; pair_types_by_normal_form keeps them and fixes
B's block outside BA and AB to 0 but types every value of the rest of B,
where _pair_types takes one canonical nilpotent corner block per class and
types the blocks beside it once per row or column space; and
z_points_by_filter keeps them
but filters every completion by the relations, where the stability
enumeration now solves its last relation in closed form and yields one
point per fibre; stability_by_point evaluates both stability criteria on
every point of that filter, where stability_report evaluates them once per
fibre of points that differ in B_{t-1} alone.  mul_by_rows is the product
loop that exactmat._mul_flat keeps for sparse and small operands, and
rref_by_rows the plain RREF that exactmat._rref runs in place, leaving the
in-place entry in each pivot column; the oracles that eliminate run on it,
never on an elimination of exactmat.  inverse_by_augmenting is the
elimination of [M | I] that exactmat._inverse_flat replaced with one
in-place _rref of M, jordan_type_by_power_ranks the Jordan type from
the ranks of every power, which exactmat._jordan_flat reads off chains or
eliminations of ever smaller rank factors, jordan_flat_by_rowspace its
power loop as it was, on ever fewer n-wide rows (times_rowspace), with the
prefix types that the image sweep now reads off the backward composites of
a flag sample (quiverrep._backward_types), and nilpotency_by_powers the
power loop
that quiverrep.nilpotency_degrees replaced.  solutions_by_search lists
every X with M X = C, which exactmat.solve finds by one elimination when it
is unique.  build_from_chain_by_conjugators
is the interface loop that quiverrep.build_from_chain replaced with
permutations read off the chains (build_from_chain_by_chain_order, with
_chain_order), and that loop the one it replaced with letters numbered
across each interface.  build_from_chain_dense is that numbering as it was
before the glue gave index maps: it fills each pair as dense 0/1 lists and
re-checks the point by products and Jordan types, where build_from_chain
re-checks the maps by composing them and reading their chains.
glued_maps_two_pass is the glue of index maps as it was before the walk
glued each chain as it placed it (quiverrep._walk_chain): it numbers the
letters of every diagram first, each row letter by letter, with the a-rows
sorted longest first (numbered_pair_two_pass), then re-checks the whole
chain in a second pass (map_recheck_two_pass).
flag_sample_by_point is the check theta-image made of a stable sample on
its coordinate-flag point, which it then made on the endomorphism alone.
_lowering_endo, _flag_endo and _flag_blocks are that draw and check as
they were, moved here unchanged: a whole n_t x n_t endomorphism, re-checked
column by column, its leading blocks copied row by row, where
quiverrep._flag_blocks draws only its first n_{t-1} rows, re-checks them
row by row and cuts the blocks from them.
theta_image_max_by_strata is M(d) by brute force over every stratum
vector d', where partitions.theta_image_max takes the greatest one.

The helpers at the end were public names of the package that only tests
called: mat_pow, is_nilpotent, random_invertible and transpose (once in
quiverz.exactmat), zero_rep, random_group_element and sample_flag_point
(quiverrep), max_b_part (abdiagrams) and partitions_up_to_weight
(partitions).  They draw from the rng exactly as they did there.
"""

import itertools
import math
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from quiverz.abdiagrams import ABDiagram, build_pair, enumerate_b_parts
from quiverz.exactmat import (
    _SLOT_LIMIT,
    CertificateError,
    ExactMatrix,
    FieldSpec,
    _chains,
    _draws,
    _index_chains,
    _is_prime,
    _jordan_basis,
    _jordan_flat,
    _mul_flat,
    _packs,
    _partial_permutation,
    _random_invertible_pair,
    identity,
    inverse,
    mul,
    rank,
    zeros,
)
from quiverz.partitions import (
    Partition,
    add,
    as_dim_vector,
    dominates,
    dual,
    is_strictly_monotone,
    mu_of,
    partitions_of_weight,
)
from quiverz.quiverrep import (
    FlagPoint,
    QuiverRep,
    _interface_types,
    _is_index_map,
    _point_products,
    _rep_products,
    _subspace_criterion,
    is_stable,
)
from quiverz.verify import (
    DEFAULT_BUDGET,
    VerifyReport,
    _budgeted,
    _rank_count,
    _rank_normal_form,
)


def mul_by_rows(xe, ye, n: int, m: int, k: int, p: int) -> list:
    """Row-major entries of the n x k product of the flat n x m matrix xe and
    the flat m x k matrix ye, reduced mod p: each row accumulates its nonzero
    entries times the matching rows of ye."""
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


def rref_by_rows(rows: list, p: int, pivot_cols=None) -> list:
    """In-place reduced row echelon form on lists of ints, one list
    comprehension per row operation; returns the pivot column list.  Rows
    that no operation touches keep their entries unreduced."""
    nrows = len(rows)
    width = len(rows[0]) if nrows else 0
    if pivot_cols is None:
        pivot_cols = width
    pivots = []
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


def theta_image_max_by_strata(d: Sequence[int]) -> Partition:
    """The largest mu_of(d') over every d' <= d entrywise with the same last
    entry and weakly increasing differences (n'_0 = 0, so zeros only in
    front), leading zeros dropped: each d' is built entry by entry, entry
    i + 1 at least 2 n'_i - n'_{i-1}.  Raises CertificateError when no
    type found dominates all the others."""
    t = len(d)
    found = set()

    def extend(prefix):
        i = len(prefix) - 1  # entries n'_1..n'_i chosen
        if i == t:
            found.add(mu_of([v for v in prefix[1:] if v]))
            return
        lo = max(0, 2 * prefix[-1] - prefix[-2]) if i else 0
        for v in (d[-1],) if i == t - 1 else range(lo, d[i] + 1):
            if v >= lo:
                extend(prefix + [v])

    extend([0])
    top = [eta for eta in found if all(dominates(eta, nu) for nu in found)]
    if len(top) != 1:
        types = sorted(eta.parts for eta in found)
        raise CertificateError(f"theta_image_max_by_strata: no largest type for {tuple(d)}: {types}")
    return top[0]


def slot_edge_prime(rows: int) -> int:
    """The largest prime that passes the _packs gate for this many rows."""
    p = math.isqrt((_SLOT_LIMIT - 1) // (rows + 1)) + 2
    while not (_packs(rows, p) and _is_prime(p)):
        p -= 1
    return p


def inverse_by_augmenting(entries, n: int, p: int):
    """Flat entries of the inverse of the flat n x n matrix, or None if it is
    singular: one RREF of [M | I] both tests M and inverts it."""
    aug = [list(entries[i * n : (i + 1) * n]) + [int(j == i) for j in range(n)] for i in range(n)]
    if len(rref_by_rows(aug, p, pivot_cols=n)) != n:
        return None
    return [v for row in aug for v in row[n:]]


def leading_blocks(entries: Sequence[int], dims: Sequence[int]) -> List[list]:
    """The flat blocks N[:n_i, :n_{i+1}], i < t, of the flat n_t x n_t
    matrix N, entry by entry: the backward maps of its coordinate-flag
    point, which quiverrep._flag_blocks slices row by row."""
    n = dims[-1]
    return [[entries[r * n + c] for r in range(lo) for c in range(hi)] for lo, hi in zip(dims, dims[1:])]


def flag_conjugate(entries: Sequence[int], dims: Sequence[int], field: FieldSpec, rng) -> list:
    """Flat entries of g N g^-1 for the flat n_t x n_t matrix N and g block
    upper triangular along dims, its diagonal blocks invertible
    (_random_invertible_pair) and the blocks above them uniform.  g keeps
    each E_{n_i}, the span of the first n_i coordinates, so g N g^-1 keeps
    or lowers the coordinate flag of dims when N does."""
    n = dims[-1]
    g = [0] * (n * n)
    lo = 0
    for hi in dims:
        block, _ = _random_invertible_pair(hi - lo, field, rng)
        for r in range(lo, hi):
            g[r * n + lo : r * n + hi] = block.entries[(r - lo) * (hi - lo) : (r - lo + 1) * (hi - lo)]
            g[r * n + hi : r * n + n] = [rng.randrange(field.p) for _ in range(n - hi)]
        lo = hi
    g = ExactMatrix(n, n, g, field)
    return list(mul(mul(g, ExactMatrix(n, n, entries, field)), inverse(g)).entries)


def jordan_type_by_power_ranks(m: ExactMatrix) -> tuple:
    """(nilpotent, Jordan type or None) of the square matrix m from the ranks
    of m^0, ..., m^n, each power one product from the one before."""
    n = m.rows
    powers = [mat_pow(m, 0)]
    for _ in range(n):
        powers.append(mul(powers[-1], m))
    ranks = [rank(x) for x in powers]
    nilpotent = powers[n].is_zero()
    increments = [ranks[k - 1] - ranks[k] for k in range(1, n + 1) if ranks[k - 1] > ranks[k]]
    return nilpotent, dual(Partition(increments)) if nilpotent else None


def times_rowspace(rows: List[List[int]], pivots: List[int], entries: Sequence[int], n: int, p: int) -> List[int]:
    """Flat entries of R N, for R the first len(pivots) rows of an RREF of
    width n with these pivot columns and N the flat n x n matrix.

    Up to column order R is [I | R'].  When R is more than half zero and R'
    passes the _packs gate for its n - r columns, R N is N at the pivot
    rows plus R' times N at the free rows: one packed product over the free
    columns.  Otherwise, as for every n <= 8, the full product."""
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


def jordan_flat_by_rowspace(entries: Sequence[int], n: int, p: int, prefixes: Optional[Sequence[int]] = None):
    """exactmat._jordan_flat as an RREF basis of rowspace(N^j) times N, by
    times_rowspace, spanning rowspace(N^{j+1}): one elimination of ever
    fewer n-wide rows per power, with the prefix types counted as pivots
    below k of the RREF of each power, and no chain reading.  _jordan_flat
    now eliminates the r x r rank factor R N[:, P] instead, and the prefix
    types of a flag-lowering N come from its leading blocks
    (quiverrep._backward_types)."""
    ks = (n,) if prefixes is None else tuple(prefixes)
    if prefixes is not None:
        for k in ks:
            if not 0 <= k <= n or any(any(entries[r * n : r * n + k]) for r in range(k, n)):
                raise ValueError(f"N does not keep the span of the first {k} of {n} coordinates")
    powers = []  # the pivot columns of the RREF of each power N^j
    prev = n
    rows = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
    while prev:
        pivots = rref_by_rows(rows, p)
        r = len(pivots)
        if r == prev:
            return None
        powers.append(pivots)
        prev = r
        if r:
            out = times_rowspace(rows, pivots, entries, n, p)
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


def nilpotency_by_powers(z) -> bool:
    """(A_i B_i)^{i+1} = 0 for every i, each power taken; no input check."""
    return all(mat_pow(mul(z.A[i - 1], z.B[i - 1]), i + 1).is_zero() for i in range(1, z.t))


def solutions_by_search(M: ExactMatrix, C: ExactMatrix) -> List[ExactMatrix]:
    """Every X with M X = C, over every matrix of X's shape in
    itertools.product order: p^(cols(M) cols(C)) candidates."""
    rows, cols = M.cols, C.cols
    candidates = (ExactMatrix(rows, cols, e, M.field) for e in itertools.product(range(M.field.p), repeat=rows * cols))
    return [X for X in candidates if mul(M, X) == C]


def build_from_chain_by_conjugators(deltas, field) -> QuiverRep:
    """The diagram pairs of a compatible chain glued by conjugators: each
    later pair (A', B') becomes (A' g^-1, g B') for g = g1 g2^-1, g1 and g2
    the Jordan bases of A_{i-1} B_{i-1} and B' A', and g^-1 = g2 g1^-1.  No
    input check and no re-check."""
    pairs = [build_pair(d, field) for d in deltas]
    A = [pairs[0][0]]
    B = [pairs[0][1]]
    for Ai, Bi in pairs[1:]:
        g1, _ = _jordan_basis(mul(A[-1], B[-1]))
        g2, _ = _jordan_basis(mul(Bi, Ai))
        A.append(mul(Ai, mul(g2, inverse(g1))))
        B.append(mul(mul(g1, inverse(g2)), Bi))
    dims = (deltas[0].total_a,) + tuple(d.total_b for d in deltas)
    return QuiverRep(dims, A, B, field)


def _chain_order(entries: Sequence[int], n: int) -> Optional[List[int]]:
    """The column order of the Jordan basis _jordan_basis picks for the flat
    n x n matrix N when N is a nilpotent 0/1 partial permutation, else None.

    The Jordan chains of such an N are the unit vectors of its chains
    (_chains), and the greedy choice of _jordan_basis, run on unit vectors,
    takes them longest first, equal lengths by increasing top index, each
    written bottom to top."""
    chains = _chains(entries, n)
    if chains is None or sum(map(len, chains)) != n:  # not nilpotent
        return None
    chains.sort(key=len, reverse=True)  # stable, so equal lengths keep top order
    return [c for chain in chains for c in reversed(chain)]


def build_from_chain_by_chain_order(deltas, field) -> QuiverRep:
    """The diagram pairs of a compatible chain glued by permutations: column
    o1[k] of A_i is column o2[k] of A'_i, and row o1[k] of B_i is row o2[k]
    of B'_i, for o1 and o2 the _chain_order of A'_{i-1} B'_{i-1} and of
    B'_i A'_i.  No input check and no re-check."""
    dims = (deltas[0].total_a,) + tuple(d.total_b for d in deltas)
    p = field.p
    pairs = [build_pair(d, field) for d in deltas]
    A = [pairs[0][0]]
    B = [pairs[0][1]]
    for i in range(1, len(deltas)):
        (A0, B0), (A1, B1) = pairs[i - 1], pairs[i]
        lo, hi = A1.cols, A1.rows
        o1 = _chain_order(_mul_flat(A0.entries, B0.entries, A0.rows, A0.cols, A0.rows, p), A0.rows)
        o2 = _chain_order(_mul_flat(B1.entries, A1.entries, lo, hi, lo, p), lo)
        if o1 is None or o2 is None or len(o1) != len(o2):
            raise CertificateError(
                f"build_from_chain: interface {i} of {dims} is not glued by a permutation"
            )
        src = [0] * lo  # column src[c] of A'_i is column c of A_i, likewise rows of B
        for c1, c2 in zip(o1, o2):
            src[c1] = c2
        ae, be = A1.entries, B1.entries
        A.append(ExactMatrix._reduced(hi, lo, [ae[r * lo + c] for r in range(hi) for c in src], field))
        B.append(ExactMatrix._reduced(lo, hi, [v for c in src for v in be[c * hi : (c + 1) * hi]], field))
    return QuiverRep(dims, A, B, field)


def numbered_pair_two_pass(delta: ABDiagram, b_before: Optional[Sequence[range]] = None) -> tuple:
    """(A, B, the b-letter numbers of each row) for delta's letters numbered
    as build_pair numbers them, but with b_before, the b-letter numbers of
    the diagram glued before it, its a-letters numbered by the matching.
    A and B are index maps (_partial_permutation): A[a] is the number of the
    b-letter after a-letter a in its row, B[b] that of the a-letter after
    b-letter b, and -1 at the end of a row.

    The matching pairs the k-th longest row of b_before with the k-th
    longest row of a-letters of delta, equal lengths in row order, and each
    a-letter takes the number of the b-letter at its place in the matched
    row.  The letters of one kind in a row are a chain of the composition
    on that kind, so B A of the renumbered pair moves the b-letter numbers
    as A B of the diagram before does; the rows are taken in the order a
    Jordan basis takes chains.  b_before must have delta's a-part as its row
    lengths."""
    a_rows: List[range] = []
    b_rows: List[range] = []
    ai = bi = 0
    for row in delta.rows:
        a_rows.append(range(ai, ai + row.a_count))
        b_rows.append(range(bi, bi + row.b_count))
        ai += row.a_count
        bi += row.b_count
    if b_before is not None:
        for ra, rb in zip(longest_first(a_rows), longest_first(b_before)):
            a_rows[ra] = b_before[rb]
    a_map = [-1] * ai
    b_map = [-1] * bi
    for row, a_idx, b_idx in zip(delta.rows, a_rows, b_rows):
        # Each letter maps to the next one in its row: after a leading b,
        # b-letter j to a-letter j and a-letter j to b-letter j + 1; else
        # a-letter j to b-letter j and b-letter j to a-letter j + 1.
        if row.leading_b:
            for j, a in enumerate(a_idx):
                b_map[b_idx[j]] = a
                if j + 1 < len(b_idx):
                    a_map[a] = b_idx[j + 1]
        else:
            for j, b in enumerate(b_idx):
                a_map[a_idx[j]] = b
                if j + 1 < len(a_idx):
                    b_map[b] = a_idx[j + 1]
    return a_map, b_map, b_rows


def longest_first(rows: Sequence[range]) -> List[int]:
    """The indices of the nonempty rows, longest first, equal lengths in
    row order."""
    return sorted((r for r in range(len(rows)) if rows[r]), key=lambda r: -len(rows[r]))


def glued_maps_two_pass(deltas: Sequence[ABDiagram]) -> Tuple[tuple, List[List[int]], List[List[int]]]:
    """(dims, A, B) for the point build_from_chain glues from deltas, A and
    B the lists of its forward and backward maps as index maps, re-checked
    by _map_recheck; ValueError on a chain that does not glue."""
    deltas = list(deltas)
    if not deltas:
        raise ValueError("chain must contain at least one diagram")
    first_a = deltas[0].a_part
    if any(p != 1 for p in first_a.parts):
        raise ValueError(
            f"first diagram must have all-ones a-part, got {first_a.to_list()}"
        )
    for i in range(len(deltas) - 1):
        if deltas[i + 1].a_part != deltas[i].b_part:
            raise ValueError(
                f"chain mismatch at interface {i + 1}: b-part {deltas[i].b_part.to_list()} "
                f"vs a-part {deltas[i + 1].a_part.to_list()}"
            )
    dims = as_dim_vector([deltas[0].total_a] + [delta.total_b for delta in deltas])
    A = []
    B = []
    b_rows = None
    for delta in deltas:
        a_map, b_map, b_rows = numbered_pair_two_pass(delta, b_rows)
        A.append(a_map)
        B.append(b_map)
    map_recheck_two_pass(deltas, A, B)
    return dims, A, B


def map_recheck_two_pass(deltas: Sequence[ABDiagram], A: Sequence[List[int]], B: Sequence[List[int]]) -> List[Partition]:
    """The types of A_i B_i, theta last, of the point whose maps are the
    index maps A_i and B_i (_partial_permutation) glued from deltas, else
    CertificateError: the one re-check of a glued point.

    Each map must be a partial permutation between the letters of its
    shape.  Composed, B_1 A_1 must vanish and B_i A_i must be A_{i-1}
    B_{i-1}; the composition of such maps is their matrix product.  The
    type of each A_i B_i is read off its chains (_index_chains) and must be
    the b-part of diagram i."""
    dims = [deltas[0].total_a] + [delta.total_b for delta in deltas]
    types: List[Partition] = []
    ab = [-1] * dims[0]  # A_0 B_0 = 0
    if len(A) == len(B) == len(deltas):
        for i, delta in enumerate(deltas):
            a, b = A[i], B[i]
            if not (_is_index_map(a, dims[i], dims[i + 1]) and _is_index_map(b, dims[i + 1], dims[i])):
                break
            if [b[x] if x >= 0 else -1 for x in a] != ab:
                break
            ab = [a[y] if y >= 0 else -1 for y in b]
            if tuple(sorted(map(len, _index_chains(ab)), reverse=True)) != delta.b_part.parts:
                break
            types.append(delta.b_part)
    if len(types) != len(deltas):
        raise CertificateError(f"build_from_chain: the point glued for {tuple(dims)} fails its re-check")
    return types


def numbered_pair_dense(delta, field, b_before=None) -> tuple:
    """(A, B, the b-letter numbers of each row) as abdiagrams._numbered_pair
    gave them before it returned index maps: A and B filled as dense 0/1
    lists, each a-letter numbered by the b-letter at its place in the
    matched row of b_before."""
    a_rows: List[range] = []
    b_rows: List[range] = []
    ai = bi = 0
    for row in delta.rows:
        a_rows.append(range(ai, ai + row.a_count))
        b_rows.append(range(bi, bi + row.b_count))
        ai += row.a_count
        bi += row.b_count
    if b_before is not None:
        for ra, rb in zip(longest_first(a_rows), longest_first(b_before)):
            a_rows[ra] = b_before[rb]
    n, nb = ai, bi
    a_entries = [0] * (nb * n)
    b_entries = [0] * (n * nb)
    for row, a_idx, b_idx in zip(delta.rows, a_rows, b_rows):
        lead = int(row.leading_b)  # a-letter j is followed by b-letter j + lead
        for a, b in zip(a_idx, b_idx[lead:]):
            a_entries[b * n + a] = 1
        for b, a in zip(b_idx, a_idx[1 - lead :]):
            b_entries[a * nb + b] = 1
    return ExactMatrix._reduced(nb, n, a_entries, field), ExactMatrix._reduced(n, nb, b_entries, field), b_rows


def build_from_chain_dense(deltas, field) -> QuiverRep:
    """The point build_from_chain glued before it glued index maps: the
    dense pairs of numbered_pair_dense, re-checked as a point by one
    relations pass and the Jordan type of every A_i B_i (_interface_types),
    which must be the b-parts of the chain."""
    deltas = list(deltas)
    if not deltas:
        raise ValueError("chain must contain at least one diagram")
    first_a = deltas[0].a_part
    if any(p != 1 for p in first_a.parts):
        raise ValueError(
            f"first diagram must have all-ones a-part, got {first_a.to_list()}"
        )
    dims = [deltas[0].total_a]
    for delta in deltas:
        dims.append(delta.total_b)
    for i in range(len(deltas) - 1):
        if deltas[i + 1].a_part != deltas[i].b_part:
            raise ValueError(
                f"chain mismatch at interface {i + 1}: b-part {deltas[i].b_part.to_list()} "
                f"vs a-part {deltas[i + 1].a_part.to_list()}"
            )
    A = []
    B = []
    b_rows = None
    for delta in deltas:
        Ai, Bi, b_rows = numbered_pair_dense(delta, field, b_rows)
        A.append(Ai)
        B.append(Bi)
    z = QuiverRep(tuple(dims), A, B, field)
    if _interface_types(z) != [delta.b_part for delta in deltas]:
        raise CertificateError(f"build_from_chain: the point glued for {dims} fails its re-check")
    return z


def _lowering_endo(dims: Sequence[int], field: FieldSpec, rng) -> ExactMatrix:
    """Random endomorphism of the last space mapping the span of the first
    n_i coordinates into the span of the first n_{i-1} (n_0 = 0)."""
    nt = dims[-1]
    entries = [0] * (nt * nt)
    bound = {}
    lower = 0
    for n in dims:
        for c in range(lower, n):
            bound[c] = lower
        lower = n
    values = iter(_draws(rng, field.p, sum(bound.values())))
    for c in range(nt):
        for r in range(bound[c]):
            entries[r * nt + c] = next(values)
    return ExactMatrix._reduced(nt, nt, entries, field)


def _flag_endo(dims: Sequence[int], field: FieldSpec, rng) -> tuple:
    """The flat entries of a drawn _lowering_endo, re-checked to lower the
    coordinate flag: column c of block j (n_{j-1} <= c < n_j) vanishes from
    row n_{j-1} down, else CertificateError.  On the coordinate-flag point
    (_flag_point) every A_i is an inclusion, so this is exactly B_1 A_1 = 0,
    B_i A_i = A_{i-1} B_{i-1} and theta = endo."""
    dims = as_dim_vector(dims)
    if not is_strictly_monotone(dims):
        raise ValueError(f"stable sampling needs a strictly increasing dimension vector: {dims}")
    nt = dims[-1]
    endo = _lowering_endo(dims, field, rng).entries
    if any(any(endo[low * nt + c :: nt]) for low, n in zip((0,) + dims, dims) for c in range(low, n)):
        raise CertificateError(f"sample_stable: the endomorphism drawn for {dims} does not lower the flag")
    return endo


def _flag_blocks(dims: Sequence[int], field: FieldSpec, rng) -> List[list]:
    """The flat leading blocks B_i = endo[:n_i, :n_{i+1}], i < t, of
    _flag_endo's endomorphism: the backward maps of its coordinate-flag
    point."""
    endo = _flag_endo(dims, field, rng)  # checks dims
    nt = dims[-1]
    return [[v for r in range(0, lo * nt, nt) for v in endo[r : r + hi]] for lo, hi in zip(dims, dims[1:])]


def flag_sample_by_point(dims: Sequence[int], field: FieldSpec, endo: ExactMatrix) -> tuple:
    """(point, prefix types) of the stable-sample check theta-image made on
    the coordinate-flag point of endo before it read the endomorphism
    alone: the point as _flag_point built it, unchecked, one relations pass
    (_rep_products), a read of each forward map, which must be a coordinate
    inclusion, and the types of every A_i B_i off theta.  CertificateError
    where the check fails.  The point reads only the top n_{t-1} rows of
    endo, so its theta is endo exactly when the rest are zero."""
    dims = as_dim_vector(dims)
    if not is_strictly_monotone(dims):
        raise ValueError(f"stable sampling needs a strictly increasing dimension vector: {dims}")
    nt = dims[-1]
    endo = endo.entries
    A = []
    B = []
    for i in range(len(dims) - 1):
        lo, hi = dims[i], dims[i + 1]
        inclusion = [0] * (hi * lo)
        inclusion[: lo * (lo + 1) : lo + 1] = [1] * lo  # entry (c, c) for c < n_i
        A.append(ExactMatrix._reduced(hi, lo, inclusion, field))
        B.append(ExactMatrix._reduced(lo, hi, [endo[r * nt + c] for r in range(lo) for c in range(hi)], field))
    z = QuiverRep(dims, A, B, field)
    products = _rep_products(z)
    if products is None:
        raise CertificateError(f"sample_stable: the flag sample for {dims} is not a stable point")
    if any(_partial_permutation(A.entries, A.rows, A.cols) != list(range(A.cols)) for A in z.A):
        raise CertificateError(
            f"theta-image: a forward map of the flag point for {dims} is not a coordinate inclusion"
        )
    return z, jordan_flat_by_rowspace(products[-1], dims[-1], field.p, dims[1:])


def pair_types_by_brute_force(n: int, a: int, p: int) -> dict:
    """Every pair A: F_p^n -> F_p^{n+a}, B the other way, with BA nilpotent:
    map each (BA-type, AB-type) to the flat entries of A then B of the first
    pair that has it."""
    m = n + a
    boff = m * n
    types = {}
    for entries in itertools.product(range(p), repeat=2 * boff):
        A, B = entries[:boff], entries[boff:]
        ta = _jordan_flat(_mul_flat(B, A, n, m, n, p), n, p)
        if ta is None:
            continue
        tb = _jordan_flat(_mul_flat(A, B, m, n, m, p), m, p)
        types.setdefault((ta, tb), entries)
    return types


def pair_types_over_every_b(n: int, a: int, p: int) -> dict:
    """The pair loop with A in rank normal form [[I_r, 0], [0, 0]] and B
    over every n x (n+a) matrix, including the block that enters neither BA
    nor AB; the key set of quiverz.verify._pair_types, with the first
    witness of each key in the order of the loop."""
    m = n + a
    types = {}
    for r in range(min(n, m) + 1):
        A = tuple(int(i == j < r) for i in range(m) for j in range(n))
        for B in itertools.product(range(p), repeat=m * n):
            ta = _jordan_flat(_mul_flat(B, A, n, m, n, p), n, p)
            if ta is None:
                continue
            tb = _jordan_flat(_mul_flat(A, B, m, n, m, p), m, p)
            types.setdefault((ta, tb), A + B)
    return types


def pair_types_by_normal_form(n: int, a: int, p: int) -> dict:
    """quiverz.verify._pair_types as it was before it typed B's blocks apart
    or took one class per corner block: A in rank normal form
    [[I_r, 0], [0, 0]], B's block in rows and columns >= r fixed to 0, and
    BA and AB typed for every value of the rest of B, in lexicographic
    order; the same key set, with the first witness of each key in that
    order."""
    m = n + a
    types = {}
    for r in range(min(n, m) + 1):
        A = _rank_normal_form(m, n, r)
        free = [i * m + j for i in range(n) for j in range(m) if i < r or j < r]
        B = [0] * (n * m)
        for values in itertools.product(range(p), repeat=len(free)):
            for k, v in zip(free, values):
                B[k] = v
            ta = _jordan_flat(_mul_flat(B, A, n, m, n, p), n, p)
            if ta is None:
                continue
            tb = _jordan_flat(_mul_flat(A, B, m, n, m, p), m, p)
            if tb is None:
                raise ArithmeticError(f"AB is not nilpotent although BA is: {A + tuple(B)}")
            if (ta, tb) not in types:
                types[(ta, tb)] = A + tuple(B)
    return types


@lru_cache(maxsize=None)
def z_points_by_brute_force(dims: tuple, field) -> tuple:
    """All points of the relation variety over a tiny field, by exhausting
    every matrix tuple and filtering the relations."""
    p = field.p
    t = len(dims)
    shapes = [(dims[i + 1], dims[i]) for i in range(t - 1)]
    shapes += [(dims[i], dims[i + 1]) for i in range(t - 1)]
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    points = []
    for entries in itertools.product(range(p), repeat=offsets[-1]):
        mats = [entries[offsets[k] : offsets[k + 1]] for k in range(len(shapes))]
        A_flat = mats[: t - 1]
        B_flat = mats[t - 1 :]
        if _point_products(dims, A_flat, B_flat, p) is not None:
            A = [ExactMatrix(r, c, m, field) for (r, c), m in zip(shapes[: t - 1], A_flat)]
            B = [ExactMatrix(r, c, m, field) for (r, c), m in zip(shapes[t - 1 :], B_flat)]
            points.append(QuiverRep(dims, A, B, field))
    return tuple(points)


def z_points_by_filter(dims: tuple, field: FieldSpec) -> Iterator[Tuple[int, QuiverRep]]:
    """quiverz.verify._enumerate_z_points as it was before it solved the last
    relation: A_{t-1} in rank normal form, every other map over every
    matrix, each candidate filtered by the relations; every point of each
    fibre that _enumerate_z_points yields, in its order, with the weight of
    its normal form."""
    p = field.p
    t = len(dims)
    if t < 2:
        yield 1, QuiverRep(dims, [], [], field)
        return
    shapes = []
    for i in range(t - 1):
        shapes.append((dims[i + 1], dims[i]))
    for i in range(t - 1):
        shapes.append((dims[i], dims[i + 1]))
    free = shapes[: t - 2] + shapes[t - 1 :]  # every map but A_{t-1}
    offsets = [0]
    for r, c in free:
        offsets.append(offsets[-1] + r * c)
    rows, cols = shapes[t - 2]
    for rank in range(min(rows, cols) + 1):
        weight = _rank_count(rows, cols, rank, p)
        normal = _rank_normal_form(rows, cols, rank)
        for entries in itertools.product(range(p), repeat=offsets[-1]):
            mats = [entries[offsets[k] : offsets[k + 1]] for k in range(len(free))]
            mats.insert(t - 2, normal)
            A_flat = mats[: t - 1]
            B_flat = mats[t - 1 :]
            if _point_products(dims, A_flat, B_flat, p) is not None:
                A = [ExactMatrix(r, c, m, field) for (r, c), m in zip(shapes[: t - 1], A_flat)]
                B = [ExactMatrix(r, c, m, field) for (r, c), m in zip(shapes[t - 1 :], B_flat)]
                yield weight, QuiverRep(dims, A, B, field)


def stability_by_point(
    dims_list: Sequence[Sequence[int]] = ((1, 2), (1, 2, 3)),
    p: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> VerifyReport:
    """quiverz.verify.stability_report as it was before it evaluated the
    criteria once per fibre: both are evaluated on every point of
    z_points_by_filter; the same report."""
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
        for weight, z in z_points_by_filter(dims, field):
            fast = is_stable(z)
            slow = _subspace_criterion(z)  # z_points_by_filter checked the relations
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


def mat_pow(M: ExactMatrix, k: int) -> ExactMatrix:
    if not M.is_square():
        raise ValueError("power of a non-square matrix")
    out = identity(M.rows, M.field)
    for _ in range(k):
        out = mul(out, M)
    return out


def is_nilpotent(M: ExactMatrix) -> bool:
    """True iff the ranks of the powers of M reach 0."""
    if not M.is_square():
        raise ValueError("nilpotency of a non-square matrix")
    return _jordan_flat(M.entries, M.rows, M.field.p) is not None


def transpose(M: ExactMatrix) -> ExactMatrix:
    out = [0] * (M.rows * M.cols)
    for i in range(M.rows):
        for j in range(M.cols):
            out[j * M.rows + i] = M.entries[i * M.cols + j]
    return ExactMatrix._reduced(M.cols, M.rows, out, M.field)


def random_invertible(n: int, field: FieldSpec, rng) -> ExactMatrix:
    return _random_invertible_pair(n, field, rng)[0]


def zero_rep(dims: Sequence[int], field: FieldSpec) -> QuiverRep:
    dims = as_dim_vector(dims)
    A = [zeros(dims[i + 1], dims[i], field) for i in range(len(dims) - 1)]
    B = [zeros(dims[i], dims[i + 1], field) for i in range(len(dims) - 1)]
    return QuiverRep(dims, A, B, field)


def random_group_element(
    dims: Sequence[int], field: FieldSpec, rng, fix_last: bool = False
) -> List[ExactMatrix]:
    """Random invertible tuple; with fix_last the last component is the
    identity, i.e. an element of the subgroup acted out by the quotient."""
    dims = as_dim_vector(dims)
    g = [random_invertible(n, field, rng) for n in dims[:-1]]
    g.append(identity(dims[-1], field) if fix_last else random_invertible(dims[-1], field, rng))
    return g


def sample_flag_point(dims: Sequence[int], field: FieldSpec, rng) -> FlagPoint:
    """Random flag of the given dimensions with a random lowering
    endomorphism, in general position."""
    dims = as_dim_vector(dims)
    if not is_strictly_monotone(dims):
        raise ValueError(f"flag sampling needs a strictly increasing dimension vector: {dims}")
    nt = dims[-1]
    g, ginv = _random_invertible_pair(nt, field, rng)
    lowering = _lowering_endo(dims, field, rng)
    endo = mul(mul(g, lowering), ginv)
    flag = []
    for n in dims[:-1]:
        cols = [0] * (nt * n)
        for r in range(nt):
            for c in range(n):
                cols[r * n + c] = g.at(r, c)
        flag.append(ExactMatrix(nt, n, cols, field))
    x = FlagPoint(tuple(flag), endo)
    x.validate()
    return x


def max_b_part(eta: Partition, a: int) -> Partition:
    """Dominance-maximum of enumerate_b_parts(eta, a).

    The maximum is located inside the enumerated set and checked against the
    add formula; a failure of either check is an internal bug, not bad data."""
    candidates = enumerate_b_parts(eta, a)
    maxima = [
        x for x in candidates if all(dominates(x, y) for y in candidates)
    ]
    if len(maxima) != 1 or maxima[0] != add(eta, a):
        raise CertificateError(f"max_b_part: dominance maxima {maxima} differ from add({eta}, {a})")
    return maxima[0]


def partitions_up_to_weight(n: int) -> Iterator[Partition]:
    """All partitions of weight 0, 1, ..., n."""
    for w in range(n + 1):
        yield from partitions_of_weight(w)
