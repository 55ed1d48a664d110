"""Points of the type-A chain relation variety as exact matrix tuples.

A point is a tuple of maps U_1 <-> U_2 <-> ... <-> U_t (forward maps A_i of
shape n_{i+1} x n_i, backward maps B_i of shape n_i x n_{i+1}).  Membership
in the variety means B_1 A_1 = 0 and B_i A_i = A_{i-1} B_{i-1}; the quotient
map theta sends a point to A_{t-1} B_{t-1}.  Stability is injectivity of all
forward maps; stable points correspond to flags with a flag-lowering
endomorphism, and arbitrary Jordan-type chains are realized by gluing
ab-diagram pairs.

The pair of each diagram has the diagram's letters as basis, and the glue
numbers those letters (_numbered_pair): at each interface the a-letters of
the later diagram take the numbers of the b-letters they meet, row by row,
the k-th longest row meeting the k-th longest.  So B_i A_i is A_{i-1}
B_{i-1} by construction, and no product, chain or permutation is formed to
glue.  Every map of a glued point is a 0/1 partial permutation of the
letters, and the glue gives each as its index map, the letter each letter
goes to.  One step places, numbers and re-checks each diagram
(_glued_step): the diagram is numbered as soon as it is placed, and its
interface is re-checked at once (_interface_recheck): its maps composed
must meet the relation, and the Jordan type of A_i B_i, theta last, read
off its chains, must be the b-part of the diagram.  Between diagrams a
walk keeps only the last A B and the last diagram's b-row starts.
_walk_chain takes the step along a whole chain; the image sweep takes it
along the prefixes of its sorted vectors (_greedy_on_path), keeping one
entry per vertex of the vector walked last, so a greedy chain whose
prefix was walked costs one step.  The re-check forms no matrix and
eliminates nothing, so the image sweep re-checks its chains without
building points.  build_from_chain walks a given chain the same way, then
writes each map as its 0/1 matrix and reads it back (_partial_permutation)
against the map that passed.

A stable sample draws only the first n_{t-1} rows of its flag-lowering
endomorphism, the rows that can be nonzero (_lowering_rows), re-checks
them and cuts its backward maps from them (_flag_blocks).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import functools
import itertools

from quiverz.abdiagrams import ABDiagram, _numbered_pair, max_diagram, random_diagram
from quiverz.exactmat import (
    CertificateError,
    ExactMatrix,
    FieldSpec,
    _composite_ranks,
    _draws,
    _index_chains,
    _index_matrix,
    _jordan_flat,
    _mul_flat,
    _partial_permutation,
    _random_invertible_pair,
    _rank_type,
    all_subspaces,
    hstack,
    identity,
    inverse,
    is_injective,
    mul,
    rank,
    solve,
)
from quiverz.partitions import (
    Partition,
    _Record,
    as_dim_vector,
    dominates,
    is_strictly_monotone,
    mu_of,
    theta_image,
)


class QuiverRep:
    """Matrix tuple on the chain; membership in the relation variety is not
    an invariant of the type and is checked by check_relations."""

    __slots__ = ("dims", "A", "B", "field")

    def __init__(
        self,
        dims: Sequence[int],
        A: Sequence[ExactMatrix],
        B: Sequence[ExactMatrix],
        field: FieldSpec,
    ):
        dims = as_dim_vector(dims)
        t = len(dims)
        A = tuple(A)
        B = tuple(B)
        if len(A) != t - 1 or len(B) != t - 1:
            raise ValueError(f"expected {t - 1} maps each way, got {len(A)} and {len(B)}")
        for kind, maps, backward in (("forward", A, False), ("backward", B, True)):
            for i, M in enumerate(maps):
                shape = (dims[i], dims[i + 1]) if backward else (dims[i + 1], dims[i])
                if M.shape != shape:
                    raise ValueError(f"{kind} map {i + 1} has shape {M.shape}, expected {shape}")
                if M.field != field:
                    raise ValueError(f"field mismatch in {kind} maps")
        self.dims = dims
        self.A = A
        self.B = B
        self.field = field

    @classmethod
    def _unchecked(
        cls, dims: tuple, A: Tuple[ExactMatrix, ...], B: Tuple[ExactMatrix, ...], field: FieldSpec
    ) -> "QuiverRep":
        """A point built from known shapes: dims a tuple of positive ints, A
        and B tuples of t - 1 matrices over field with the shapes of dims,
        taken without the checks of the constructor."""
        z = cls.__new__(cls)
        z.dims = dims
        z.A = A
        z.B = B
        z.field = field
        return z

    @property
    def t(self) -> int:
        return len(self.dims)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuiverRep)
            and self.dims == other.dims
            and self.A == other.A
            and self.B == other.B
            and self.field == other.field
        )

    def __repr__(self) -> str:
        return f"QuiverRep(dims={self.dims}, p={self.field.p})"

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "p": self.field.p,
            "A": [M.to_json_dict() for M in self.A],
            "B": [M.to_json_dict() for M in self.B],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuiverRep":
        f = FieldSpec(data["p"])
        return cls(
            data["dims"],
            [ExactMatrix.from_json_dict(m) for m in data["A"]],
            [ExactMatrix.from_json_dict(m) for m in data["B"]],
            f,
        )


def _point_products(dims: Sequence[int], A: Sequence, B: Sequence, p: int) -> Optional[List[list]]:
    """The flat products A_i B_i for i = 1, ..., t - 1, theta last, if
    B_1 A_1 = 0 and B_i A_i = A_{i-1} B_{i-1} mod p for the maps given as flat
    row-major entries in the shapes dims sets; None if a relation fails.
    The package's one relations pass."""
    products: List[list] = []
    for i in range(len(dims) - 1):
        lo, hi = dims[i], dims[i + 1]
        prev = products[-1] if i else [0] * (lo * lo)
        if _mul_flat(B[i], A[i], lo, hi, lo, p) != prev:
            return None
        products.append(_mul_flat(A[i], B[i], hi, lo, hi, p))
    return products


def _rep_products(z: QuiverRep) -> Optional[List[list]]:
    """_point_products of the maps of z."""
    return _point_products(z.dims, [M.entries for M in z.A], [M.entries for M in z.B], z.field.p)


def check_relations(z: QuiverRep) -> bool:
    """True iff B_1 A_1 = 0 and B_i A_i = A_{i-1} B_{i-1} exactly."""
    return _rep_products(z) is not None


def _interface_types(z: QuiverRep) -> Optional[List[Optional[Partition]]]:
    """The Jordan types of A_i B_i for i = 1, ..., t - 1, theta last, each
    None if that product is not nilpotent; None if a relation fails."""
    products = _rep_products(z)
    if products is None:
        return None
    return [_jordan_flat(ab, z.dims[i], z.field.p) for i, ab in enumerate(products, start=1)]


def _degrees_bounded(types: Sequence[Optional[Partition]]) -> bool:
    """(A_i B_i)^{i+1} = 0 for the types of _interface_types: each A_i B_i is
    nilpotent with no Jordan block longer than i + 1."""
    return all(typ is not None and max(typ.parts, default=0) <= i + 1 for i, typ in enumerate(types, start=1))


def nilpotency_degrees(z: QuiverRep) -> bool:
    """Check (B_i A_i)^i = 0 and (A_i B_i)^{i+1} = 0 for all i; these are
    consequences of the relations, which must hold on input.

    On the variety B_1 A_1 = 0 and B_{i+1} A_{i+1} = A_i B_i, so each
    (B_i A_i)^i = 0 is the condition (A_{i-1} B_{i-1})^i = 0 on the types of
    _interface_types."""
    types = _interface_types(z)
    if types is None:
        raise ValueError("relations fail; nilpotency degrees are only meaningful on the variety")
    return _degrees_bounded(types)


def is_stable(z: QuiverRep) -> bool:
    """Injectivity of every forward map."""
    return all(is_injective(M) for M in z.A)


def theta(z: QuiverRep) -> ExactMatrix:
    """The quotient-map value A_{t-1} B_{t-1}, an endomorphism of the last
    vertex space; nilpotent whenever the relations hold."""
    if z.t < 2:
        raise ValueError("theta needs at least two vertices")
    return mul(z.A[-1], z.B[-1])


def act(g: Sequence[ExactMatrix], z: QuiverRep) -> QuiverRep:
    """Base change A_i -> h_{i+1} A_i h_i^-1, B_i -> h_i B_i h_{i+1}^-1.

    Accepts t components, or t - 1 for the subgroup fixing the last vertex.
    Preserves the relations and stability; fixes theta when h_t = 1.  act
    checks and inverts g; the products are _moved's, which sample_stable
    shares."""
    g = list(g)
    if len(g) == z.t - 1:
        g.append(identity(z.dims[-1], z.field))
    if len(g) != z.t:
        raise ValueError(f"group element must have {z.t} or {z.t - 1} components, got {len(g)}")
    for i, h in enumerate(g):
        if h.shape != (z.dims[i], z.dims[i]):
            raise ValueError(f"component {i + 1} has shape {h.shape}, expected square of size {z.dims[i]}")
    try:
        ginv = [inverse(h) for h in g]
    except ValueError:
        raise ValueError("group element components must be invertible") from None
    return _moved(z, g, ginv)


def _moved(z: QuiverRep, g: Sequence[ExactMatrix], ginv: Sequence[ExactMatrix]) -> QuiverRep:
    """The one base change: A_i -> h_{i+1} A_i h_i^-1, B_i -> h_i B_i
    h_{i+1}^-1, for g the t components h_i and ginv their inverses."""
    A = [mul(mul(g[i + 1], z.A[i]), ginv[i]) for i in range(z.t - 1)]
    B = [mul(mul(g[i], z.B[i]), ginv[i + 1]) for i in range(z.t - 1)]
    return QuiverRep(z.dims, A, B, z.field)


def _lowering_rows(dims: tuple, p: int, rng) -> List[int]:
    """The flat first n_{t-1} rows, each n_t wide, of a random endomorphism
    N of F_p^{n_t} that maps the span of the first n_i coordinates into that
    of the first n_{i-1} (n_0 = 0): the rows of N that can be nonzero, its
    last n_t - n_{t-1} rows being 0.  Column c of block j (n_{j-1} <= c <
    n_j) is drawn in its first n_{j-1} rows, column after column, straight
    into them as one strided slice.  dims has t >= 2 entries."""
    nt = dims[-1]
    rows = [0] * (dims[-2] * nt)
    for low, n in zip(dims, dims[1:]):
        end = low * nt
        for c in range(low, n):
            rows[c:end:nt] = _draws(rng, p, low)
    return rows


def sample_stable(dims: Sequence[int], field: FieldSpec, rng) -> QuiverRep:
    """Random stable point: coordinate flag, random flag-lowering endomorphism
    (forward maps are inclusions, backward maps its restrictions), then a
    random base change at every vertex for genericity.

    The flag point is _flag_point's; the base change is act's, _moved, for
    g a random invertible matrix at each vertex, drawn after the
    endomorphism with its inverse by _random_invertible_pair.  h_{i+1} times
    the inclusion A_i is a gather (_mul_flat).  The base-changed point is
    re-checked by one relations pass that forms no theta, the ranks of its
    forward maps and those of its backward composites (_certified)."""
    return _sample_stable(dims, field, rng)[0]


def _sample_stable(dims: Sequence[int], field: FieldSpec, rng) -> tuple:
    """(sample_stable's point, the Jordan type of its theta): the type is
    read off the ranks of its re-check, with no second pass."""
    z0 = _flag_point(dims, field, rng)
    g, ginv = zip(*(_random_invertible_pair(n, field, rng) for n in z0.dims))
    return _certified(_moved(z0, g, ginv))


def _flag_blocks(dims: Sequence[int], field: FieldSpec, rng) -> List[list]:
    """The flat leading blocks B_i = N[:n_i, :n_{i+1}], i < t, of a drawn
    flag-lowering N (_lowering_rows): the backward maps of its
    coordinate-flag point.  The drawn rows are re-checked to lower the
    coordinate flag: row r (n_{j-1} <= r < n_j) vanishes in its first n_j
    columns, else CertificateError.  On the coordinate-flag point
    (_flag_point) every A_i is an inclusion, so this is exactly B_1 A_1 = 0
    and B_i A_i = A_{i-1} B_{i-1}, and theta is N."""
    dims = as_dim_vector(dims)
    if not is_strictly_monotone(dims):
        raise ValueError(f"stable sampling needs a strictly increasing dimension vector: {dims}")
    if len(dims) < 2:
        return []  # no map, and nothing is drawn
    rows = _lowering_rows(dims, field.p, rng)
    nt = dims[-1]
    for low, n in zip((0,) + dims, dims[:-1]):
        for r in range(low * nt, n * nt, nt):
            if any(rows[r : r + n]):
                raise CertificateError(f"sample_stable: the endomorphism drawn for {dims} does not lower the flag")
    blocks = []
    for lo, hi in zip(dims, dims[1:-1]):
        block = []
        for r in range(0, lo * nt, nt):
            block += rows[r : r + hi]
        blocks.append(block)
    blocks.append(rows)  # B_{t-1}: all the drawn rows
    return blocks


def _flag_point(dims: Sequence[int], field: FieldSpec, rng) -> QuiverRep:
    """The coordinate-flag point of a drawn flag-lowering endomorphism: A_i
    is the inclusion of the first n_i coordinates and B_i the top-left
    n_i x n_{i+1} block of the endomorphism (_flag_blocks), its restriction
    to the (i+1)-th coordinate subspace landing in the i-th.  So A_i B_i is
    the leading n_{i+1} x n_{i+1} block of the endomorphism, theta all of
    it.  sample_stable moves it by a random base change."""
    blocks = _flag_blocks(dims, field, rng)
    dims = tuple(dims)
    A = []
    B = []
    for (lo, hi), block in zip(zip(dims, dims[1:]), blocks):
        inclusion = [0] * (hi * lo)
        inclusion[: lo * (lo + 1) : lo + 1] = [1] * lo  # entry (c, c) for c < n_i
        A.append(ExactMatrix._reduced(hi, lo, inclusion, field))
        B.append(ExactMatrix._reduced(lo, hi, block, field))
    return QuiverRep._unchecked(dims, tuple(A), tuple(B), field)


def _backward_types(B: Sequence[Sequence[int]], dims: Sequence[int], p: int, widths: Sequence[int]) -> List[Partition]:
    """For each w in widths, the Jordan type of the nilpotent whose j-th
    power has rank r_j, that of the first w columns of B_{t-j} ... B_{t-1}
    (_composite_ranks; r_0 = w, r_t = 0), read by _rank_type.  Width n_t
    types theta of a stable point (_certified).  For B_i = N[:n_i, :n_{i+1}]
    of a flag-lowering N, (N|E_{n_i})^j has the rank of the first n_i
    columns of B_{t-j} ... B_{t-1}: width n_i types N on E_{n_i}, the span
    of the first n_i coordinates."""
    return [_rank_type([w, *ranks]) for w, ranks in zip(widths, _composite_ranks(B[::-1], dims[::-1], p, widths))]


def _certified(z: QuiverRep) -> tuple:
    """(z, the Jordan type of its theta) if z is a stable point of the
    variety, else CertificateError: the one re-check of a stable sample.

    Relations: one pass on the first t - 1 vertices (_point_products), then
    B_{t-1} A_{t-1} against its last product (0 when t = 2); theta is never
    formed.  On a stable point theta^j = (A_{t-1} ... A_{t-j}) (B_{t-j} ...
    B_{t-1}), the left factor injective, and theta^t = 0: the type is read
    off the ranks of the backward composites (_backward_types).
    With one vertex, no theta: (z, None)."""
    dims, p = z.dims, z.field.p
    if len(dims) < 2:
        return z, None
    A = [M.entries for M in z.A]
    B = [M.entries for M in z.B]
    lo, hi = dims[-2], dims[-1]
    products = _point_products(dims[:-1], A[:-1], B[:-1], p)
    last = products[-1] if products else [0] * (lo * lo)
    if products is None or _mul_flat(B[-1], A[-1], lo, hi, lo, p) != last or not is_stable(z):
        raise CertificateError(f"sample_stable: the sample for {z.dims} is not a stable point")
    return z, _backward_types(B, dims, p, [hi])[0]


class FlagPoint(_Record):
    """A nested flag in the last vertex space with a flag-lowering
    endomorphism.

    flag lists basis matrices of the proper subspaces E_1 subset ... subset
    E_{t-1}; the ambient E_t is the full space in standard coordinates, so
    endo is literally the quotient-map value of the representation the point
    corresponds to."""

    __slots__ = ("flag", "endo")

    def __init__(self, flag: Sequence[ExactMatrix], endo: ExactMatrix):
        self.flag: Tuple[ExactMatrix, ...] = tuple(flag)
        self.endo = endo

    @property
    def dims(self) -> tuple:
        return tuple(M.cols for M in self.flag) + (self.endo.rows,)

    @property
    def field(self) -> FieldSpec:
        return self.endo.field

    def validate(self) -> None:
        """Raise unless the bases are independent and nested and endo lowers
        the flag by one step (including full space -> E_{t-1})."""
        if not self.endo.is_square():
            raise ValueError("endomorphism must be square")
        nt = self.endo.rows
        prev = None
        for i, basis in enumerate(self.flag):
            if basis.field != self.field:
                raise ValueError("field mismatch in flag bases")
            if basis.rows != nt:
                raise ValueError(f"flag basis {i + 1} lives in the wrong ambient space")
            if rank(basis) != basis.cols:
                raise ValueError(f"flag basis {i + 1} is not independent")
            if prev is not None:
                if prev.cols > basis.cols:
                    raise ValueError("flag dimensions must be weakly increasing")
                if not _contained(prev, basis):
                    raise ValueError(f"flag subspace {i} is not contained in subspace {i + 1}")
            prev = basis
        if self.flag and self.flag[-1].cols > nt:
            raise ValueError("flag dimensions exceed the ambient space")
        # Lowering: endo E_i inside E_{i-1}, with E_0 = 0 and E_t the ambient.
        for i, basis in enumerate(self.flag):
            image = mul(self.endo, basis)
            if i == 0:
                if not image.is_zero():
                    raise ValueError("endomorphism does not kill the smallest subspace")
            elif not _contained(image, self.flag[i - 1]):
                raise ValueError(f"endomorphism does not lower subspace {i + 1} into subspace {i}")
        if self.flag:
            if not _contained(self.endo, self.flag[-1]):
                raise ValueError("endomorphism does not map the full space into the top subspace")
        elif not self.endo.is_zero():
            raise ValueError("endomorphism of a length-one flag must vanish")


def alpha(z: QuiverRep) -> FlagPoint:
    """Flag of images of the composed forward maps together with theta(z),
    the last product of the relations pass; defined exactly on the stable
    points of the variety."""
    if z.t < 2:
        raise ValueError("alpha needs at least two vertices")
    products = _rep_products(z)
    if products is None:
        raise ValueError("alpha is only defined on the relation variety")
    if not is_stable(z):
        raise ValueError("alpha needs a stable point (all forward maps injective)")
    composed = [z.A[-1]]
    for i in range(z.t - 3, -1, -1):
        composed.append(mul(composed[-1], z.A[i]))
    composed.reverse()  # composed[i] = A_{t-1} ... A_{i+1}
    x = FlagPoint(tuple(composed), ExactMatrix._reduced(z.dims[-1], z.dims[-1], products[-1], z.field))
    x.validate()
    return x


def from_flag_point(x: FlagPoint) -> QuiverRep:
    """The stable point whose flag of images is x: forward maps express each
    basis inside the next, backward maps express the lowered endomorphism,
    and one relations pass re-checks the point and gives its theta."""
    if not x.flag:
        raise ValueError("from_flag_point needs at least two vertices")
    x.validate()
    field = x.field
    t = len(x.flag) + 1
    nt = x.endo.rows
    basis = list(x.flag) + [identity(nt, field)]
    A = [solve(basis[i + 1], basis[i]) for i in range(t - 1)]
    B = [solve(basis[i], mul(x.endo, basis[i + 1])) for i in range(t - 1)]
    z = QuiverRep(x.dims, A, B, field)
    products = _rep_products(z)
    if products is None or not is_stable(z) or products[-1] != list(x.endo.entries):
        raise CertificateError("from_flag_point: the result is not a stable point over the flag")
    return z


def _walk_chain(dims: Sequence[int], place) -> Tuple[List[ABDiagram], List[List[int]], List[List[int]]]:
    """(the chain, its forward maps A, its backward maps B) of placements
    place(eta, step) along the difference sequence of dims, each eta the
    b-part of the placement before: the one walk and glue of a chain, one
    _glued_step per diagram.  Between diagrams the walk keeps A B of the
    last interface and the b-row starts of the last diagram."""
    dims = as_dim_vector(dims)
    eta = Partition._sorted((1,) * dims[0])
    chain, A, B = [], [], []
    ab = [-1] * dims[0]  # A_0 B_0 = 0
    starts = None
    for i in range(len(dims) - 1):
        step = dims[i + 1] - dims[i]
        if step < 0:
            raise ValueError(f"decreasing step at position {i + 1}: {dims}")
        delta, a, b, ab, starts = _glued_step(place, eta, step, ab, starts)
        chain.append(delta)
        A.append(a)
        B.append(b)
        eta = delta.b_part
    return chain, A, B


def _glued_step(place, eta: Partition, step: int, ab: List[int], starts: Optional[List[int]]) -> tuple:
    """(delta, A_i, B_i, A_i B_i, delta's b-row starts) for the placement
    delta = place(eta, step), glued after the interface whose A B is ab (all
    -1 at the first) and whose diagram's b-row starts are starts (None at
    the first): delta is numbered onto the diagram before (_numbered_pair)
    as soon as it is placed, and its interface re-checked at once
    (_interface_recheck).  The maps are index maps (_partial_permutation).
    The one step of every walk: _walk_chain's and the image sweep's walk
    along its prefixes (_greedy_on_path)."""
    delta = place(eta, step)
    a, b, starts = _numbered_pair(delta, starts)
    return delta, a, b, _interface_recheck(a, b, ab, delta), starts


def _greedy_on_path(dims: tuple, path: list) -> List[ABDiagram]:
    """greedy_chain(dims), walked on from the longest prefix of dims that
    path walked before.  path is the stack of the vector walked last, one
    (n_i, the diagram placed to reach n_i, A_i B_i, its b-row starts) per
    vertex, (n_1, None, all -1, None) first: the entries that disagree with
    dims are popped, then one greedy _glued_step is pushed per entry of dims
    past the kept prefix.  An entry is never changed once pushed, so each
    interface is re-checked once, when its prefix is first walked, and path
    never holds more entries than the vector walked last.  For vectors in
    sorted order, the depth-first preorder of their prefix tree, each vector
    whose prefix came before it costs one step."""
    keep = 0
    for entry, n in zip(path, dims):
        if entry[0] != n:
            break
        keep += 1
    del path[keep:]
    for n in dims[keep:]:
        if not path:
            path.append((n, None, [-1] * n, None))  # A_0 B_0 = 0
            continue
        low, delta, ab, starts = path[-1]
        if n < low:
            raise ValueError(f"decreasing step at position {len(path)}: {dims}")
        eta = delta.b_part if delta else Partition._sorted((1,) * low)
        delta, _, _, ab, starts = _glued_step(max_diagram, eta, n - low, ab, starts)
        path.append((n, delta, ab, starts))
    return [entry[1] for entry in path[1:]]


def greedy_chain(dims: Sequence[int]) -> List[ABDiagram]:
    """The chain of top placements along the difference sequence, glued and
    re-checked as it is placed (_walk_chain); its final b-part is
    theta_image(dims)."""
    return _walk_chain(dims, max_diagram)[0]


def random_chain(dims: Sequence[int], rng) -> List[ABDiagram]:
    """A random compatible chain of placements along the difference
    sequence, glued and re-checked as it is placed (_walk_chain)."""
    return _walk_chain(dims, functools.partial(random_diagram, rng=rng))[0]


def build_from_chain(deltas: Sequence[ABDiagram], field: FieldSpec) -> QuiverRep:
    """Glue diagram pairs into a point of the relation variety.

    The first diagram must have an all-ones a-part (so the first composition
    vanishes); consecutive diagrams must agree across each interface, where
    the later pair is renumbered onto the earlier one's composition.  The
    quotient-map value of the result has Jordan type b_part of the last
    diagram.

    The chain is walked with its own diagrams as the placements
    (_walk_chain): each diagram's letters are numbered onto the one before,
    the k-th a-row of diagram i taking the numbers of the k-th longest
    b-row of diagram i - 1 (_numbered_pair), and that interface is
    re-checked at once (_interface_recheck): its maps must be index maps,
    B_i A_i must be A_{i-1} B_{i-1}, and the type of A_i B_i, theta last,
    read off its chains, must be the b-part of diagram i.  That re-check is
    the certificate.  Each map then becomes its 0/1 matrix, which must read
    back (_partial_permutation) as the map that passed (_chain_point)."""
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
    dims = (deltas[0].total_a,) + tuple(delta.total_b for delta in deltas)  # checked by the walk
    rest = iter(deltas)
    _, A, B = _walk_chain(dims, lambda eta, step: next(rest))
    return _chain_point(dims, A, B, field)


def _chain_point(dims: tuple, A: List[List[int]], B: List[List[int]], field: FieldSpec) -> QuiverRep:
    """The point whose maps are the index maps A and B of a walked chain
    (_walk_chain), each written as its 0/1 matrix and read back
    (_partial_permutation) against the map that passed, else
    CertificateError."""
    forward = tuple(_index_matrix(image, dims[i + 1], field) for i, image in enumerate(A))
    backward = tuple(_index_matrix(image, dims[i], field) for i, image in enumerate(B))
    for M, image in zip(forward + backward, A + B):
        if _partial_permutation(M.entries, M.rows, M.cols) != image:
            raise CertificateError(f"build_from_chain: a matrix of the point glued for {dims} is not its map")
    return QuiverRep._unchecked(dims, forward, backward, field)


def _interface_recheck(a: List[int], b: List[int], ab: List[int], delta: ABDiagram) -> List[int]:
    """A_i B_i as an index map, for a = A_i and b = B_i the index maps
    (_partial_permutation) glued for delta and ab = A_{i-1} B_{i-1} (all -1
    at the first interface), else CertificateError: the one re-check of a
    glued interface.

    Both maps must be partial permutations between the letters of their
    shapes, B_i A_i must be ab (the composition of such maps is their
    matrix product), and the type of A_i B_i, read off its chains
    (_index_chains), must be the b-part of delta."""
    lo, hi = len(ab), delta.total_b
    if _is_index_map(a, lo, hi) and _is_index_map(b, hi, lo):
        b_end = b + [-1]  # so that index -1, the end of a row, maps to -1
        if list(map(b_end.__getitem__, a)) == ab:
            a_end = a + [-1]
            ab = list(map(a_end.__getitem__, b))
            if tuple(sorted(map(len, _index_chains(ab)), reverse=True)) == delta.b_part.parts:
                return ab
    raise CertificateError(f"build_from_chain: the maps glued for {delta} fail their re-check")


def _is_index_map(image: Sequence[int], cols: int, rows: int) -> bool:
    """image is the index map of a rows x cols 0/1 partial permutation:
    cols entries, each -1 or a distinct index below rows."""
    hits = set(image)
    hits.discard(-1)
    if len(image) != cols or len(hits) != cols - image.count(-1):
        return False
    return not hits or 0 <= min(hits) and max(hits) < rows


class ReducibilityReport(_Record):
    """Outcome of the reducibility obstruction with re-verified witnesses."""

    __slots__ = ("dims", "lam", "mu", "verdict", "witnesses")

    def __init__(
        self, dims: tuple, lam: Partition, mu: Partition, verdict: str, witnesses: Optional[List[dict]] = None
    ):
        self.dims = dims
        self.lam = lam
        self.mu = mu
        self.verdict = verdict
        self.witnesses = [] if witnesses is None else witnesses

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "lambda": self.lam.to_list(),
            "mu": self.mu.to_list(),
            "verdict": self.verdict,
            "witnesses": self.witnesses,
        }


def witness_reducible(dims: Sequence[int], field: FieldSpec, rng) -> ReducibilityReport:
    """Compare the greedy chain's type lambda = theta_image(dims) with the
    stable bound mu; when they differ, produce a two-witness certificate: a
    chain-built point realizing lambda and a stable sample bounded by mu.
    lambda is the type of a point of the variety, not in general the largest
    type in the image of theta (see theta_image); lambda != mu is what the
    certificate needs.  The relations fields and the chain type record the
    re-checks of the builders; the stable sample's theta type is the one its
    re-check reads off the ranks of its backward composites, theta unformed."""
    dims = as_dim_vector(dims)
    if not is_strictly_monotone(dims):
        raise ValueError(f"obstruction needs a strictly increasing dimension vector: {dims}")
    lam = theta_image(dims)
    mu = mu_of(dims)
    if lam == mu:
        return ReducibilityReport(dims, lam, mu, "no_obstruction")
    z1 = _chain_point(dims, *_walk_chain(dims, max_diagram)[1:], field)
    z2, t2 = _sample_stable(dims, field, rng)
    if not dominates(mu, t2):
        raise CertificateError(f"witness_reducible: the witnesses for {dims} fail their re-check")
    witnesses = [
        {
            "kind": kind,
            "relations": True,
            "stable": stable,
            "theta_type": typ.to_list(),
            "rep": z.to_json_dict(),
        }
        for kind, z, stable, typ in (("chain", z1, is_stable(z1), lam), ("stable", z2, True, t2))
    ]
    return ReducibilityReport(dims, lam, mu, "reducible", witnesses)


def _contained(vectors: ExactMatrix, basis: ExactMatrix) -> bool:
    if vectors.is_zero():
        return True
    if basis.cols == 0:
        return False
    return rank(hstack(basis, vectors)) == basis.cols


def is_stable_subspace_criterion(z: QuiverRep) -> bool:
    """Stability by exhaustive search over invariant subspace tuples.

    A point is unstable iff some tuple W_i of subspaces of the first t-1
    vertex spaces, not all zero, satisfies A_i W_i inside W_{i+1} and
    B_i W_{i+1} inside W_i (i <= t-2) with A_{t-1} W_{t-1} = 0.  Exponential
    in field size and dimensions; a tiny-field oracle for is_stable."""
    if not check_relations(z):
        raise ValueError("subspace criterion is only meaningful on the relation variety")
    return _subspace_criterion(z)


def _subspace_criterion(z: QuiverRep) -> bool:
    """is_stable_subspace_criterion for a point known to be on the variety."""
    if z.t < 2:
        return True
    spaces = [all_subspaces(n, z.field) for n in z.dims[:-1]]
    for tup in itertools.product(*spaces):
        if all(W.cols == 0 for W in tup):
            continue
        ok = True
        for i in range(z.t - 2):
            if not _contained(mul(z.A[i], tup[i]), tup[i + 1]):
                ok = False
                break
            if not _contained(mul(z.B[i], tup[i + 1]), tup[i]):
                ok = False
                break
        if ok and mul(z.A[-1], tup[-1]).is_zero():
            return False
    return True
