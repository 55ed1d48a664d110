"""Partitions, dominance order, and dimension vectors of type-A chains.

A partition is a weakly decreasing tuple of positive integers, read as a
Young diagram with one row per part.  Dimension vectors (n_1, ..., n_t) are
plain tuples of positive integers; the operations below relate them to
partitions through column-truncation volumes, difference sequences, and the
box-adding operation ``add``, which grows a diagram by ``a`` boxes in the
dominance-maximal way.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterable, Iterator, Optional, Sequence

NOT_MONOTONE = "not_monotone"
MONOTONE_ONLY = "monotone_only"
KRAFT_PROCESI = "kraft_procesi"


class Partition:
    """Weakly decreasing sequence of positive integers; () is the partition of 0."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        try:
            parts = tuple(map(operator.index, parts))
        except TypeError:
            raise ValueError("partition parts must be integers") from None
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def _sorted(cls, parts: tuple) -> "Partition":
        """The partition of a tuple of ints that its caller built positive and
        weakly decreasing, taken without the checks of the constructor."""
        eta = cls.__new__(cls)
        eta.parts = parts
        return eta

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated shorthand like "5,3,3,1"; "" is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise ValueError(f"cannot parse partition from {text!r}") from None
        return cls(parts)

    def to_list(self) -> list:
        return list(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"


def dual(eta: Partition) -> Partition:
    """Conjugate partition: column lengths of the Young diagram of eta."""
    first = eta.parts[0] if eta.parts else 0
    return Partition._sorted(tuple(sum(1 for p in eta.parts if p >= i) for i in range(1, first + 1)))


def dominates(eta: Partition, nu: Partition) -> bool:
    """True iff every prefix sum of eta is >= the matching prefix sum of nu.

    Only partitions of equal weight are comparable; anything else raises.
    """
    if eta.weight != nu.weight:
        raise ValueError(
            f"incomparable weights: {eta.weight} vs {nu.weight}"
        )
    # zip stops at the shorter partition: past a shorter eta its sums stay at
    # the weight, which bounds nu's; a shorter nu reaches the weight at its
    # last part, where eta's sum falls short, inside the zip.
    return all(map(operator.ge, itertools.accumulate(eta.parts), itertools.accumulate(nu.parts)))


def add(eta: Partition, a: int) -> Partition:
    """Grow eta by a boxes, promoting the longest rows first.

    With s rows: if a >= s every row gains a box and a - s new rows of length
    one appear (a new first column of height a).  Otherwise the first
    floor((s+a)/2) rows gain a box, the remaining rows lose one (the middle
    row is untouched when s + a is odd), and rows shrunk to zero are dropped.
    The result always has eta.weight + a boxes and is the dominance-maximal
    b-part over ab-diagram placements with a-part eta (see abdiagrams).

    add(., a) preserves dominance on pairs whose larger partition has at
    most a rows: if x dominates y and len(x) <= a, then add(x, a) dominates
    add(y, a).  This fails in general, first at weight 6: (2,2,2) dominates
    (2,2,1,1), yet add(., 0) gives (3,2,1) against the strictly larger (3,3).
    """
    if a < 0:
        raise ValueError(f"cannot add a negative box count: {a}")
    p = eta.parts
    s = len(p)
    if a >= s:
        return Partition(tuple(q + 1 for q in p) + (1,) * (a - s))
    half = (s + a) // 2
    if (s + a) % 2 == 0:
        grown = tuple(q + 1 for q in p[:half]) + tuple(q - 1 for q in p[half:])
    else:
        grown = (
            tuple(q + 1 for q in p[:half])
            + (p[half],)
            + tuple(q - 1 for q in p[half + 1 :])
        )
    return Partition(q for q in grown if q > 0)


def as_dim_vector(values: Sequence[int]) -> tuple:
    """Validate and normalize a dimension vector (n_1, ..., n_t), t >= 1."""
    try:
        dims = tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"dimension vector entries must be integers: {values!r}") from None
    if not dims:
        raise ValueError("dimension vector must be nonempty")
    if min(dims) <= 0:
        raise ValueError(f"dimension vector entries must be positive: {dims}")
    return dims


def parse_dim_vector(text: str) -> tuple:
    try:
        values = [int(tok) for tok in text.strip().split(",")]
    except ValueError:
        raise ValueError(f"cannot parse dimension vector from {text!r}") from None
    return as_dim_vector(values)


def n_vector(eta: Partition) -> tuple:
    """Dimension vector of eta: volumes of the diagrams obtained by repeatedly
    collapsing the first column, i.e. suffix sums of the dual partition."""
    if not eta:
        raise ValueError("the empty partition has no dimension vector")
    cols = dual(eta).parts  # exactly eta.parts[0] entries
    total = 0
    out = []
    for c in reversed(cols):
        total += c
        out.append(total)
    return tuple(out)


class _Record:
    """Base of the package's small value classes, written out so that no
    module imports dataclasses (and through it inspect).  The fields are the
    names in __slots__, in constructor order.  Records of the same class
    with equal fields are equal, repr names the fields, and pickle rebuilds
    a record through its constructor.  A _Record is mutable and unhashable,
    as a plain dataclass is; _FrozenRecord is the frozen kind."""

    __slots__ = ()
    __hash__ = None

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class _FrozenRecord(_Record):
    """A _Record that refuses assignment once built, so it can hash its
    fields; its constructor sets them through object.__setattr__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__qualname__}")


class DimVecClass(_FrozenRecord):
    """Classification of a dimension vector; eta is present only for the
    column-truncation vectors, where n_vector(eta) reproduces the input."""

    __slots__ = ("tag", "eta")

    def __init__(self, tag: str, eta: Optional[Partition] = None):
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "eta", eta)


def is_strictly_monotone(d: Sequence[int]) -> bool:
    return all(map(operator.lt, d, d[1:]))


def classify(d: Sequence[int]) -> DimVecClass:
    """Sort a dimension vector into one of three classes.

    not_monotone: some n_i >= n_{i+1}.  monotone_only: strictly increasing
    but the difference sequence (n_1, n_2-n_1, ...) is not weakly increasing.
    kraft_procesi: differences weakly increase; then the reversed difference
    sequence is a partition and eta is its dual.
    """
    d = as_dim_vector(d)
    if not is_strictly_monotone(d):
        return DimVecClass(NOT_MONOTONE)
    diffs = _diff_sequence(d)
    if any(diffs[i] > diffs[i + 1] for i in range(len(diffs) - 1)):
        return DimVecClass(MONOTONE_ONLY)
    return DimVecClass(KRAFT_PROCESI, dual(Partition(reversed(diffs))))


def _diff_sequence(d: Sequence[int]) -> list:
    return [d[0]] + [d[i + 1] - d[i] for i in range(len(d) - 1)]


def cartan_slack(d: Sequence[int]) -> tuple:
    """Slack vector w - Cv with C the type-A Cartan matrix, v = (n_1..n_{t-1}),
    w = (0,..,0,n_t): component i is n_{i+1} - 2 n_i + n_{i-1} (n_0 = 0).

    Componentwise nonnegativity is equivalent to the difference sequence of d
    being weakly increasing."""
    d = as_dim_vector(d)
    if len(d) < 2:
        raise ValueError("slack needs at least two vertices")
    return tuple(
        d[i + 1] - 2 * d[i] + (d[i - 1] if i else 0) for i in range(len(d) - 1)
    )


def mu_of(d: Sequence[int]) -> Partition:
    """Dual of the sorted difference sequence; the generic Jordan type of the
    quotient-map value on the stable locus."""
    d = as_dim_vector(d)
    if not is_strictly_monotone(d):
        raise ValueError(f"dimension vector must be strictly increasing: {d}")
    return dual(Partition(sorted(_diff_sequence(d), reverse=True)))


def theta_image(d: Sequence[int]) -> Partition:
    """The theta-type of the greedy chain of d (quiverrep.greedy_chain):
    iterate add along the difference sequence, starting from the all-ones
    partition of n_1.

    It is not in general the largest type in the image of theta, which is
    theta_image_max(d).  add is dominance-monotone only where it adds a
    whole column, which every step does when the differences of d weakly
    increase (the Kraft-Procesi class); elsewhere another chain can end
    higher: at (3, 3, 3) for (4, 8, 9), above (3, 3, 2, 1)."""
    d = as_dim_vector(d)
    eta = Partition((1,) * d[0])
    for i in range(len(d) - 1):
        step = d[i + 1] - d[i]
        if step < 0:
            raise ValueError(f"decreasing step at position {i + 1}: {d}")
        eta = add(eta, step)
    return eta


def theta_image_max(d: Sequence[int]) -> Partition:
    """M(d), the largest theta-type of the relation variety of the strictly
    increasing d: mu_of of the greatest integer convex minorant of
    (0, n_1, ..., n_t) with both ends fixed, zeros dropped.  Of the d' <= d
    with the same last entry and weakly increasing differences, which index
    the strata of the variety (Nakajima), it is the greatest, with the
    largest mu_of.  Lowering each inner entry to the floor of the mean of
    its neighbours until none moves reaches it."""
    d = as_dim_vector(d)
    if not is_strictly_monotone(d):
        raise ValueError(f"dimension vector must be strictly increasing: {d}")
    c = [0, *d]
    while any(2 * c[i] > c[i - 1] + c[i + 1] for i in range(1, len(c) - 1)):
        c[1:-1] = [min(c[i], (c[i - 1] + c[i + 1]) // 2) for i in range(1, len(c) - 1)]
    return mu_of([v for v in c if v])


def zss_density_obstruction(d: Sequence[int]) -> str:
    """"reducible" when the greedy chain's type theta_image(d) differs from
    the stable bound mu_of(d) (a sound reducibility certificate for the
    relation variety: a point of that type lies outside the closure of the
    stable locus); "no_obstruction" otherwise.  The latter does not assert
    irreducibility."""
    d = as_dim_vector(d)
    if not is_strictly_monotone(d):
        raise ValueError(f"dimension vector must be strictly increasing: {d}")
    return "reducible" if theta_image(d) != mu_of(d) else "no_obstruction"


def render_young(eta: Partition) -> str:
    """ASCII Young diagram, one line of [] boxes per part."""
    return "\n".join("[]" * p for p in eta.parts)


def partitions_of_weight(n: int) -> Iterator[Partition]:
    """Yield all partitions of n (largest first part first)."""
    if n < 0:
        return
    yield from (Partition(t) for t in _partition_tuples(n, n))


def _partition_tuples(n: int, max_part: int) -> Iterator[tuple]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest
