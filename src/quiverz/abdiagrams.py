"""Alternating a/b string diagrams for pairs of maps A: V -> W, B: W -> V
with both compositions nilpotent.

Each row is an alternating word in a and b; the letters of a row are basis
vectors (a's in V, b's in W) and each letter maps to its right neighbour, the
last letter to zero.  A diagram -- a multiset of rows -- therefore determines
a pair (A, B) with Jordan types: type(BA) = the partition of per-row a-counts
(the a-part) and type(AB) = the per-row b-counts (the b-part).

Rows with a fixed a-part are enumerated by how many extra b's each row
absorbs at its ends (0, 1 or 2) plus any number of singleton-b rows; over all
placements the achievable b-parts form a dominance-bounded family whose
maximum is add(a_part, extra).  Placed diagrams (_placement) are built in
canonical order from their row keys, with one row object per shape.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from quiverz.exactmat import CertificateError, ExactMatrix, FieldSpec, _draws, _index_matrix
from quiverz.partitions import Partition, _FrozenRecord, add


class ABRow(_FrozenRecord):
    """One alternating row: a_count letters a, a_count - 1 interior b's, plus
    optional leading/trailing b.  a_count = 0 encodes the singleton row "b"
    (leading_b True, trailing_b False by convention)."""

    __slots__ = ("a_count", "leading_b", "trailing_b")

    def __init__(self, a_count: int, leading_b: bool = False, trailing_b: bool = False):
        if a_count < 0:
            raise ValueError(f"a_count must be nonnegative: {a_count}")
        if a_count == 0 and not (leading_b and not trailing_b):
            raise ValueError("a singleton-b row is encoded as leading_b only")
        object.__setattr__(self, "a_count", a_count)
        object.__setattr__(self, "leading_b", leading_b)
        object.__setattr__(self, "trailing_b", trailing_b)

    @property
    def b_count(self) -> int:
        if self.a_count == 0:
            return 1
        return self.a_count - 1 + int(self.leading_b) + int(self.trailing_b)

    @property
    def length(self) -> int:
        return self.a_count + self.b_count

    def to_string(self) -> str:
        if self.a_count == 0:
            return "b"
        body = "a" + "ba" * (self.a_count - 1)
        return ("b" if self.leading_b else "") + body + ("b" if self.trailing_b else "")

    @classmethod
    def parse(cls, word: str) -> "ABRow":
        if not word or any(ch not in "ab" for ch in word):
            raise ValueError(f"row must be a nonempty word over {{a,b}}: {word!r}")
        if any(word[i] == word[i + 1] for i in range(len(word) - 1)):
            raise ValueError(f"row letters must alternate: {word!r}")
        if word == "b":
            return cls(0, True, False)
        return cls(word.count("a"), word[0] == "b", word[-1] == "b")


def _row_sort_key(row: ABRow) -> tuple:
    """Longest first, then most a's, then the row's string: rows that tie
    on both differ at most by which end holds their one end b, and "a..."
    sorts before "b..."."""
    return (-row.length, -row.a_count, row.leading_b)


class ABDiagram:
    """Multiset of ABRows, kept in a canonical order (longest first).  The
    a-part, the b-part and the letter totals are computed once, when the
    diagram is made; a placed diagram (_placement) comes sorted from its
    row keys and takes them from its placement."""

    __slots__ = ("rows", "a_part", "b_part", "total_a", "total_b")

    def __init__(self, rows: Sequence[ABRow]):
        self.rows = tuple(sorted(rows, key=_row_sort_key))
        a_counts = [r.a_count for r in self.rows]
        b_counts = [r.b_count for r in self.rows]
        self.a_part = Partition._sorted(tuple(sorted(filter(None, a_counts), reverse=True)))
        self.b_part = Partition._sorted(tuple(sorted(filter(None, b_counts), reverse=True)))
        self.total_a = sum(a_counts)
        self.total_b = sum(b_counts)

    @classmethod
    def from_strings(cls, words: Sequence[str]) -> "ABDiagram":
        return cls([ABRow.parse(w) for w in words])

    def to_strings(self) -> List[str]:
        return [row.to_string() for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, ABDiagram) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ABDiagram({self.to_strings()})"


@lru_cache(maxsize=None)
def _placement_table(parts: tuple) -> tuple:
    """The end-placements of one a-part, deduplicated: row i takes p_i - 1
    interior b's and jvec[i] in 0..2 end b's.  One (used, counts, jvec) per
    distinct pair of used = sum(jvec) and the decreasing nonzero per-row
    b-counts, jvec the first placement giving it in the 3^s product order."""
    table: Dict[tuple, tuple] = {}
    for jvec in itertools.product((0, 1, 2), repeat=len(parts)):
        counts = tuple(
            sorted((p - 1 + j for p, j in zip(parts, jvec) if p - 1 + j > 0), reverse=True)
        )
        table.setdefault((sum(jvec), counts), jvec)
    return tuple((used, counts, jvec) for (used, counts), jvec in table.items())


@lru_cache(maxsize=None)
def _row(key: tuple) -> ABRow:
    """The one row whose _row_sort_key is key: its b-count is the length
    less the a-count, and a trailing b is what the b-count leaves over."""
    a = -key[1]
    b = key[1] - key[0]
    return ABRow(a, key[2], a > 0 and b - a + 1 - key[2] == 1)


def _placement(eta: Partition, a: int, jvec: Sequence[int], leads: Sequence[bool] = ()) -> ABDiagram:
    """The diagram whose i-th row has eta's i-th part and jvec[i] end b's (a
    single one leading unless leads[i] is False), plus singleton-b rows for
    the rest of the len(eta) + a extra b's.

    Built in canonical order without the checks of ABDiagram: the sort keys
    come from (part, j, lead) directly, one shared row per key (_row), and
    the a-part is eta itself."""
    leads = leads or [True] * len(jvec)
    parts = eta.parts
    keys = [(1 - 2 * p - j, -p, j == 2 or (j == 1 and lead)) for p, j, lead in zip(parts, jvec, leads)]
    keys.sort()
    singles = len(parts) + a - sum(jvec)
    b_counts = [p - 1 + j for p, j in zip(parts, jvec) if p - 1 + j]
    b_counts.sort(reverse=True)
    delta = ABDiagram.__new__(ABDiagram)
    delta.rows = tuple(map(_row, keys)) + (_row((-1, 0, True)),) * singles  # the singletons "b" sort last
    delta.a_part = eta
    delta.b_part = Partition._sorted(tuple(b_counts) + (1,) * singles)
    delta.total_a = sum(parts)
    delta.total_b = delta.total_a + a
    return delta


def enumerate_b_parts(eta: Partition, a: int, witnesses: bool = False):
    """All b-parts of diagrams with a-part exactly eta and weight(eta) + a
    total b's.  Returns a set of Partitions, or with witnesses=True a dict
    mapping each b-part to one diagram realizing it.

    A b-part's first realizing placement is the first of its (used, counts)
    entry, so the witnesses and their order follow the 3^s product."""
    if a < 0:
        raise ValueError(f"extra b-count must be nonnegative: {a}")
    budget = len(eta) + a
    found: Dict[Partition, tuple] = {}
    for used, counts, jvec in _placement_table(eta.parts):
        if used <= budget:
            found.setdefault(Partition(counts + (1,) * (budget - used)), jvec)
    if not witnesses:
        return set(found)
    return {b: _placement(eta, a, jvec) for b, jvec in found.items()}


def max_diagram(eta: Partition, a: int) -> ABDiagram:
    """The placement with all extra b's as high as possible; its b-part is
    add(eta, a)."""
    if a < 0:
        raise ValueError(f"extra b-count must be nonnegative: {a}")
    s = len(eta.parts)
    twos = min(s, (s + a) // 2)
    ones = int(a < s and (s + a) % 2)
    delta = _placement(eta, a, [2] * twos + [1] * ones + [0] * (s - twos - ones))
    if delta.b_part != add(eta, a):
        raise CertificateError(f"max_diagram: b-part {delta.b_part} differs from add({eta}, {a})")
    return delta


def random_diagram(eta: Partition, a: int, rng) -> ABDiagram:
    """A uniformly random end-placement of the extra b's (rejection on the
    in-row budget), for sampling arbitrary points of the pair variety."""
    s = len(eta.parts)
    while True:
        jvec = _draws(rng, 3, s)
        if sum(jvec) <= s + a:
            break
    return _placement(eta, a, jvec, list(map(bool, _draws(rng, 2, s))))


def build_pair(delta: ABDiagram, field: FieldSpec) -> Tuple[ExactMatrix, ExactMatrix]:
    """Matrices (A, B) of the representation encoded by delta.

    Basis vectors are the letters, each kind numbered in reading order, row
    after row; every letter maps to the next letter of its row (zero at the
    end).  A collects the a -> b images, B the b -> a images, so
    type(BA) = a_part and type(AB) = b_part."""
    a_map, b_map, _ = _numbered_pair(delta)
    return _index_matrix(a_map, delta.total_b, field), _index_matrix(b_map, delta.total_a, field)


def _numbered_pair(delta: ABDiagram, a_starts: Optional[Sequence[int]] = None) -> tuple:
    """(A, B, the b-row starts) for delta's letters, each kind numbered in
    reading order, row after row, as build_pair numbers them; with a_starts,
    the b-row starts of the diagram glued before it, the a-letters of its
    k-th row take the numbers from a_starts[k] on.  A and B are index maps
    (_partial_permutation): A[a] is the number of the b-letter after
    a-letter a in its row, B[b] that of the a-letter after b-letter b, and
    -1 at the end of a row.  The b-row starts come longest row first, equal
    lengths in row order: the order in which the next diagram's a-rows meet
    them.

    The letters of each kind in a row have consecutive numbers, so each row
    is two slice assignments: a-letter j goes to b-letter j + lead and
    b-letter j to a-letter j + 1 - lead, lead 1 after a leading b, while
    that letter exists.  The a-counts never increase in the canonical row
    order, so the a-rows come longest first as they are; the k-th of them
    meets the k-th longest b-row before, and the letters of one kind in a
    row are a chain of the composition on that kind: B A of the renumbered
    pair moves the b-letter numbers as A B of the diagram before does, with
    the rows taken in the order a Jordan basis takes chains.  a_starts must
    hold a start for each part of delta's a-part, longest first."""
    rows = delta.rows[: len(delta.a_part.parts)]  # the rows with an a, the singletons "b" after them
    if a_starts is None:
        a_starts = [0, *itertools.accumulate([row.a_count for row in rows])]
    a_map = [-1] * delta.total_a
    b_map = [-1] * delta.total_b
    b_rows = []  # (-length, start) of each nonempty b-row
    b0 = 0
    for row, a0 in zip(rows, a_starts):
        na = row.a_count
        if row.leading_b:
            nb = na + row.trailing_b
            a_map[a0 : a0 + nb - 1] = range(b0 + 1, b0 + nb)
            b_map[b0 : b0 + na] = range(a0, a0 + na)
        else:
            nb = na - 1 + row.trailing_b
            a_map[a0 : a0 + nb] = range(b0, b0 + nb)
            b_map[b0 : b0 + na - 1] = range(a0 + 1, a0 + na)
        if nb:
            b_rows.append((-nb, b0))
        b0 += nb
    b_rows.sort()  # longest first, equal lengths by start: in row order
    # The singletons "b" come last: of length 1, and last in row order.
    return a_map, b_map, [b for _, b in b_rows] + list(range(b0, delta.total_b))
