"""Finite possibility spaces, gambles, and permutation symmetry.

A gamble is an exact rational-valued map on a finite domain: either a
space of sequences over a fixed category alphabet, or the space of count
vectors those sequences induce.  Permutation invariance is handled through
count vectors and atoms rather than by touching the N! permutations
individually: the symmetrization of a gamble is constant on each atom, and
that constant is a hypergeometric average that only needs one pass over
the atom.

All types are immutable and hashable; every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Union

Sequence = tuple[str, ...]
Counts = tuple[int, ...]
Point = Union[Sequence, Counts]
RationalLike = Union[int, Fraction]

MAX_VALUES = 2**20
"""Most values one enumeration may materialize: the points of a space, or
the entries of the symmetrization kernel basis.  Larger inputs are
refused up front instead of exhausting memory."""


class SpaceTooLargeError(ValueError):
    """Raised before materializing more than MAX_VALUES values."""


def _check_budget(values: int, what: str) -> None:
    if values > MAX_VALUES:
        raise SpaceTooLargeError(
            f"{what} would take {values} values, over the budget of {MAX_VALUES}"
        )


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _check_categories(categories: tuple[str, ...]) -> None:
    if not categories:
        raise ValueError("a space needs at least one category")
    if len(set(categories)) != len(categories):
        raise ValueError("category labels must be distinct")
    for label in categories:
        if not isinstance(label, str) or not label:
            raise ValueError("category labels must be non-empty strings")


@dataclass(frozen=True)
class SequenceSpace:
    """All length-N sequences over an ordered category alphabet.

    Points are enumerated lexicographically in the declared category
    order; every vector representation of a gamble follows that order.
    """

    categories: tuple[str, ...]
    length: int

    def __post_init__(self) -> None:
        _check_categories(self.categories)
        if self.length < 1:
            raise ValueError("sequence length must be at least 1")

    @property
    def size(self) -> int:
        return len(self.categories) ** self.length

    def points(self) -> tuple[Sequence, ...]:
        return _sequence_points(self)

    def index(self, point: Sequence) -> int:
        try:
            return _point_index(self)[point]
        except KeyError:
            raise KeyError(f"{point!r} is not a point of {self}") from None

    def count_space(self) -> CountSpace:
        return CountSpace(self.categories, self.length)


@dataclass(frozen=True)
class CountSpace:
    """All count vectors with a given total over an ordered alphabet.

    A count vector lists, per category, how many coordinates of a
    sequence carry that category.  Points are enumerated in decreasing
    lexicographic order, so the vector putting the whole total on the
    first category comes first.  A total of zero is allowed; the space
    then holds the single all-zero vector.
    """

    categories: tuple[str, ...]
    total: int

    def __post_init__(self) -> None:
        _check_categories(self.categories)
        if self.total < 0:
            raise ValueError("count total must be nonnegative")

    @property
    def size(self) -> int:
        k = len(self.categories)
        return math.comb(self.total + k - 1, k - 1)

    def points(self) -> tuple[Counts, ...]:
        return _count_points(self)

    def index(self, point: Counts) -> int:
        try:
            return _point_index(self)[point]
        except KeyError:
            raise KeyError(f"{point!r} is not a point of {self}") from None

    def sequence_space(self) -> SequenceSpace:
        if self.total < 1:
            raise ValueError("no sequence space for a zero total")
        return SequenceSpace(self.categories, self.total)


Space = Union[SequenceSpace, CountSpace]


@lru_cache(maxsize=None)
def _sequence_points(space: SequenceSpace) -> tuple[Sequence, ...]:
    _check_budget(
        space.size,
        f"the length-{space.length} sequences over {len(space.categories)} categories",
    )
    return tuple(itertools.product(space.categories, repeat=space.length))


@lru_cache(maxsize=None)
def count_compositions(total: int, parts: int) -> tuple[Counts, ...]:
    """All ways to split a total over a fixed number of nonnegative parts.

    Enumerated in decreasing lexicographic order, matching the point
    order of every count space with the same shape.
    """
    if parts < 1:
        raise ValueError("need at least one part")
    if total < 0:
        raise ValueError("total must be nonnegative")
    _check_budget(
        math.comb(total + parts - 1, parts - 1),
        f"the splits of {total} over {parts} parts",
    )

    def gen(remaining: int, slots: int) -> Iterator[Counts]:
        if slots == 1:
            yield (remaining,)
            return
        for first in range(remaining, -1, -1):
            for rest in gen(remaining - first, slots - 1):
                yield (first,) + rest

    return tuple(gen(total, parts))


@lru_cache(maxsize=None)
def _count_points(space: CountSpace) -> tuple[Counts, ...]:
    return count_compositions(space.total, len(space.categories))


@lru_cache(maxsize=None)
def _point_index(space: Space) -> dict[Point, int]:
    return {point: i for i, point in enumerate(space.points())}


@lru_cache(maxsize=None)
def _atom_slices(space: SequenceSpace) -> dict[Counts, tuple[int, ...]]:
    """Indices of each invariant atom, grouped by count vector.

    Sequences are enumerated lexicographically, so the first index in
    each group is the atom's lexicographically smallest member, which
    serves as its canonical representative.
    """
    groups: dict[Counts, list[int]] = {}
    for i, x in enumerate(space.points()):
        groups.setdefault(count_vector(x, space.categories), []).append(i)
    return {m: tuple(ixs) for m, ixs in groups.items()}


@dataclass(frozen=True, slots=True)
class Gamble:
    """An exact rational-valued map on a finite space.

    Values are stored as a tuple aligned with the space's enumeration
    order.  Equality is pointwise exact equality.  Addition, subtraction,
    negation, scaling by a rational, and pointwise multiplication are all
    supported and always produce a gamble on the same space.
    """

    space: Space
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.space.size:
            raise ValueError(
                f"expected {self.space.size} values, got {len(self.values)}"
            )

    # -- constructors ------------------------------------------------

    @classmethod
    def from_mapping(cls, space: Space, mapping: Mapping[Point, RationalLike]) -> Gamble:
        """Build a gamble from a total point-to-value mapping."""
        index = _point_index(space)
        unknown = [p for p in mapping if p not in index]
        if unknown:
            raise KeyError(f"{unknown[0]!r} is not a point of {space}")
        if len(mapping) != space.size:
            missing = next(p for p in space.points() if p not in mapping)
            raise KeyError(f"mapping misses the point {missing!r}")
        values = [Fraction(0)] * space.size
        for point, value in mapping.items():
            values[index[point]] = _as_fraction(value)
        return cls(space, tuple(values))

    @classmethod
    def from_function(cls, space: Space, fn: Callable[[Point], RationalLike]) -> Gamble:
        return cls(space, tuple(_as_fraction(fn(p)) for p in space.points()))

    @classmethod
    def constant(cls, space: Space, value: RationalLike) -> Gamble:
        return cls(space, (_as_fraction(value),) * space.size)

    @classmethod
    def zero(cls, space: Space) -> Gamble:
        return cls.constant(space, 0)

    @classmethod
    def unit(cls, space: Space) -> Gamble:
        return cls.constant(space, 1)

    @classmethod
    def indicator(cls, space: Space, points: Iterable[Point]) -> Gamble:
        """The gamble worth 1 on the given points and 0 elsewhere."""
        index = _point_index(space)
        values = [Fraction(0)] * space.size
        for point in points:
            try:
                values[index[point]] = Fraction(1)
            except KeyError:
                raise KeyError(f"{point!r} is not a point of {space}") from None
        return cls(space, tuple(values))

    # -- point access ------------------------------------------------

    def __getitem__(self, point: Point) -> Fraction:
        return self.values[self.space.index(point)]

    def items(self) -> Iterator[tuple[Point, Fraction]]:
        return zip(self.space.points(), self.values)

    # -- arithmetic --------------------------------------------------

    def _same_space(self, other: Gamble) -> None:
        if self.space != other.space:
            raise ValueError("gambles live on different spaces")

    def __add__(self, other: Gamble) -> Gamble:
        self._same_space(other)
        return Gamble(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: Gamble) -> Gamble:
        self._same_space(other)
        return Gamble(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> Gamble:
        return Gamble(self.space, tuple(-a for a in self.values))

    def __mul__(self, other: Union[Gamble, RationalLike]) -> Gamble:
        if isinstance(other, Gamble):
            self._same_space(other)
            return Gamble(
                self.space, tuple(a * b for a, b in zip(self.values, other.values))
            )
        c = _as_fraction(other)
        return Gamble(self.space, tuple(c * a for a in self.values))

    def __rmul__(self, other: RationalLike) -> Gamble:
        return self.__mul__(other)

    def shift(self, amount: RationalLike) -> Gamble:
        """Add a constant to every value."""
        c = _as_fraction(amount)
        return Gamble(self.space, tuple(a + c for a in self.values))

    # -- predicates and bounds ----------------------------------------

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.values)

    def is_nonnegative(self) -> bool:
        return all(a >= 0 for a in self.values)

    def is_nonpositive(self) -> bool:
        return all(a <= 0 for a in self.values)

    def min_value(self) -> Fraction:
        return min(self.values)

    def max_value(self) -> Fraction:
        return max(self.values)


@dataclass(frozen=True)
class Permutation:
    """A bijection of coordinate slots 1..N, stored zero-based.

    ``images[k]`` names the slot whose symbol lands in position k when
    the permutation rearranges a sequence.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images must be a bijection of 0..N-1")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    @classmethod
    def swap(cls, n: int, i: int, j: int) -> Permutation:
        """Transposition of slots i and j (zero-based) in 0..n-1."""
        images = list(range(n))
        images[i], images[j] = images[j], images[i]
        return cls(tuple(images))

    def __len__(self) -> int:
        return len(self.images)

    def apply(self, x: Sequence) -> Sequence:
        if len(x) != len(self.images):
            raise ValueError("sequence length does not match the permutation")
        return tuple(x[k] for k in self.images)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images):
            inv[v] = k
        return Permutation(tuple(inv))

    def compose(self, other: Permutation) -> Permutation:
        """The permutation acting as self after other."""
        if len(self.images) != len(other.images):
            raise ValueError("permutations act on different lengths")
        return Permutation(tuple(other.images[k] for k in self.images))


def count_vector(x: Sequence, categories: tuple[str, ...]) -> Counts:
    """Count, per category, how often it occurs in the sequence."""
    position = {z: i for i, z in enumerate(categories)}
    counts = [0] * len(categories)
    for symbol in x:
        try:
            counts[position[symbol]] += 1
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is outside the alphabet") from None
    return tuple(counts)


def atom_size(m: Counts) -> int:
    """How many sequences share the count vector m: a multinomial coefficient."""
    if any(c < 0 for c in m):
        raise ValueError("counts must be nonnegative")
    total = sum(m)
    size = 1
    remaining = total
    for c in m:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def atom_members(space: SequenceSpace, m: Counts) -> tuple[Sequence, ...]:
    """All sequences in the space sharing the count vector m, in order."""
    slices = _atom_slices(space)
    if m not in slices:
        raise KeyError(f"{m!r} is not a count vector of {space}")
    points = space.points()
    return tuple(points[i] for i in slices[m])


def permute_gamble(p: Permutation, f: Gamble) -> Gamble:
    """Pull the gamble back along the permutation: result(x) = f(p(x))."""
    space = f.space
    if not isinstance(space, SequenceSpace):
        raise TypeError("permutations act on sequence gambles")
    if space.length != len(p):
        raise ValueError("permutation length does not match the space")
    return Gamble(space, tuple(f.values[space.index(p.apply(x))] for x in space.points()))


def hypgeo_expectation(f: Gamble, m: Counts) -> Fraction:
    """Average of the gamble over the atom of the count vector m."""
    return count_representation(f)[m]


def count_representation(f: Gamble) -> Gamble:
    """Condense a sequence gamble to its atom averages on the count space.

    The result assigns to each count vector the average of f over that
    vector's atom.  Together with lift_count_gamble this is one half of
    an exact correspondence: condensing a lifted gamble gives it back,
    and lifting a condensed gamble symmetrizes the original.
    """
    space = f.space
    if not isinstance(space, SequenceSpace):
        raise TypeError("count representation needs a sequence gamble")
    slices = _atom_slices(space)
    counts = space.count_space()
    values = []
    for m in counts.points():
        ixs = slices[m]
        values.append(sum(f.values[i] for i in ixs) / len(ixs))
    return Gamble(counts, tuple(values))


def lift_count_gamble(g: Gamble) -> Gamble:
    """Spread a count gamble over sequences: result(x) = g(counts of x)."""
    space = g.space
    if not isinstance(space, CountSpace):
        raise TypeError("lifting needs a count gamble")
    seq_space = space.sequence_space()
    index = _point_index(space)
    values = tuple(
        g.values[index[count_vector(x, space.categories)]] for x in seq_space.points()
    )
    return Gamble(seq_space, values)


def project_ex(f: Gamble) -> Gamble:
    """Symmetrize a sequence gamble: the average over all permuted copies.

    Computed atom by atom, never by running through the permutations:
    on each atom the symmetrized gamble is constant, equal to the atom
    average.
    """
    return lift_count_gamble(count_representation(f))


def cylindrical_extend(f: Gamble, length: int) -> Gamble:
    """Extend a sequence gamble to longer sequences, ignoring the tail."""
    space = f.space
    if not isinstance(space, SequenceSpace):
        raise TypeError("cylindrical extension needs a sequence gamble")
    if length < space.length:
        raise ValueError("cannot extend to a shorter length")
    if length == space.length:
        return f
    target = SequenceSpace(space.categories, length)
    return Gamble(
        target,
        tuple(f.values[space.index(x[: space.length])] for x in target.points()),
    )


def kernel_basis(space: SequenceSpace) -> list[Gamble]:
    """A basis of the gambles that symmetrize to zero.

    For each atom, fix its lexicographically smallest sequence as the
    canonical representative and take the difference of point masses
    between every other member and the representative.  The resulting
    family is linearly independent and spans the kernel of the
    symmetrization projection; its size is the number of sequences minus
    the number of count vectors.
    """
    _check_budget(
        space.size * (space.size - space.count_space().size),
        f"the kernel basis of length-{space.length} sequences "
        f"over {len(space.categories)} categories",
    )
    basis: list[Gamble] = []
    points = space.points()
    for ixs in _atom_slices(space).values():
        rep = points[ixs[0]]
        for i in ixs[1:]:
            delta = Gamble.indicator(space, [points[i]]) - Gamble.indicator(space, [rep])
            basis.append(delta)
    return basis


def kernel_coordinates(f: Gamble) -> tuple[Fraction, ...]:
    """Coordinates, in kernel_basis order, of a gamble that symmetrizes to zero.

    Such a gamble sums to zero on every atom, so its coordinate on the
    basis gamble of a non-representative member is its value there.
    Raises ValueError when the gamble does not symmetrize to zero.
    """
    space = f.space
    if not isinstance(space, SequenceSpace):
        raise TypeError("kernel coordinates need a sequence gamble")
    coordinates: list[Fraction] = []
    for ixs in _atom_slices(space).values():
        if sum(f.values[i] for i in ixs) != 0:
            raise ValueError("the gamble does not symmetrize to zero")
        coordinates.extend(f.values[i] for i in ixs[1:])
    return tuple(coordinates)
