"""Exact arithmetic on count vectors and Bernstein coefficients, independent of desir.

The benchmark builds its inputs and re-checks desir's certificates with
these helpers, so that a defect in desir's own enumeration or degree
raising cannot hide in the check.  Gambles are plain dicts from points
(category sequences or count tuples) to Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every count vector with the given total over the given number of parts."""
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total, -1, -1)
        for rest in compositions(total - first, parts - 1)
    ]


def sequences(categories: tuple[str, ...], length: int) -> list[tuple[str, ...]]:
    return list(itertools.product(categories, repeat=length))


def counts_of(x: tuple[str, ...], categories: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(x.count(c) for c in categories)


def multinomial(m: tuple[int, ...]) -> int:
    result = math.factorial(sum(m))
    for c in m:
        result //= math.factorial(c)
    return result


def atom_averages(f: dict, categories: tuple[str, ...]) -> dict:
    """Average of a sequence gamble over each count vector's sequences."""
    sums: dict = {}
    sizes: dict = {}
    for x, v in f.items():
        m = counts_of(x, categories)
        sums[m] = sums.get(m, 0) + v
        sizes[m] = sizes.get(m, 0) + 1
    return {m: Fraction(sums[m], sizes[m]) for m in sums}


def lift(coefficients: dict, categories: tuple[str, ...], length: int) -> dict:
    """The sequence gamble whose value on x is the coefficient at x's counts."""
    return {x: coefficients[counts_of(x, categories)] for x in sequences(categories, length)}


def raise_once(b: dict, k: int) -> dict:
    """Bernstein coefficients one degree up: b'_m = sum_i m_i/(n+1) * b_{m - e_i}."""
    n1 = sum(next(iter(b))) + 1
    out = {}
    for m in compositions(n1, k):
        acc = Fraction(0)
        for i, c in enumerate(m):
            if c:
                acc += Fraction(c, n1) * b[m[:i] + (c - 1,) + m[i + 1:]]
        out[m] = acc
    return out


def raise_to(b: dict, degree: int) -> dict:
    k = len(next(iter(b)))
    while sum(next(iter(b))) < degree:
        b = raise_once(b, k)
    return b


def evaluate(b: dict, theta: tuple[Fraction, ...]) -> Fraction:
    """Value at a simplex point of the polynomial with Bernstein coefficients b."""
    total = Fraction(0)
    for m, coeff in b.items():
        if coeff:
            term = Fraction(multinomial(m)) * coeff
            for c, t in zip(m, theta):
                term *= t**c
            total += term
    return total


def times_basis(observed: tuple[int, ...], b: dict) -> dict:
    """Coefficients of B_observed * p, where b holds p's coefficients.

    B_o * B_m = C(o) C(m) / C(o + m) * B_{o+m}, with C the multinomial
    coefficient; points of the product's degree that dominate no m get 0.
    """
    k = len(observed)
    degree = sum(next(iter(b))) + sum(observed)
    out = {m: Fraction(0) for m in compositions(degree, k)}
    for m, coeff in b.items():
        big = tuple(a + o for a, o in zip(m, observed))
        out[big] = Fraction(multinomial(observed) * multinomial(m), multinomial(big)) * coeff
    return out

