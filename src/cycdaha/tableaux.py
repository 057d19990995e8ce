"""Partitions, standard Young tableaux, Kostka polynomials via the charge
statistic, and symmetric-group characters for the Molien-series cross-check.

Series are truncated int lists, low degree first: products go through
scalars.poly_mul, and a factor 1/(1 - t^k) is a running sum with stride k.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .scalars import poly_mul


def partitions(n, max_part=None):
    """All partitions of n (weakly decreasing tuples)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def content_sum(shape):
    """Sum of j - i over cells (i, j) of the diagram, 0-indexed."""
    return sum(j - i for i, row in enumerate(shape) for j in range(row))


def standard_tableaux(shape):
    """All standard Young tableaux of the given shape, entries 1..n."""
    n = sum(shape)
    rows = len(shape)

    def backtrack(filling, counts, value):
        if value > n:
            yield [list(r) for r in filling]
            return
        for r in range(rows):
            c = counts[r]
            if c >= shape[r]:
                continue
            if r > 0 and counts[r - 1] <= c:
                continue
            filling[r].append(value)
            counts[r] += 1
            yield from backtrack(filling, counts, value + 1)
            filling[r].pop()
            counts[r] -= 1

    return list(backtrack([[] for _ in range(rows)], [0] * rows, 1))


def charge_of_word(word):
    """Lascoux-Schutzenberger charge of a standard word (a permutation)."""
    pos = {v: i for i, v in enumerate(word)}
    n = len(word)
    index = 0
    total = 0
    for v in range(2, n + 1):
        if pos[v] < pos[v - 1]:
            index += 1
        total += index
    return total


def reading_word(tableau):
    """Row reading word, bottom row first."""
    out = []
    for row in reversed(tableau):
        out.extend(row)
    return out


def kostka_polynomial(shape):
    """K_shape(t) = sum over SYT of t^charge, as low-first int coefficients.

    This is the t-analogue of the multiplicity of the Specht module in the
    coinvariant algebra (Kostka-Foulkes polynomial at weight 1^n).
    """
    n = sum(shape)
    coeffs = [0] * (n * (n - 1) // 2 + 1)
    for tab in standard_tableaux(shape):
        coeffs[charge_of_word(reading_word(tab))] += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [0]


# ---------------------------------------------------------------------------
# characters of S_n (Murnaghan-Nakayama)

def _remove_border_strip(shape, length):
    """All (new_shape, height) after removing a border strip of the given
    length, via beta-numbers: with B = {shape_i + r - i}, a removable
    k-strip is b in B with b - k >= 0 and b - k not in B; its height is the
    number of elements of B strictly between b - k and b."""
    r = len(shape)
    beta = [shape[i] + (r - 1 - i) for i in range(r)]
    bset = set(beta)
    out = []
    for b in beta:
        nb = b - length
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((bset - {b}) | {nb}, reverse=True)
        new_shape = tuple(
            new_beta[i] - (r - 1 - i) for i in range(r)
        )
        new_shape = tuple(x for x in new_shape if x > 0)
        out.append((new_shape, height))
    return out


@lru_cache(maxsize=None)
def character_value(shape, cycle_type):
    """chi^shape(cycle_type) by the Murnaghan-Nakayama rule."""
    if not shape and not cycle_type:
        return 1
    if not shape or not cycle_type:
        return 0
    k = cycle_type[0]
    rest = cycle_type[1:]
    total = 0
    for new_shape, ht in _remove_border_strip(shape, k):
        total += (-1) ** ht * character_value(new_shape, rest)
    return total


def cycle_types_with_sizes(n):
    """(cycle_type, class size) pairs for S_n."""
    out = []
    for ct in partitions(n):
        # class size = n! / (prod parts * prod multiplicities!)
        denom = 1
        mult = {}
        for p in ct:
            denom *= p
            mult[p] = mult.get(p, 0) + 1
        for m in mult.values():
            denom *= math.factorial(m)
        out.append((ct, math.factorial(n) // denom))
    return out


def _geometric_product(lengths, truncation):
    """prod_k 1/(1 - t^k) over the given lengths, truncated: dividing by
    1 - t^k is the running sum series[i] += series[i - k]."""
    series = [1] + [0] * truncation
    for k in lengths:
        for i in range(k, truncation + 1):
            series[i] += series[i - k]
    return series


def molien_series(shape, truncation):
    """Graded multiplicity of the Specht module `shape` in C[X_1..X_n],
    via character averaging: (1/n!) sum_w chi(w) / prod_cycles (1 - t^len).

    Returns low-first integer coefficients up to the truncation order.
    An independent oracle for kostka_polynomial / invariants products.
    """
    n = sum(shape)
    total = [0] * (truncation + 1)
    for ct, size in cycle_types_with_sizes(n):
        chi = character_value(shape, ct)
        if chi:
            for i, c in enumerate(_geometric_product(ct, truncation)):
                total[i] += chi * size * c
    out = []
    for c in total:
        v, r = divmod(c, math.factorial(n))
        if r:
            raise ArithmeticError("Molien series has non-integer coefficient")
        out.append(v)
    return out


def invariants_series(n, truncation):
    """Hilbert series of C[X_1..X_n]^{S_n} = 1/prod(1-t^i), truncated."""
    return _geometric_product(range(1, n + 1), truncation)


def series_mul(a, b, truncation):
    out = poly_mul(a[: truncation + 1], b[: truncation + 1])[: truncation + 1]
    return out + [0] * (truncation + 1 - len(out))
