"""Dense reference for the commutant dimension.

Builds one dense rational row of n^(2(r+s)) slots for every generator of
the divided-power sweep up to level r + s and every matrix position, Cartan
units included, and eliminates them with a dense fraction-free integer
elimination.  Slow, but independent of the weight blocking, the sparse
eliminator and the level-1 sweep in ``walled_tangles.duality``, which the
tests compare against it.  The generator matrices come from the recursive
coproduct of ``coproduct_oracle``, so the comparison also checks the
closed-form action of ``walled_tangles.qgroup`` end to end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from coproduct_oracle import gen_on_mixed
from walled_tangles.qgroup import E, F, K
from walled_tangles.rep import label_tuples
from walled_tangles.tangle import algebra_type


def divided_power_sweep(n: int, level: int):
    """Cartan units both ways and every divided power up to ``level``.

    On a tensor space of at most ``level`` factors the higher divided powers
    act as zero, so at level r + s this generates the whole integral form
    acting on mixed tensor space, with no appeal to [l]! being invertible.
    """
    gens = []
    for i in range(1, n):
        gens += [K(i, 1), K(i, -1)]
        for l in range(1, level + 1):
            gens += [E(i, l), F(i, l)]
    return tuple(gens)


def _integer_rows(rows):
    """Scale each row to coprime integers, dropping zero rows."""
    out = []
    for row in rows:
        den = 1
        for value in row:
            den = den * value.denominator // gcd(den, value.denominator)
        ints = [int(value * den) for value in row]
        g = 0
        for value in ints:
            g = gcd(g, abs(value))
        if g > 1:
            ints = [value // g for value in ints]
        if any(ints):
            out.append(ints)
    return out


def dense_rank(rows) -> int:
    """Rank over the rationals of dense rows by fraction-free elimination."""
    work = _integer_rows(rows)
    if not work:
        return 0
    width = len(work[0])
    rank = 0
    col = 0
    while work and col < width:
        candidates = [r for r in range(len(work)) if work[r][col]]
        if not candidates:
            col += 1
            continue
        piv = min(candidates, key=lambda r: sum(1 for v in work[r] if v))
        pivot = work.pop(piv)
        pv = pivot[col]
        reduced = []
        for row in work:
            if row[col]:
                f = gcd(abs(row[col]), abs(pv))
                a, b = pv // f, row[col] // f
                row = [a * x - b * y for x, y in zip(row, pivot)]
                g = 0
                for value in row:
                    g = gcd(g, abs(value))
                if g > 1:
                    row = [value // g for value in row]
            if any(row):
                reduced.append(row)
        work = reduced
        rank += 1
        col += 1
    return rank


def dense_rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of dense integer rows, by plain Gaussian elimination
    on the first row holding each column."""
    work = [[value % p for value in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((row for row in work if row[col]), None)
        if pivot is None:
            continue
        work.remove(pivot)
        scale = pow(pivot[col], -1, p)
        work = [[(x - row[col] * scale * y) % p for x, y in zip(row, pivot)] for row in work]
        rank += 1
    return rank


def dense_commutant_dim(n: int, r: int, s: int, q0) -> int:
    """Nullity of [X, A_g] = 0 over all n^(2(r+s)) entries of X."""
    boundary = algebra_type(r, s).top
    labels = list(label_tuples(n, r + s))
    index = {label: t for t, label in enumerate(labels)}
    size = n ** (r + s)
    rows = []
    for gen in divided_power_sweep(n, r + s):
        entries, den = gen_on_mixed(gen, boundary, n).evaluate(q0)
        action = {key: Fraction(value, den) for key, value in entries.items()}
        for i in range(size):
            for j in range(size):
                row = [Fraction(0)] * (size * size)
                for (row_label, col_label), value in action.items():
                    a, b = index[row_label], index[col_label]
                    if b == j:
                        row[i * size + a] += value
                    if a == i:
                        row[b * size + j] -= value
                if any(row):
                    rows.append(row)
    return size * size - dense_rank(rows)
