"""Recursive coproduct reference for the quantum-group action.

This is the construction ``walled_tangles.qgroup`` used before its closed
form: a generator acts on V directly (divided powers of level two or more
vanish), on the dual space through the antipode and a transpose, and on a
tensor product through the comultiplication, applied recursively after
splitting the factors in half.  It never enumerates subsets of factors, so
it is independent of ``qgroup.gen_on_mixed``, which the tests compare
against it.  The divided-power transfer identities (``check_divpowers``)
are checked here too, on the closed-form action.
"""

from __future__ import annotations

from walled_tangles.laurent import ONE, LaurentPoly, ZERO
from walled_tangles.qgroup import E, F, K, QH, UGenerator, _alpha_weight, _validate, word_matrix
from walled_tangles.rep import OperatorMatrix
from walled_tangles.tangle import DOWN, UP, Orientation


def kron(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Tensor product: label tuples concatenate."""
    if a.n != b.n:
        raise ValueError("matrices live over different label counts")
    acc = {}
    for (i1, j1), u in a.entries.items():
        for (i2, j2), v in b.entries.items():
            acc[(i1 + i2, j1 + j2)] = u * v
    return OperatorMatrix(a.n, a.row_type + b.row_type, a.col_type + b.col_type, acc)


def gen_on_V(gen: UGenerator, n: int) -> OperatorMatrix:
    """Matrix of a generator on the vector space V, rows indexing inputs.

    >>> gen_on_V(E(1), 2).entries
    {((2,), (1,)): LaurentPoly('1*q^0')}
    >>> gen_on_V(K(1), 2).entry((1,), (1,))
    LaurentPoly('1*q^1')
    >>> not gen_on_V(E(1, 2), 2).entries
    True
    """
    _validate(gen, n)
    boundary = (DOWN,)
    entries = {}
    if isinstance(gen, E):
        if gen.l == 0:
            return OperatorMatrix.identity(n, boundary)
        if gen.l == 1:
            entries[((gen.i + 1,), (gen.i,))] = ONE
    elif isinstance(gen, F):
        if gen.l == 0:
            return OperatorMatrix.identity(n, boundary)
        if gen.l == 1:
            entries[((gen.i,), (gen.i + 1,))] = ONE
    elif isinstance(gen, K):
        return gen_on_V(_alpha_weight(gen.i, n, gen.sign), n)
    else:
        for j in range(1, n + 1):
            entries[((j,), (j,))] = LaurentPoly.monomial(1, gen.weight[j - 1])
    return OperatorMatrix(n, boundary, boundary, entries)


def _antipode_on_V(gen: UGenerator, n: int) -> OperatorMatrix:
    """Matrix on V of the antipode image of a generator."""
    if isinstance(gen, E):
        if gen.l == 0:
            return OperatorMatrix.identity(n, (DOWN,))
        mat = gen_on_V(_alpha_weight(gen.i, n, gen.l), n).matmul(gen_on_V(gen, n))
        return mat.scaled(LaurentPoly.monomial((-1) ** gen.l, gen.l * (gen.l - 1)))
    if isinstance(gen, F):
        if gen.l == 0:
            return OperatorMatrix.identity(n, (DOWN,))
        mat = gen_on_V(gen, n).matmul(gen_on_V(_alpha_weight(gen.i, n, -gen.l), n))
        return mat.scaled(LaurentPoly.monomial((-1) ** gen.l, -gen.l * (gen.l - 1)))
    if isinstance(gen, K):
        return gen_on_V(K(gen.i, -gen.sign), n)
    return gen_on_V(QH(tuple(-w for w in gen.weight)), n)


def gen_on_Vdual(gen: UGenerator, n: int) -> OperatorMatrix:
    """Matrix of a generator on the dual space, in the dual basis: the
    transpose of the antipode image acting on V.

    >>> gen_on_Vdual(K(1), 2).entry((1,), (1,))
    LaurentPoly('1*q^-1')
    >>> gen_on_Vdual(E(1), 2).entries
    {((1,), (2,)): LaurentPoly('-1*q^-1')}
    """
    _validate(gen, n)
    base = _antipode_on_V(gen, n)
    return OperatorMatrix(n, (UP,), (UP,), {(c, r): v for (r, c), v in base.entries.items()})


def _word_matrix(gens, boundary: tuple[Orientation, ...], n: int) -> OperatorMatrix:
    """Matrix of a product of generators: the rightmost factor acts first."""
    out = OperatorMatrix.identity(n, boundary)
    for gen in reversed(tuple(gens)):
        out = out.matmul(gen_on_mixed(gen, boundary, n))
    return out


def gen_on_mixed(gen: UGenerator, boundary, n: int) -> OperatorMatrix:
    """Matrix of a generator on the tensor space of an oriented boundary,
    built by splitting the factors in half and comultiplying.

    >>> v22 = gen_on_mixed(E(1), (DOWN, DOWN), 2).entries
    >>> v22[((2, 2), (1, 2))], v22[((2, 2), (2, 1))]
    (LaurentPoly('1*q^1'), LaurentPoly('1*q^0'))
    """
    boundary = tuple(boundary)
    _validate(gen, n)
    if isinstance(gen, (E, F)) and gen.l == 0:
        return OperatorMatrix.identity(n, boundary)
    if len(boundary) == 0:
        value = ONE if isinstance(gen, (K, QH)) else ZERO
        return OperatorMatrix(n, (), (), {((), ()): value} if not value.is_zero() else {})
    if len(boundary) == 1:
        if boundary[0] is DOWN:
            return gen_on_V(gen, n)
        return gen_on_Vdual(gen, n)
    mid = len(boundary) // 2
    return _split_action(gen, boundary[:mid], boundary[mid:], n)


def _split_action(
    gen: UGenerator, left: tuple[Orientation, ...], right: tuple[Orientation, ...], n: int
) -> OperatorMatrix:
    """Comultiply one generator across an explicit two-part split."""
    if isinstance(gen, (K, QH)):
        return kron(gen_on_mixed(gen, left, n), gen_on_mixed(gen, right, n))
    i, l = gen.i, gen.l
    total = OperatorMatrix(n, left + right, left + right)
    for k in range(l + 1):
        if isinstance(gen, E):
            coeff = LaurentPoly.monomial(1, k * (l - k))
            left_mat = _word_matrix((E(i, l - k),), left, n)
            right_mat = _word_matrix((_alpha_weight(i, n, k - l), E(i, k)), right, n)
        else:
            coeff = LaurentPoly.monomial(1, -k * (l - k))
            left_mat = _word_matrix((F(i, l - k), _alpha_weight(i, n, k)), left, n)
            right_mat = _word_matrix((F(i, k),), right, n)
        total = total + kron(left_mat, right_mat).scaled(coeff)
    return total


def check_divpowers(i: int, l: int, left, right, n: int) -> tuple[bool, bool]:
    """Verify the two telescoping identities that move a divided power from
    one tensor leg to the other, as exact operator identities of the
    closed-form action on the tensor space of the two boundaries.  Returns
    whether the raising and the lowering identity hold.

    >>> check_divpowers(1, 1, (DOWN,), (DOWN,), 2)
    (True, True)
    """
    if l < 1:
        raise ValueError(f"level must be at least 1, got {l}")
    left = tuple(left)
    right = tuple(right)

    def sign(k: int) -> int:
        return -1 if k % 2 else 1

    def evaluate(terms) -> OperatorMatrix:
        """Sum (coefficient, left word, right word) tensor terms."""
        total = OperatorMatrix(n, left + right, left + right)
        for coeff, left_gens, right_gens in terms:
            term = kron(word_matrix(left_gens, left, n), word_matrix(right_gens, right, n))
            total = total + term.scaled(coeff)
        return total

    raising_lhs = []
    for k in range(l):
        for j in range(l - k + 1):
            coeff = LaurentPoly.monomial(sign(k), k * (l - 1) + j * (l - k - j))
            left_word = (E(i, k), E(i, l - k - j))
            right_word = (_alpha_weight(i, n, j - l), E(i, j))
            raising_lhs.append((coeff, left_word, right_word))
    raising_rhs = [
        (ONE, (), (E(i, l),)),
        (LaurentPoly.monomial(-sign(l), l * (l - 1)), (E(i, l),), (_alpha_weight(i, n, -l),)),
    ]

    lowering_lhs = []
    for k in range(l):
        for j in range(l - k + 1):
            coeff = LaurentPoly.monomial(sign(k), -k * (l - 1) - j * (l - k - j))
            left_word = (F(i, k), F(i, l - k - j), _alpha_weight(i, n, j))
            right_word = (F(i, j),)
            lowering_lhs.append((coeff, left_word, right_word))
    lowering_rhs = [
        (ONE, (_alpha_weight(i, n, l),), (F(i, l),)),
        (LaurentPoly.monomial(-sign(l), -l * (l - 1)), (F(i, l),), ()),
    ]

    return (
        evaluate(raising_lhs) == evaluate(raising_rhs),
        evaluate(lowering_lhs) == evaluate(lowering_rhs),
    )
