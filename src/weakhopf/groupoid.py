"""Connected groupoid algebras M_n(kG) and the finite groups behind them.

A connected groupoid with n objects and vertex group G has groupoid algebra
M_n(kG): basis g E_ij, products (g E_ij)(h E_st) = [j = s] gh E_it,
coproduct g E_ij -> g E_ij (x) g E_ij, counit 1, antipode g E_ij -> g^-1 E_ji.
The pair (G, n) is taken as input directly.
"""

from __future__ import annotations

import itertools

from .bialgebra import DIM_LIMIT, WeakHopfAlgebra
from .errors import TooLarge, ValidationError
from .fields import Field
from .linalg import Matrix

# The largest group order a presentation may have: its associativity check
# is O(order^3), 0.81 s at Z200.  S5 (120) is admitted, S6 (720) refused.
GROUP_ORDER_LIMIT = 200


def _refuse_order(order):
    if order > GROUP_ORDER_LIMIT:
        raise TooLarge(f"a group of order {order} exceeds the limit {GROUP_ORDER_LIMIT}")


class GroupPresentation:
    """A finite group as a multiplication table (identity at index 0)."""

    __slots__ = ("order", "table", "inverse", "labels", "name")

    def __init__(self, table, labels=None, name="G"):
        _refuse_order(len(table))
        self.order = len(table)
        self.table = tuple(tuple(row) for row in table)
        self.labels = tuple(labels) if labels else tuple(f"g{i}" for i in range(self.order))
        self.name = name
        if self.order < 1 or any(len(row) != self.order for row in self.table):
            raise ValidationError("group table must be square and nonempty")
        for i in range(self.order):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValidationError("index 0 must be the group identity")
        for i in range(self.order):
            for j in range(self.order):
                for k in range(self.order):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValidationError(f"group table not associative at ({i},{j},{k})")
        inverse = []
        for i in range(self.order):
            inv = [j for j in range(self.order) if self.table[i][j] == 0 and self.table[j][i] == 0]
            if len(inv) != 1:
                raise ValidationError(f"element {i} has no two-sided inverse")
            inverse.append(inv[0])
        self.inverse = tuple(inverse)

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self.inverse[i]

    def center(self):
        return [i for i in range(self.order)
                if all(self.table[i][j] == self.table[j][i] for j in range(self.order))]

    @classmethod
    def trivial(cls):
        return cls([[0]], labels=["1"], name="1")

    @classmethod
    def cyclic(cls, m):
        if m < 1:
            raise ValidationError("cyclic group order must be positive")
        _refuse_order(m)
        labels = ["1"] + (["t"] if m > 1 else []) + [f"t^{k}" for k in range(2, m)]
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        return cls(table, labels=labels, name=f"Z{m}")

    @classmethod
    def symmetric(cls, n):
        order = 1
        for k in range(2, n + 1):  # n!, stopping once past the limit
            order *= k
            _refuse_order(order)
        perms = sorted(itertools.permutations(range(n)))

        def compose(p, q):
            # apply p first, then q
            return tuple(q[p[i]] for i in range(n))

        identity = tuple(range(n))
        perms = [identity] + [p for p in perms if p != identity]
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[compose(p, q)] for q in perms] for p in perms]
        return cls(table, labels=[_cycle_label(p) for p in perms], name=f"S{n}")


def _cycle_label(perm):
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        cycles.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "e"


class GroupoidAlgebra(WeakHopfAlgebra):
    """The weak Hopf algebra M_n(kG), with basis bookkeeping for (g, i, j)."""

    def __init__(self, field, dim, mult, unit, comult, counit, antipode, labels, group, n):
        super().__init__(field, dim, mult, unit, comult, counit, antipode, labels)
        self.group = group
        self.n = n

    def basis_index(self, g, i, j):
        """Index of g E_{i+1,j+1} (g a group index, i, j zero-based)."""
        return (g * self.n + i) * self.n + j

    def diagonal_unit_indices(self):
        """Indices of the idempotents E_ii (identity group element)."""
        return [self.basis_index(0, i, i) for i in range(self.n)]

    def central_grouplike(self, g) -> dict:
        """The element g * 1 = sum_i g E_ii for a group index g."""
        one = self.field.one()
        return {self.basis_index(g, i, i): one for i in range(self.n)}


def _groupoid_label(group, g, i, j, n):
    if n == 1:
        return group.labels[g]
    e_part = f"E{i + 1}{j + 1}"
    return e_part if g == 0 else f"{group.labels[g]}{e_part}"


def build_groupoid_algebra(group: GroupPresentation, n: int,
                           field: Field | None = None) -> GroupoidAlgebra:
    """Construct M_n(kG), its weak Hopf algebra axioms validated once.

    That it is M_n(k) (x) kG under g E_ij -> E_ij (x) g is a property of
    this constructor, checked in the test suite rather than per instance.
    """
    if n < 1:
        raise ValidationError("matrix size must be at least 1")
    field = field or Field.rationals()
    m = group.order
    dim = m * n * n
    if dim > DIM_LIMIT:
        raise TooLarge(f"M_{n}(k{group.name}) has dimension {dim}, more than {DIM_LIMIT}")

    def idx(g, i, j):
        return (g * n + i) * n + j

    labels = [_groupoid_label(group, g, i, j, n)
              for g in range(m) for i in range(n) for j in range(n)]
    one = field.one()
    mult = {}
    for g in range(m):
        for h in range(m):
            gh = group.mul(g, h)
            for i in range(n):
                for j in range(n):
                    for s in range(n):
                        for t in range(n):
                            key = (idx(g, i, j), idx(h, s, t))
                            if j == s:
                                mult[key] = {idx(gh, i, t): one}
    unit = {idx(0, i, i): one for i in range(n)}
    comult = {k: {(k, k): one} for k in range(dim)}
    counit = {k: one for k in range(dim)}
    antipode = Matrix(field, dim, dim,
                      {(idx(group.inv(g), j, i), idx(g, i, j)): one
                       for g in range(m) for i in range(n) for j in range(n)})

    return GroupoidAlgebra(field, dim, mult, unit, comult, counit, antipode, labels, group, n)


def matrix_algebra(n: int, field: Field | None = None) -> GroupoidAlgebra:
    """M_n(k) with basis E_ij, as the groupoid algebra of the pair groupoid."""
    return build_groupoid_algebra(GroupPresentation.trivial(), n, field)


def group_algebra(group: GroupPresentation, field: Field | None = None) -> GroupoidAlgebra:
    """The group algebra kG (an ordinary Hopf algebra; n = 1)."""
    return build_groupoid_algebra(group, 1, field)
