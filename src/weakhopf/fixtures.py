"""Ready-made instances: matrix algebras, group algebras, and extension data.

These are the worked examples the rest of the package is exercised on:
M_n(k), kZ_m, M_n(kZ_m), the Sweedler-type extension data over kZ_2, the
twisted-functional family delta = (1 - g) tau_alpha^l, a non-cocommutative
function algebra on a nonabelian group, and a small characteristic-p Hopf
algebra with a primitive generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bialgebra import Algebra, Coalgebra, WeakHopfAlgebra
from .errors import ValidationError
from .fields import Field
from .groupoid import (GroupPresentation, GroupoidAlgebra, build_groupoid_algebra,
                       group_algebra, matrix_algebra)
from .grouplike import winding
from .linalg import Matrix
from .panov import build_twisted_derivation, groupoid_character, solve_alpha


def m2q() -> GroupoidAlgebra:
    """M_2(Q) with S(E_ij) = E_ji."""
    return matrix_algebra(2)


def qz(m: int, field: Field | None = None) -> GroupoidAlgebra:
    """The group algebra kZ_m."""
    return group_algebra(GroupPresentation.cyclic(m), field)


def m2qz2(field: Field | None = None) -> GroupoidAlgebra:
    """M_2(QZ_2), the smallest groupoid algebra with both factors nontrivial."""
    return build_groupoid_algebra(GroupPresentation.cyclic(2), 2, field)


@dataclass
class OreData:
    """Extension data (R, sigma, delta, g) plus the character it encodes."""

    R: WeakHopfAlgebra
    sigma: Matrix
    delta: Matrix
    g: dict
    chi: dict


def sweedler_data(field: Field | None = None) -> OreData:
    """kZ_2 with sigma(t) = -t, delta = 0, g = t.

    The extension kZ_2[x; sigma] is the classical smallest example: x is
    (t,1)-primitive, S(x) = -tx.
    """
    R = qz(2, field)
    chi = {0: R.field.one(), 1: -R.field.one()}
    sigma = winding(R, chi, "left")
    delta = Matrix.zero(R.field, 2, 2)
    g = R.basis_vector(1)
    return OreData(R, sigma, delta, g, chi)


@dataclass
class TwistedDerivationData(OreData):
    """OreData built from a solved twisted functional alpha."""

    rho: list
    q: list
    alpha_basis: list
    alpha: dict | None


def twisted_derivation_data(group: GroupPresentation, n: int, rho, q, g_index: int = 1,
                            field: Field | None = None,
                            alpha_choice: int = 0) -> TwistedDerivationData:
    """Build (M_n(kG), tau_chi^l, (1-g) tau_alpha^l, g) from character data.

    g_index picks the group element (must be central); alpha is taken from
    the solver's basis (alpha_choice-th vector) and may be absent, in which
    case delta = 0.
    """
    ga = build_groupoid_algebra(group, n, field)
    if g_index >= group.order:
        raise ValidationError(f"group has no element of index {g_index}")
    if g_index not in group.center():
        raise ValidationError(f"group element {group.labels[g_index]} is not central")
    chi = groupoid_character(ga, rho, q)
    sigma = winding(ga, chi, "left")
    g = ga.central_grouplike(g_index)
    solution = solve_alpha(ga, chi)
    if solution.basis:
        alpha = solution.basis[alpha_choice]
        delta = build_twisted_derivation(ga, g, chi, alpha)
    else:
        alpha = None
        delta = Matrix.zero(ga.field, ga.dim, ga.dim)
    return TwistedDerivationData(ga, sigma, delta, g, chi,
                                 rho=list(rho), q=list(q),
                                 alpha_basis=solution.basis, alpha=alpha)


def twisted_derivation_qz2() -> TwistedDerivationData:
    """The Z_2, n = 1 instance: chi(t) = -1, delta(t) = t - 1, g = t."""
    field = Field.rationals()
    return twisted_derivation_data(GroupPresentation.cyclic(2), 1,
                                   rho=[field.one(), -field.one()], q=[field.one()])


def function_algebra(group: GroupPresentation, field: Field | None = None) -> WeakHopfAlgebra:
    """Functions on a finite group: pointwise product, Delta(e_g) = sum e_h (x) e_k over hk = g.

    Non-cocommutative exactly when the group is nonabelian.
    """
    field = field or Field.rationals()
    m = group.order
    one = field.one()
    labels = [f"e[{lab}]" for lab in group.labels]
    mult = {(i, i): {i: one} for i in range(m)}
    unit = {i: one for i in range(m)}
    algebra = Algebra(field, m, mult, unit, labels, validate=True)
    comult = {}
    for g in range(m):
        data = {}
        for h in range(m):
            for k in range(m):
                if group.mul(h, k) == g:
                    data[(h, k)] = one
        comult[g] = data
    coalgebra = Coalgebra(field, m, comult, {0: one}, validate=True)
    antipode = Matrix(field, m, m, {(group.inv(g), g): one for g in range(m)})
    return WeakHopfAlgebra(algebra, coalgebra, antipode, validate=True)


def truncated_primitive_hopf(p: int) -> WeakHopfAlgebra:
    """k[z]/(z^p) over GF(p), with z primitive: Delta(z) = 1 (x) z + z (x) 1.

    Finite-dimensional Hopf algebras over characteristic 0 have no nonzero
    primitives, so the primitive-element fixtures live in characteristic p.
    """
    field = Field.prime(p)
    one = field.one()
    labels = ["1"] + (["z"] if p > 1 else []) + [f"z^{k}" for k in range(2, p)]
    mult = {}
    for i in range(p):
        for j in range(p):
            if i + j < p:
                mult[(i, j)] = {i + j: one}
    algebra = Algebra(field, p, mult, {0: one}, labels, validate=True)
    comult = {}
    for k in range(p):
        data = {}
        for i in range(k + 1):
            c = field(math.comb(k, i))
            if c:
                data[(i, k - i)] = c
        comult[k] = data
    coalgebra = Coalgebra(field, p, comult, {0: one}, validate=True)
    antipode = Matrix(field, p, p, {(k, k): field((-1) ** k) for k in range(p)})
    return WeakHopfAlgebra(algebra, coalgebra, antipode, validate=True)
