"""Ready-made extension data: the worked examples of the ``example`` subcommand.

The Sweedler-type extension data over kZ_2, and the twisted-functional
family delta = (1 - g) tau_alpha^l over M_n(kG).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bialgebra import WeakHopfAlgebra
from .errors import ValidationError
from .fields import Field
from .groupoid import GroupPresentation, build_groupoid_algebra, group_algebra
from .grouplike import winding
from .linalg import Matrix
from .panov import build_twisted_derivation, groupoid_character, solve_alpha


@dataclass
class OreData:
    """Extension data (R, sigma, delta, g) plus the character it encodes."""

    R: WeakHopfAlgebra
    sigma: Matrix
    delta: Matrix
    g: dict
    chi: dict


def sweedler_data() -> OreData:
    """QZ_2 with sigma(t) = -t, delta = 0, g = t.

    The extension QZ_2[x; sigma] is the classical smallest example: x is
    (t,1)-primitive, S(x) = -tx.
    """
    R = group_algebra(GroupPresentation.cyclic(2))
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


def twisted_derivation_data(group: GroupPresentation, n: int, rho, q,
                            field: Field | None = None) -> TwistedDerivationData:
    """Build (M_n(kG), tau_chi^l, (1-g) tau_alpha^l, g) from character data.

    g is the group element of index 1 (it must be central); alpha is the
    first vector of the solver's basis and may be absent, in which case
    delta = 0.
    """
    ga = build_groupoid_algebra(group, n, field)
    if group.order < 2:
        raise ValidationError("group has no element of index 1")
    if 1 not in group.center():
        raise ValidationError(f"group element {group.labels[1]} is not central")
    chi = groupoid_character(ga, rho, q)
    sigma = winding(ga, chi, "left")
    g = ga.central_grouplike(1)
    alpha_basis = solve_alpha(ga, chi)
    if alpha_basis:
        alpha = alpha_basis[0]
        delta = build_twisted_derivation(ga, g, sigma, alpha)
    else:
        alpha = None
        delta = Matrix.zero(ga.field, ga.dim, ga.dim)
    return TwistedDerivationData(ga, sigma, delta, g, chi,
                                 rho=list(rho), q=list(q),
                                 alpha_basis=alpha_basis, alpha=alpha)
