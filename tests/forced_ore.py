"""Ore extensions forced past the extension conditions, to make the axiom sweeps on H fail.

``sign_flipped_sweedler`` is Sweedler's algebra with S(x) = +S(g) x, the
opposite sign of the extended antipode.  ``forced_section5`` is the
section-5 M_2(QZ_2) data with q = 3/5, -7/2 (scales -35/6 and -6/35 in
sigma) and one perturbation, extended without the conditions:
``"delta"`` adds 3/5 to the (7, 6) entry of delta, ``"g"`` adds 3/5 E22 to
g.  Both make shared sweeps fail with sides that have denominators.
"""

from fractions import Fraction

from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation
from weakhopf.linalg import Matrix
from weakhopf.ore import OreAlgebra

FORCED_SECTION5 = ("delta", "g")


def sign_flipped_sweedler():
    data = sweedler_data()
    bad = OreAlgebra(data.R, data.sigma, data.delta, data.g,
                     _coalgebra_extended=True, _antipode_extended=True)
    bad._s_x = bad.multiply(bad.embed(data.R.antipode.apply(data.g)), bad.x())
    return bad


def forced_section5(which):
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2, rho=[1, -1],
                                   q=[Fraction(3, 5), Fraction(-7, 2)])
    delta, g = data.delta, data.g
    if which == "delta":
        delta = Matrix(delta.field, delta.rows, delta.cols,
                       {**delta.data, (7, 6): delta.data.get((7, 6), 0) + Fraction(3, 5)})
    else:
        g = {**g, 3: g.get(3, 0) + Fraction(3, 5)}
    return OreAlgebra(data.R, data.sigma, delta, g, _coalgebra_extended=True)
