"""Skew derivations and (g,h)-coderivations.

A (g,h)-coderivation is a linear map delta with
Delta delta = (lambda_g (x) delta + delta (x) lambda_h) Delta, where
lambda_a is left multiplication.  The space of all such delta for fixed
(g, h) is the kernel of :func:`coderivation_residual`, a linear map on
dim^2 unknowns that works on ints: it reads R's integer view and lambda_g
and lambda_h held as ints by :meth:`Field.to_ints`, so its rows enter
:func:`linalg.constraint_matrix` as ints at one scale and are solved exactly
by :func:`linalg.residual_kernel`; only the kernel vectors come back to
field scalars.  Read on the dual algebra R*, whose product is R's
coproduct transposed, delta^T is a twisted derivation, and
:func:`coderivation_space` first solves the rows whose left leg is in a
generating set of R*, keeping that kernel when the full residual passes
every vector of it (lemma L4 there).  The sigma-Leibniz rule is another such residual,
:func:`leibniz_residual`, and :func:`first_failure` reads the witness of
either at a given delta.  Elsewhere elements are dicts index -> scalar.
"""

from __future__ import annotations

from .bialgebra import WeakBialgebra
from .errors import NotAutomorphism, NotDerivation
from .grouplike import is_unital_algebra_endo
from .linalg import (IntegerSystem, Matrix, certified_kernel, constraint_matrix,
                     linear_residual, rank, residual_kernel)


def validate_automorphism(wb: WeakBialgebra, sigma: Matrix):
    """Raise NotAutomorphism unless sigma is a bijective unital algebra map."""
    witness = is_unital_algebra_endo(wb, sigma)
    if witness is not None:
        raise NotAutomorphism(f"sigma is not a unital algebra map (witness {witness})")
    if rank(sigma) != wb.dim:
        raise NotAutomorphism("sigma is not bijective")


def leibniz_residual(wb: WeakBialgebra, sigma: Matrix):
    """The map delta -> delta(b_i b_j) - delta(b_i) b_j - sigma(b_i) delta(b_j) on ints, keyed
    (i, j, u) for the coefficient of b_u, zero exactly on the sigma-derivations.

    On R's integer view (scale D) and sigma as ints at one scale L, it is the
    :func:`linalg.linear_residual` at S = D L whose column r*dim + k (delta(b_k) = b_r)
    holds L c at (i, j, r) for each term c b_k of b_i b_j, -L b_r b_j at (k, j, .)
    and -sigma(b_i) b_r at (i, k, .)."""
    view, keys = wb.integer_view, wb.keys
    L, scols = wb.field.to_ints(sigma.column_dicts())
    reach = [[] for _ in keys]  # the (i, j, L c) for each term c b_k of b_i b_j
    for i in keys:
        for j in keys:
            for k, c in view.product(i, j).items():
                reach[k].append((i, j, c * L))

    def column(rk):
        r, k = divmod(rk, wb.dim)
        return [*(((i, j, r), c) for i, j, c in reach[k]),
                *(((k, j, u), -c * L) for j in keys for u, c in view.product(r, j).items()),
                *(((i, k, u), -x * c) for i in keys for s, x in scols[i].items()
                  for u, c in view.product(s, r).items())]
    return linear_residual(wb.field, column)


def first_failure(residual, delta: Matrix):
    """The smallest key where a linear residual is nonzero at delta, or None; its
    unknowns are delta held as ints by :meth:`Field.to_ints` and flattened as
    X[r*dim + k], the coefficient of b_r in delta(b_k)."""
    dim = delta.cols
    _, (x,) = delta.field.to_ints([{r * dim + k: c for (r, k), c in delta.data.items()}])
    return min(residual(x), default=None)


def is_sigma_derivation(wb: WeakBialgebra, sigma: Matrix, delta: Matrix) -> bool:
    """Leibniz rule delta(ab) = delta(a) b + sigma(a) delta(b) on all basis pairs, and
    delta(1) = 0, which the rule forces."""
    return not delta.apply(wb.unit) and first_failure(leibniz_residual(wb, sigma), delta) is None


def skew_derivation(wb: WeakBialgebra, sigma: Matrix, delta: Matrix):
    """Validate Ore data; raises NotAutomorphism / NotDerivation, whose two sides
    are summed in field scalars at the first pair (i, j) of :func:`leibniz_residual`."""
    validate_automorphism(wb, sigma)
    failure = first_failure(leibniz_residual(wb, sigma), delta)
    if failure is not None:
        i, j, _ = failure
        dcols, scols = delta.column_dicts(), sigma.column_dicts()
        lhs = wb.apply(dcols.__getitem__, wb.product(i, j))
        rhs = wb.add(wb.multiply(dcols[i], {j: wb.one}), wb.multiply(scols[i], dcols[j]))
        raise NotDerivation(i, j, wb.format_element(lhs), wb.format_element(rhs))


def coderivation_residual(wb: WeakBialgebra, lambda_g: Matrix, lambda_h: Matrix, lefts=None):
    """The linear map X -> Delta delta - (lambda_g (x) delta + delta (x) lambda_h) Delta, on ints.

    X is delta as :func:`first_failure` holds it; the residual, keyed (k, u, v)
    for the coefficient of b_u (x) b_v on b_k, vanishes exactly on the
    (g,h)-coderivations when lambda_g and lambda_h, built by the caller, are
    the left multiplications by g and h.  On R's integer view (scale D) and
    their columns held as ints at one scale L by one :meth:`Field.to_ints`
    call, it is the :func:`linalg.linear_residual` at S = D L whose column
    r*dim + k, delta(b_k) = b_r, holds L Delta(b_r) at the keys (k, u, v); for
    each term c b_i (x) b_k of a Delta(b_kk), -c lambda_g(b_i) at (kk, u, r);
    and for each term c b_k (x) b_j of a Delta(b_kk), -c lambda_h(b_j) at (kk, r, v).
    Given ``lefts``, it keeps only the keys (k, u, v) with u in lefts.
    """
    view, dim, field = wb.integer_view, wb.dim, wb.field
    kept = set(wb.keys if lefts is None else lefts)
    L, cols = field.to_ints([*lambda_g.column_dicts(), *lambda_h.column_dicts()])
    gcols, hcols = cols[:dim], cols[dim:]
    coproducts = [[(uv, c * L) for uv, c in view.coproduct(r).items() if uv[0] in kept]
                  for r in wb.keys]
    # the terms of every Delta(b_kk) indexed by the leg b_k that delta meets
    left, right = [[] for _ in wb.keys], [[] for _ in wb.keys]
    for kk in wb.keys:
        for (i, j), c in view.coproduct(kk).items():
            left[j] += [(kk, u, -c * x) for u, x in gcols[i].items() if u in kept]
            right[i] += [(kk, v, -c * x) for v, x in hcols[j].items()]

    def column(rk):
        r, k = divmod(rk, dim)
        return [*(((k, u, v), c) for (u, v), c in coproducts[r]),
                *(((kk, u, r), c) for kk, u, c in left[k]),
                *(((kk, r, v), c) for kk, v, c in (right[k] if r in kept else ()))]
    return linear_residual(field, column)


def coderivation_constraint_matrix(wb: WeakBialgebra, residual) -> IntegerSystem:
    """The linear system of the caller's :func:`coderivation_residual`, one int
    row per distinct row of its keys (k, u, v): its kernel is the space of
    (g,h)-coderivations, or holds it when the residual keeps some keys only."""
    return constraint_matrix(wb.field, wb.dim ** 2, residual)


def coderivation_space(wb: WeakBialgebra, g: dict, h: dict):
    """Basis of all (g,h)-coderivations, as matrices; the entries of the kernel
    vectors are the only field scalars made.

    When the generating keys S* of R* (:attr:`WeakBialgebra.cogenerators`) are
    fewer than dim, only the rows (k, u, v) of :func:`coderivation_residual`
    with u in S* are compiled, and :func:`linalg.certified_kernel` keeps their
    kernel when the full residual passes every vector of it: the restricted
    kernel holds the full one, so the two are then equal, basis for basis.
    Otherwise the full system is solved by :func:`linalg.residual_kernel`,
    which re-checks every vector with the full residual.  So every basis
    vector returned has passed the full residual.

    L4 (when the rows on S* suffice).  In the dual basis phi_k of R*, with
    phi psi (a) = (phi (x) psi) Delta(a), D = delta^T, G = lambda_g^T and
    K = lambda_h^T, the row (k, u, v) is
    D(phi_u phi_v) = G(phi_u) D(phi_v) + D(phi_u) K(phi_v) at b_k, so the
    rows on S* say that S* lies in the subspace N of the phi with
    D(phi psi) = G(phi) D(psi) + D(phi) K(psi) for all psi.  If R is
    coassociative and Delta(g a) = (g (x) g) Delta(a), and likewise for h,
    for all a (so for g = h = 1 and for weak group-likes), then N = R*.
    Proof: R* is associative, and G is an algebra map,
    G(phi psi)(a) = (phi (x) psi)((g (x) g) Delta(a)) = (G(phi) G(psi))(a),
    as is K.  For phi, phi' in N and any psi,
    D(phi phi' psi) = G(phi) D(phi' psi) + D(phi) K(phi' psi)
      = G(phi phi') D(psi) + (G(phi) D(phi') + D(phi) K(phi')) K(psi)
      = G(phi phi') D(psi) + D(phi phi') K(psi),
    so N is closed under products and holds the right-nested words over S*,
    which span R* (:func:`linalg.generating_keys`).  QED
    """
    dim = wb.dim
    lambda_g, lambda_h = wb.left_mult_matrix(g), wb.left_mult_matrix(h)
    residual = coderivation_residual(wb, lambda_g, lambda_h)
    lefts, basis = wb.cogenerators, None
    if len(lefts) < dim:
        restricted = coderivation_residual(wb, lambda_g, lambda_h, lefts)
        basis = certified_kernel(coderivation_constraint_matrix(wb, restricted), residual)
    if basis is None:
        basis = residual_kernel(coderivation_constraint_matrix(wb, residual), residual)
    return [Matrix(wb.field, dim, dim, {divmod(i, dim): c for i, c in vec.items()})
            for vec in basis]
