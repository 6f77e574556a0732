"""Skew derivations and (g,h)-coderivations.

A (g,h)-coderivation is a linear map delta with
Delta delta = (lambda_g (x) delta + delta (x) lambda_h) Delta, where
lambda_a is left multiplication.  The space of all such delta for fixed
(g, h) is the kernel of :func:`coderivation_residual`, a linear map on
dim^2 unknowns, compiled by :func:`linalg.constraint_matrix` and solved
exactly by :func:`linalg.residual_kernel`.  Elements are dicts
index -> scalar, and both sides of the Leibniz rule and of the
coderivation identity are summed on R, its own basis view, where 2-tensors
are dicts (i, j) -> scalar.
"""

from __future__ import annotations

from .bialgebra import WeakBialgebra, _nonzero
from .errors import NotAutomorphism, NotDerivation
from .grouplike import is_unital_algebra_endo
from .linalg import Matrix, constraint_matrix, rank, residual_kernel


def validate_automorphism(wb: WeakBialgebra, sigma: Matrix):
    """Raise NotAutomorphism unless sigma is a bijective unital algebra map."""
    witness = is_unital_algebra_endo(wb, sigma)
    if witness is not None:
        raise NotAutomorphism(f"sigma is not a unital algebra map (witness {witness})")
    if rank(sigma) != wb.dim:
        raise NotAutomorphism("sigma is not bijective")


def _leibniz_failure(wb: WeakBialgebra, sigma: Matrix, delta: Matrix):
    """The first basis pair (i, j, lhs, rhs) where delta(b_i b_j) = lhs differs
    from delta(b_i) b_j + sigma(b_i) delta(b_j) = rhs, or None."""
    one = wb.one
    dcols, scols = delta.column_dicts(), sigma.column_dicts()
    for i in wb.keys:
        for j in wb.keys:
            lhs = wb.apply(dcols.__getitem__, wb.product(i, j))
            rhs = wb.add(wb.multiply(dcols[i], {j: one}), wb.multiply(scols[i], dcols[j]))
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


def is_sigma_derivation(wb: WeakBialgebra, sigma: Matrix, delta: Matrix) -> bool:
    """Leibniz rule delta(ab) = delta(a) b + sigma(a) delta(b) on all basis pairs.

    Also checks delta(1) = 0, which the rule forces.
    """
    return not delta.apply(wb.unit) and _leibniz_failure(wb, sigma, delta) is None


def skew_derivation(wb: WeakBialgebra, sigma: Matrix, delta: Matrix):
    """Validate Ore data; raises NotAutomorphism / NotDerivation."""
    validate_automorphism(wb, sigma)
    failure = _leibniz_failure(wb, sigma, delta)
    if failure is not None:
        i, j, lhs, rhs = failure
        raise NotDerivation(i, j, wb.format_element(lhs), wb.format_element(rhs))


def coderivation_residual(wb: WeakBialgebra, lambda_g: Matrix, lambda_h: Matrix):
    """The linear map X -> Delta delta - (lambda_g (x) delta + delta (x) lambda_h) Delta.

    X is delta flattened: X[r*dim + k] is the coefficient of b_r in
    delta(b_k).  The residual is the dict (k, u, v) -> coefficient of
    b_u (x) b_v in the defect on b_k, without zeros; it vanishes exactly on
    the (g,h)-coderivations when lambda_g and lambda_h (built by the caller)
    are the left multiplications by g and h.  It visits only delta's nonzero
    columns, through the terms of every Delta(b_k) indexed once by leg.
    """
    dim, zero = wb.dim, wb.zero
    gcols, hcols = lambda_g.column_dicts(), lambda_h.column_dicts()
    # c b_i (x) b_j in Delta(b_k) subtracts c lambda_g(b_i) (x) delta(b_j) and
    # c delta(b_i) (x) lambda_h(b_j) from the defect on b_k; None marks delta's leg
    legs = [[] for _ in wb.keys]
    for k in wb.keys:
        for (i, j), c in wb.coproduct(k).items():
            legs[j].append((k, {u: -c * x for u, x in gcols[i].items()}, None))
            legs[i].append((k, None, {v: -c * x for v, x in hcols[j].items()}))

    def residual(x: dict) -> dict:
        columns, out = {}, {}
        for rk, a in x.items():
            r, k = divmod(rk, dim)
            columns.setdefault(k, {})[r] = a
        for k, col in columns.items():
            for r, a in col.items():
                for (u, v), c in wb.coproduct(r).items():
                    out[k, u, v] = out.get((k, u, v), zero) + c * a
            for kk, left, right in legs[k]:
                for u, a in (col if left is None else left).items():
                    for v, b in (col if right is None else right).items():
                        out[kk, u, v] = out.get((kk, u, v), zero) + a * b
        return _nonzero(out)
    return residual


def _coderivation_failure(wb: WeakBialgebra, delta: Matrix, lam_g: Matrix, lam_h: Matrix):
    """The smallest k where Delta(delta(b_k)) differs from
    (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k), or None: read from
    :func:`coderivation_residual` on the lam_g and lam_h the caller built."""
    dim = wb.dim
    defect = coderivation_residual(wb, lam_g, lam_h)(
        {r * dim + k: c for (r, k), c in delta.data.items()})
    return min((k for k, _, _ in defect), default=None)


def is_coderivation(wb: WeakBialgebra, delta: Matrix, g: dict, h: dict) -> bool:
    """Delta(delta(b_k)) = (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k) for every k."""
    left_mult = wb.left_mult_matrix
    return _coderivation_failure(wb, delta, left_mult(g), left_mult(h)) is None


def coderivation_constraint_matrix(wb: WeakBialgebra, residual) -> Matrix:
    """The linear system whose kernel is the space of (g,h)-coderivations:
    the caller's :func:`coderivation_residual` compiled, one row per key (k, u, v)."""
    return constraint_matrix(wb.field, wb.dim ** 2, residual)


def coderivation_space(wb: WeakBialgebra, g: dict, h: dict):
    """Basis of all (g,h)-coderivations, as matrices.

    One :func:`coderivation_residual` on lambda_g and lambda_h is built,
    compiled by :func:`coderivation_constraint_matrix` and solved by
    :func:`linalg.residual_kernel`, which re-checks every kernel vector with it.
    """
    dim = wb.dim
    residual = coderivation_residual(wb, wb.left_mult_matrix(g), wb.left_mult_matrix(h))
    basis = residual_kernel(coderivation_constraint_matrix(wb, residual), residual)
    return [Matrix(wb.field, dim, dim, {divmod(i, dim): c for i, c in vec.items()})
            for vec in basis]
