"""Skew derivations and (g,h)-coderivations.

A (g,h)-coderivation is a linear map delta with
Delta delta = (lambda_g (x) delta + delta (x) lambda_h) Delta, where
lambda_a is left multiplication.  The space of all such delta for fixed
(g, h) is the kernel of :func:`coderivation_residual`, a linear map on
dim^2 unknowns that works on ints: it reads R's integer view and lambda_g
and lambda_h held as ints by :meth:`Field.to_ints`, so its rows enter
:func:`linalg.constraint_matrix` as ints at one scale and are solved exactly
by :func:`linalg.residual_kernel`; only the kernel vectors come back to
field scalars.  Elsewhere elements are dicts index -> scalar, and both sides
of the Leibniz rule are summed on R, its own basis view, where 2-tensors are
dicts (i, j) -> scalar.
"""

from __future__ import annotations

from .bialgebra import WeakBialgebra
from .errors import NotAutomorphism, NotDerivation
from .grouplike import is_unital_algebra_endo
from .linalg import IntegerSystem, Matrix, constraint_matrix, rank, residual_kernel


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
    """The linear map X -> Delta delta - (lambda_g (x) delta + delta (x) lambda_h) Delta, on ints.

    X is delta flattened and held as ints by :meth:`Field.to_ints`:
    X[r*dim + k] is the coefficient of b_r in delta(b_k).  The residual is
    the dict (k, u, v) -> coefficient of b_u (x) b_v in the defect on b_k,
    without zeros; it vanishes exactly on the (g,h)-coderivations when
    lambda_g and lambda_h (built by the caller) are the left multiplications
    by g and h.  It reads R's integer view (scale D) and the columns of
    lambda_g and lambda_h as ints at their scales L_g and L_h, and brings
    every term to one scale S = D L_g L_h: the Delta-terms times L_g L_h,
    the lambda_g legs times L_h and the lambda_h legs times L_g.  Every
    entry is kept as :meth:`Field.reduce` keeps it.
    It visits only delta's nonzero columns, through the terms of every
    Delta(b_k) indexed once by leg.
    """
    view, dim, field = wb.integer_view, wb.dim, wb.field
    L_g, gcols = field.to_ints(lambda_g.column_dicts())
    L_h, hcols = field.to_ints(lambda_h.column_dicts())
    coproducts = [{uv: c * L_g * L_h for uv, c in view.coproduct(r).items()} for r in wb.keys]
    # c b_i (x) b_j in Delta(b_k) subtracts c lambda_g(b_i) (x) delta(b_j) and
    # c delta(b_i) (x) lambda_h(b_j) from the defect on b_k; None marks delta's leg
    legs = [[] for _ in wb.keys]
    for k in wb.keys:
        for (i, j), c in view.coproduct(k).items():
            legs[j].append((k, field.reduce({u: -c * x * L_h for u, x in gcols[i].items()}),
                            None))
            legs[i].append((k, None,
                            field.reduce({v: -c * x * L_g for v, x in hcols[j].items()})))

    def residual(x: dict) -> dict:
        columns, out = {}, {}
        for rk, a in x.items():
            r, k = divmod(rk, dim)
            columns.setdefault(k, {})[r] = a
        for k, col in columns.items():
            for r, a in col.items():
                for (u, v), c in coproducts[r].items():
                    out[k, u, v] = out.get((k, u, v), 0) + c * a
            for kk, left, right in legs[k]:
                for u, a in (col if left is None else left).items():
                    for v, b in (col if right is None else right).items():
                        out[kk, u, v] = out.get((kk, u, v), 0) + a * b
        return field.reduce(out)
    return residual


def _coderivation_failure(wb: WeakBialgebra, delta: Matrix, lam_g: Matrix, lam_h: Matrix):
    """The smallest k where Delta(delta(b_k)) differs from
    (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k), or None: read from
    :func:`coderivation_residual` on the lam_g and lam_h the caller built,
    with delta held as ints."""
    dim = wb.dim
    _, (x,) = wb.field.to_ints([{r * dim + k: c for (r, k), c in delta.data.items()}])
    return min((k for k, _, _ in coderivation_residual(wb, lam_g, lam_h)(x)), default=None)


def coderivation_constraint_matrix(wb: WeakBialgebra, residual) -> IntegerSystem:
    """The linear system whose kernel is the space of (g,h)-coderivations:
    the caller's :func:`coderivation_residual` compiled, one int row per
    distinct row of the keys (k, u, v)."""
    return constraint_matrix(wb.field, wb.dim ** 2, residual)


def coderivation_space(wb: WeakBialgebra, g: dict, h: dict):
    """Basis of all (g,h)-coderivations, as matrices.

    One :func:`coderivation_residual` on lambda_g and lambda_h is built,
    compiled on ints by :func:`coderivation_constraint_matrix` and solved by
    :func:`linalg.residual_kernel`, which re-checks every kernel vector with
    it; the entries of the kernel vectors are the only field scalars made.
    """
    dim = wb.dim
    residual = coderivation_residual(wb, wb.left_mult_matrix(g), wb.left_mult_matrix(h))
    basis = residual_kernel(coderivation_constraint_matrix(wb, residual), residual)
    return [Matrix(wb.field, dim, dim, {divmod(i, dim): c for i, c in vec.items()})
            for vec in basis]
