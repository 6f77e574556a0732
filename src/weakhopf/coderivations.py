"""Skew derivations and (g,h)-coderivations.

A (g,h)-coderivation is a linear map delta with
Delta delta = (lambda_g (x) delta + delta (x) lambda_h) Delta, where
lambda_a is left multiplication.  The space of all such delta for fixed
(g, h) is the kernel of an explicit linear operator on dim^2 unknowns and
is computed exactly.  Elements are dicts index -> scalar, and both sides of
the Leibniz rule and of the coderivation identity are summed on the basis
view ``wb.view``, where 2-tensors are dicts (i, j) -> scalar.
"""

from __future__ import annotations

from .bialgebra import WeakBialgebra, _add_pure, _nonzero
from .errors import NotAutomorphism, NotDerivation, ValidationError
from .grouplike import is_unital_algebra_endo
from .linalg import Matrix, kernel_basis, rank


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
    view, one = wb.view, wb.field.one()
    dcols, scols = delta.column_dicts(), sigma.column_dicts()
    for i in view.keys:
        for j in view.keys:
            lhs = view.apply(dcols.__getitem__, view.product(i, j))
            rhs = view.add(view.multiply(dcols[i], {j: one}), view.multiply(scols[i], dcols[j]))
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


def _coderivation_failure(wb: WeakBialgebra, delta: Matrix, lam_g: Matrix, lam_h: Matrix):
    """The first basis index k where Delta(delta(b_k)) differs from
    (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k), or None.

    Both sides are summed from the structure constants on ``wb.view``,
    reading the columns of delta and of the left multiplications lam_g and
    lam_h (lambda_g, lambda_h) that the caller built.
    """
    view, zero = wb.view, wb.field.zero()
    dcols, gcols, hcols = delta.column_dicts(), lam_g.column_dicts(), lam_h.column_dicts()
    for k in view.keys:
        rhs = {}
        for (i, j), c in view.coproduct(k).items():
            _add_pure(rhs, c, (gcols[i], dcols[j]), zero)
            _add_pure(rhs, c, (dcols[i], hcols[j]), zero)
        if view.comultiply(dcols[k]) != _nonzero(rhs):
            return k
    return None


def is_coderivation(wb: WeakBialgebra, delta: Matrix, g: dict, h: dict) -> bool:
    """Delta(delta(b_k)) = (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k) for every k."""
    left_mult = wb.algebra.left_mult_matrix
    return _coderivation_failure(wb, delta, left_mult(g), left_mult(h)) is None


def coderivation_constraint_matrix(wb: WeakBialgebra, lambda_g: Matrix,
                                   lambda_h: Matrix) -> Matrix:
    """The linear system whose kernel is the space of (g,h)-coderivations.

    lambda_g and lambda_h are the left multiplications by g and h (L_g and
    L_h below), built by the caller.  With unknowns X[r][k] (coefficient of
    b_r in delta(b_k), flattened as column r*dim + k) the defining identity
    reads, per basis element k and tensor slot (u, v),

        sum_r d[u][v][r] X[r][k]
          - sum_{(i,j)} d[i][j][k] (L_g[u][i] X[v][j] + L_h[v][j] X[u][i]) = 0.

    The dim^3 rows are deduplicated.
    """
    dim = wb.dim
    field = wb.field
    lg_cols, lh_cols = lambda_g.column_dicts(), lambda_h.column_dicts()
    zero = field.zero()

    def unknown(r, k):
        return r * dim + k

    rows = set()
    for k in range(dim):
        lhs_rows = {}
        for r in range(dim):
            for (u, v), c in wb.view.coproduct(r).items():
                key = (u, v)
                lhs_rows.setdefault(key, {})
                col = unknown(r, k)
                lhs_rows[key][col] = lhs_rows[key].get(col, zero) + c
        for (i, j), c in wb.view.coproduct(k).items():
            for u, lg in lg_cols[i].items():
                for v in range(dim):
                    col = unknown(v, j)
                    key = (u, v)
                    lhs_rows.setdefault(key, {})
                    lhs_rows[key][col] = lhs_rows[key].get(col, zero) - c * lg
            for v, lh in lh_cols[j].items():
                for u in range(dim):
                    col = unknown(u, i)
                    key = (u, v)
                    lhs_rows.setdefault(key, {})
                    lhs_rows[key][col] = lhs_rows[key].get(col, zero) - c * lh
        for row in lhs_rows.values():
            cleaned = tuple((col, row[col]) for col in sorted(row) if row[col])
            if cleaned:
                rows.add(cleaned)

    entries = {}
    ordered = sorted(rows, key=lambda t: tuple((col, str(v)) for col, v in t))
    for ridx, cleaned in enumerate(ordered):
        for col, val in cleaned:
            entries[(ridx, col)] = val
    return Matrix(field, len(rows), dim * dim, entries)


def coderivation_space(wb: WeakBialgebra, g: dict, h: dict):
    """Basis of all (g,h)-coderivations, as matrices.

    Exact kernel of :func:`coderivation_constraint_matrix`; every returned
    matrix is re-verified against the defining identity.  lambda_g and
    lambda_h are built once, for the system and every re-verification.
    """
    dim = wb.dim
    lambda_g, lambda_h = wb.algebra.left_mult_matrix(g), wb.algebra.left_mult_matrix(h)
    constraint = coderivation_constraint_matrix(wb, lambda_g, lambda_h)
    basis = []
    for vec in kernel_basis(constraint):
        m = Matrix(wb.field, dim, dim, {divmod(i, dim): c for i, c in vec.items()})
        if _coderivation_failure(wb, m, lambda_g, lambda_h) is not None:
            raise ValidationError("kernel vector fails the coderivation identity")
        basis.append(m)
    return basis
