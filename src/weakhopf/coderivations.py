"""Skew derivations, (g,h)-coderivations and skew-primitive elements.

A (g,h)-coderivation is a linear map delta with
Delta delta = (lambda_g (x) delta + delta (x) lambda_h) Delta, where
lambda_a is left multiplication.  The space of all such delta for fixed
(g, h) is the kernel of an explicit linear operator on dim^2 unknowns and
is computed exactly.  Elements are the dicts of the basis views: index ->
scalar in R, (b, n) -> scalar in an Ore extension H.  Every identity in
R (x) R, and in H (x) H for an extended Ore algebra H, is checked on the
basis view ``ctx.view``, where 2-tensors are dicts (key, key) -> scalar:
the coderivation identity sums both sides there, and skew-primitivity uses
its comultiply / delta_one / pure / tensor_mul.  The counital identities go
through the context's eps_t / eps_s and the view's multiply / add.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bialgebra import WeakBialgebra, _add_pure, _nonzero
from .errors import NotAutomorphism, NotDerivation, ValidationError
from .grouplike import is_unital_algebra_endo, winding
from .linalg import Matrix, kernel_basis
from .report import AxiomReport


@dataclass(frozen=True)
class CoderivationWitness:
    """A map delta together with the weak group-likes (g, h) it is a coderivation for."""

    delta: Matrix
    g: dict
    h: dict


def coderivation_witness(wb: WeakBialgebra, delta: Matrix, g: dict,
                         h: dict) -> CoderivationWitness:
    """Validate and package a (g,h)-coderivation; raises on failure."""
    from .grouplike import is_weak_grouplike
    if not (is_weak_grouplike(wb, g) and is_weak_grouplike(wb, h)):
        raise ValidationError("g and h must be weak group-like")
    if not is_coderivation(wb, delta, g, h):
        raise ValidationError("delta fails the (g,h)-coderivation identity")
    return CoderivationWitness(delta, g, h)


def validate_automorphism(wb: WeakBialgebra, sigma: Matrix):
    """Raise NotAutomorphism unless sigma is a bijective unital algebra map."""
    witness = is_unital_algebra_endo(wb, sigma)
    if witness is not None:
        raise NotAutomorphism(f"sigma is not a unital algebra map (witness {witness})")
    from .linalg import rank
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


def is_coderivation(wb: WeakBialgebra, delta: Matrix, g: dict, h: dict) -> bool:
    """Delta(delta(b_k)) = (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k) for every k.

    Both sides are summed from the structure constants on ``wb.view``,
    reading each column of delta once.
    """
    view, zero, one = wb.view, wb.field.zero(), wb.field.one()
    dcols = delta.column_dicts()
    gcols = [view.multiply(g, {k: one}) for k in view.keys]
    hcols = [view.multiply(h, {k: one}) for k in view.keys]
    for k in view.keys:
        rhs = {}
        for (i, j), c in view.coproduct(k).items():
            _add_pure(rhs, c, (gcols[i], dcols[j]), zero)
            _add_pure(rhs, c, (dcols[i], hcols[j]), zero)
        if view.comultiply(dcols[k]) != _nonzero(rhs):
            return False
    return True


def coderivation_constraint_matrix(wb: WeakBialgebra, g: dict, h: dict) -> Matrix:
    """The linear system whose kernel is the space of (g,h)-coderivations.

    With unknowns X[r][k] (coefficient of b_r in delta(b_k), flattened as
    column r*dim + k) the defining identity reads, per basis element k and
    tensor slot (u, v),

        sum_r d[u][v][r] X[r][k]
          - sum_{(i,j)} d[i][j][k] (L_g[u][i] X[v][j] + L_h[v][j] X[u][i]) = 0.

    The dim^3 rows are deduplicated.
    """
    dim = wb.dim
    field = wb.field
    lam_g = wb.algebra.left_mult_matrix(g)
    lam_h = wb.algebra.left_mult_matrix(h)
    lg_cols = lam_g.column_dicts()
    lh_cols = lam_h.column_dicts()
    zero = field.zero()

    def unknown(r, k):
        return r * dim + k

    rows = set()
    for k in range(dim):
        lhs_rows = {}
        for r in range(dim):
            for (u, v), c in wb.coalgebra.coproduct_of_basis(r).items():
                key = (u, v)
                lhs_rows.setdefault(key, {})
                col = unknown(r, k)
                lhs_rows[key][col] = lhs_rows[key].get(col, zero) + c
        for (i, j), c in wb.coalgebra.coproduct_of_basis(k).items():
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
    matrix is re-verified against the defining identity.
    """
    dim = wb.dim
    field = wb.field
    constraint = coderivation_constraint_matrix(wb, g, h)
    basis = []
    for vec in kernel_basis(constraint):
        m = Matrix(field, dim, dim,
                   {(r, k): c for (r, k), c in
                    (((i // dim, i % dim), c) for i, c in vec.items())})
        if not is_coderivation(wb, m, g, h):
            raise ValidationError("kernel vector fails the coderivation identity")
        basis.append(m)
    return basis


def inner_coderivation(wb: WeakBialgebra, chi: dict) -> Matrix:
    """The (1,1)-coderivation a -> a_1 chi(a_2) - chi(a_1) a_2."""
    delta = winding(wb, chi, "right") - winding(wb, chi, "left")
    if not is_coderivation(wb, delta, wb.unit, wb.unit):
        raise ValidationError("inner coderivation fails the defining identity")
    return delta


def is_skew_primitive(ctx, x, g, h) -> bool:
    """Delta(x) = Delta(1)(g (x) x + x (x) h) = (g (x) x + x (x) h)Delta(1), exactly.

    ctx is a weak bialgebra or an extended Ore algebra; elements and the
    two weak group-likes must live where the context expects them.  Both
    sides are computed on ``ctx.view``.
    """
    view = ctx.view
    dx, d1 = view.comultiply(x), view.delta_one()
    mixed = view.add(view.pure(g, x), view.pure(x, h))
    return dx == view.tensor_mul(d1, mixed) and dx == view.tensor_mul(mixed, d1)


def skew_primitive_identity_report(ctx, x, g, h) -> AxiomReport:
    """Check x = eps_t(g) x + eps_t(x) h  and  x = g eps_s(x) + x eps_s(h)."""
    report = AxiomReport()
    view = ctx.view
    report.record("is_skew_primitive", is_skew_primitive(ctx, x, g, h))
    lhs_t = view.add(view.multiply(ctx.eps_t(g), x), view.multiply(ctx.eps_t(x), h))
    report.check("skew_primitive_eps_t_identity", lhs_t, x)
    lhs_s = view.add(view.multiply(g, ctx.eps_s(x)), view.multiply(x, ctx.eps_s(h)))
    report.check("skew_primitive_eps_s_identity", lhs_s, x)
    return report


def eps_delta_report(wb: WeakBialgebra, delta: Matrix, g: dict, h: dict,
                     sigma: Matrix | None = None) -> AxiomReport:
    """Counit annihilation results for a (g,h)-coderivation, with hypothesis flags.

    Records eps_s(g) = 1 and eps_s(h) = 1 as hypotheses and checks
    eps o delta = 0 whenever both hold.  When sigma is supplied, records
    delta(R_s) = 0 and sigma = tau_chi^l (chi = eps o sigma) as hypotheses
    and, if they hold, checks eps(a delta(b)) = 0 on all basis pairs.
    Hypotheses that fail are reported as flags; the conclusions are then
    not asserted.
    """
    report = AxiomReport()
    view, dcols = wb.view, delta.column_dicts()
    report.record("delta_is_coderivation", is_coderivation(wb, delta, g, h))
    hyp_g = wb.eps_s(g) == wb.unit
    hyp_h = wb.eps_s(h) == wb.unit
    report.record("hypothesis_eps_s_g_is_unit", hyp_g, witness=(wb.format_element(g),))
    report.record("hypothesis_eps_s_h_is_unit", hyp_h, witness=(wb.format_element(h),))
    if hyp_g and hyp_h:
        for k in view.keys:
            report.check("counit_kills_delta", wb.counit_value(dcols[k]), view.zero, witness=(k,))

    if sigma is not None:
        from .panov import PanovClauses
        clauses = PanovClauses(wb, sigma, delta, g)
        hyp_rs = clauses.result("delta_kills_source_base").passed
        report.record("hypothesis_delta_kills_R_s", hyp_rs)
        hyp_sigma = clauses.result("sigma_is_left_winding").passed
        report.record("hypothesis_sigma_is_left_winding", hyp_sigma)
        if hyp_rs and hyp_sigma:
            for i in view.keys:
                for j in view.keys:
                    report.check("counit_kills_a_delta_b", view.eps_mul(i, dcols[j]), view.zero,
                                 witness=(i, j))
    return report
