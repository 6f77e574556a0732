"""Decision procedures for Hopf-type Ore extension data, and their examples.

Given a weak bialgebra R with automorphism sigma, sigma-derivation delta
and weak group-like g, these procedures decide whether the coalgebra (and,
for weak Hopf algebras, the antipode) extends to R[x; sigma, delta] with x
a (g,1)-primitive generator: the Panov-style conditions.  Every clause is
evaluated exhaustively and reported individually.

The second half constructs the worked family over connected groupoid
algebras M_n(kG): their characters chi(g E_ij) = q_i^-1 q_j rho(g), the
twisted functionals alpha with alpha(ab) = alpha(a) eps(b) + chi(a) alpha(b),
and the derivation delta = (1 - g) tau_alpha^l built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .bialgebra import (WeakBialgebra, WeakHopfAlgebra, base_subalgebras, convolution)
from .coderivations import is_coderivation, is_sigma_derivation
from .errors import (InvalidGroupCharacter, NotCentral, NotGrouplike, NotInvertible,
                     ValidationError, ZeroScale)
from .groupoid import GroupoidAlgebra
from .grouplike import (convolution_inverse, is_grouplike, is_unital_algebra_endo,
                        is_weak_character, is_weak_grouplike, winding)
from .linalg import Matrix, kernel_basis, solve
from .report import AxiomReport, _fmt_witness


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    witness: tuple | None = None


@dataclass
class PanovVerdict:
    """Outcome of a condition check: per-clause results plus the extracted character."""

    clauses: list = dc_field(default_factory=list)
    chi: dict | None = None

    @property
    def passed(self):
        return all(c.passed for c in self.clauses)

    def clause(self, name):
        for c in self.clauses:
            if c.clause == name:
                return c
        return None

    def record(self, name, passed, witness=None):
        self.clauses.append(ClauseResult(name, passed, witness))
        return passed

    def lines(self):
        out = []
        for c in self.clauses:
            suffix = f" witness={_fmt_witness(c.witness)}" if (not c.passed and c.witness) else ""
            out.append(f"CLAUSE {c.clause} {'PASS' if c.passed else 'FAIL'}{suffix}")
        out.append(f"VERDICT {'PASS' if self.passed else 'FAIL'}")
        return out

    def __str__(self):
        return "\n".join(self.lines())


def ad_map(wb: WeakBialgebra, g: dict) -> Matrix:
    """Matrix of conjugation a -> g a g^-1; raises NotInvertible."""
    left = wb.algebra.left_mult_matrix(g)
    g_inv = solve(left, wb.unit)
    if g_inv is None or wb.multiply(g_inv, g) != wb.unit:
        raise NotInvertible(f"{wb.format_element(g)} is not invertible")
    return left * wb.algebra.right_mult_matrix(g_inv)


def _column_witness(wb, lhs, rhs):
    """(label,) of the first basis element on which the maps lhs and rhs differ, or None."""
    pairs = zip(wb.labels, lhs.column_dicts(), rhs.column_dicts())
    return next(((label,) for label, a, b in pairs if a != b), None)


def _sigma_vs_left_winding(wb, sigma, chi, verdict):
    """Record sigma_is_left_winding; returns the left winding of chi, and chi
    on the verdict when sigma is that winding."""
    left = winding(wb, chi, "left")
    ok = left == sigma
    verdict.record("sigma_is_left_winding", ok, None if ok else _column_witness(wb, left, sigma))
    if ok:
        verdict.chi = chi
    return left


def panov_necessary(wb: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions forced on (sigma, delta, g) by an extension with (g,1)-primitive x.

    Clauses: eps_t(g) = 1; delta is a (g,1)-coderivation; sigma is the left
    winding of chi = eps o sigma, with chi a weak left character admitting a
    right convolution inverse; and the twisted compatibility
    Delta(sigma(a)) (g (x) 1) = (g (x) 1)(id (x) sigma) Delta(a).  The two
    coefficient identities Delta(sigma(a)) = sigma(a_1) (x) a_2 and
    Delta(delta(a)) = g a_1 (x) delta(a_2) + delta(a_1) (x) a_2 are recorded
    as separate clauses (the first compatibility identity coincides with the
    twisted one above once expanded).
    """
    verdict = PanovVerdict()
    fmt = wb.format_element
    verdict.record("g_weak_grouplike", is_weak_grouplike(wb, g), (fmt(g),))
    verdict.record("eps_t_g_is_unit", wb.eps_t(g) == wb.unit, (fmt(wb.eps_t(g)),))
    verdict.record("delta_is_skew_coderivation", is_coderivation(wb, delta, g, wb.unit))

    chi = sigma.apply_functional(wb.counit)  # eps o sigma
    left = _sigma_vs_left_winding(wb, sigma, chi, verdict)
    verdict.record("chi_weak_left_character", is_unital_algebra_endo(wb, left) is None)
    verdict.record("chi_has_right_inverse", convolution_inverse(wb, chi).right is not None)

    view, one = wb.view, wb.field.one()
    scols, dcols = sigma.column_dicts(), delta.column_dicts()
    gcols = [view.multiply(g, {k: one}) for k in view.keys]
    sig, dlt, g_left = scols.__getitem__, dcols.__getitem__, gcols.__getitem__
    g1 = view.pure(g, view.unit)
    twist_ok = True
    twist_witness = None
    shift_ok = True
    shift_witness = None
    for k in view.keys:
        dk = view.coproduct(k)
        lhs = view.tensor_mul(view.comultiply(scols[k]), g1)
        rhs = view.tensor_mul(g1, view.map_legs(dk, None, sig))
        if twist_ok and lhs != rhs:
            twist_ok, twist_witness = False, (wb.labels[k],)
        if shift_ok and lhs != view.map_legs(dk, g_left, sig):
            shift_ok, shift_witness = False, (wb.labels[k],)
    verdict.record("coproduct_sigma_g_twist", twist_ok, twist_witness)
    verdict.record("coproduct_sigma_g_twist_expanded", shift_ok, shift_witness)

    left_factor_ok = all(view.comultiply(scols[k]) == view.map_legs(view.coproduct(k), sig)
                         for k in view.keys)
    verdict.record("coproduct_sigma_left_factor", left_factor_ok)

    leibniz_witness = None
    for k in view.keys:
        dk = view.coproduct(k)
        if view.comultiply(dcols[k]) != view.add(view.map_legs(dk, g_left, dlt),
                                                 view.map_legs(dk, dlt)):
            leibniz_witness = (wb.labels[k],)
            break
    verdict.record("coproduct_delta_twisted_leibniz", leibniz_witness is None, leibniz_witness)
    return verdict


def eps_a_delta_b_zero(wb: WeakBialgebra, delta: Matrix):
    """Witness (i, j) with eps(b_i delta(b_j)) != 0, or None.

    eps(b_i delta(b_j)) is summed from the cached eps(b_i b_k) over the
    column j of delta, each column read once.
    """
    view, dcols = wb.view, delta.column_dicts()
    for i in view.keys:
        for j in view.keys:
            e = view.zero
            for k, c in dcols[j].items():
                e = e + c * view.eps_pair(i, k)
            if e:
                return (i, j)
    return None


_SUFFICIENT = ("g_grouplike_invertible", "counit_delta_orthogonal", "chi_is_character",
               "sigma_is_left_winding", "sigma_is_adjoint_right_winding",
               "delta_is_skew_coderivation")
_HOPF = ("delta_kills_source_base", "chi_is_character", "sigma_is_left_winding",
         "g_grouplike_invertible", "sigma_is_adjoint_right_winding", "delta_is_skew_coderivation",
         "antipode_conjugation_compat", "antipode_delta_compat")


def _shared_clauses(wb, sigma, delta, g):
    """The five clauses panov_sufficient and hopf_conditions share, evaluated once.

    Each winding of chi is built once and serves every clause that reads it.
    Returns their verdict, which carries chi when sigma is its left winding,
    and Ad_g, or None unless g is an invertible group-like.
    """
    verdict = PanovVerdict()
    g_inv = is_grouplike(wb, g)
    verdict.record("g_grouplike_invertible", g_inv is not None, (wb.format_element(g),))
    chi = sigma.apply_functional(wb.counit)  # eps o sigma
    left = _sigma_vs_left_winding(wb, sigma, chi, verdict)
    right = winding(wb, chi, "right")
    char_ok = (is_unital_algebra_endo(wb, left) is None
               and is_unital_algebra_endo(wb, right) is None
               and convolution_inverse(wb, chi).two_sided is not None)
    verdict.record("chi_is_character", char_ok)
    adg = ad_map(wb, g) if g_inv is not None else None
    if adg is not None:
        verdict.record("sigma_is_adjoint_right_winding", adg * right == sigma)
    else:
        verdict.record("sigma_is_adjoint_right_winding", False, ("g not invertible",))
    verdict.record("delta_is_skew_coderivation", is_coderivation(wb, delta, g, wb.unit))
    return verdict, adg


def _in_order(order, shared, own) -> PanovVerdict:
    clauses = {c.clause: c for c in shared.clauses + own.clauses}
    return PanovVerdict([clauses[name] for name in order], shared.chi)


def _sufficient(wb, delta, shared) -> PanovVerdict:
    own = PanovVerdict()
    witness = eps_a_delta_b_zero(wb, delta)
    own.record("counit_delta_orthogonal", witness is None, witness)
    return _in_order(_SUFFICIENT, shared, own)


def _hopf(wha, sigma, delta, g, shared, adg) -> PanovVerdict:
    own = PanovVerdict()
    _, basis_s = base_subalgebras(wha)
    bad = next((a for a in basis_s if delta.apply(a)), None)
    own.record("delta_kills_source_base", bad is None,
               None if bad is None else (wha.format_element(bad),))
    S = wha.antipode
    bad = ("g not invertible",) if adg is None else _column_witness(wha, adg * S, sigma * S * sigma)
    own.record("antipode_conjugation_compat", bad is None, bad)
    bad = _column_witness(wha, delta * S * sigma, wha.algebra.left_mult_matrix(g) * S * delta)
    own.record("antipode_delta_compat", bad is None, bad)
    return _in_order(_HOPF, shared, own)


def panov_sufficient(wb: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions under which the coalgebra extends to R[x; sigma, delta].

    Clauses: g is an invertible weak group-like; eps(a delta(b)) = 0 on all
    basis pairs; chi = eps o sigma is a character (weak character on both
    sides with a two-sided convolution inverse); sigma = tau_chi^l;
    sigma = Ad_g tau_chi^r; delta is a (g,1)-coderivation.
    """
    return _sufficient(wb, delta, _shared_clauses(wb, sigma, delta, g)[0])


def hopf_conditions(wha: WeakHopfAlgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions under which the antipode also extends, with S(x) = -S(g) x.

    The hypothesis delta(R_s) = 0 is checked first, then: (i) sigma is the
    left winding and the g-adjoint right winding of a character chi;
    (ii) delta is a (g,1)-coderivation; (iii) Ad_g S = sigma S sigma;
    (iv) delta S sigma = lambda_g S delta.
    """
    if not isinstance(wha, WeakHopfAlgebra):
        raise ValidationError("hopf conditions require an antipode on the coefficients")
    return _hopf(wha, sigma, delta, g, *_shared_clauses(wha, sigma, delta, g))


def extension_verdicts(wha: WeakHopfAlgebra, sigma: Matrix, delta: Matrix, g: dict):
    """Yield panov_sufficient's verdict, then hopf_conditions', each clause evaluated once.

    The second verdict is computed only when the caller asks for it.
    """
    shared, adg = _shared_clauses(wha, sigma, delta, g)
    yield _sufficient(wha, delta, shared)
    if not isinstance(wha, WeakHopfAlgebra):
        raise ValidationError("hopf conditions require an antipode on the coefficients")
    yield _hopf(wha, sigma, delta, g, shared, adg)


# ---------------------------------------------------------------------------
# Groupoid-algebra constructions
# ---------------------------------------------------------------------------


def groupoid_character(ga: GroupoidAlgebra, rho, q) -> dict:
    """The character chi(g E_ij) = q_i^-1 q_j rho(g) of M_n(kG).

    rho is a list of |G| nonzero scalars forming a group character, q a list
    of n nonzero scalars (only the ratios q_i^-1 q_j matter); Python ints
    are taken as field elements, other foreign scalars refused by
    :meth:`Field.coerce`.  The result is verified to be a two-sided weak
    character whose convolution inverse is chi o S; a failure raises, since
    the family is closed-form.
    """
    group, n = ga.group, ga.n
    rho = [ga.field.coerce(x) for x in rho]
    q = [ga.field.coerce(x) for x in q]
    if len(rho) != group.order:
        raise InvalidGroupCharacter(f"rho must list {group.order} values")
    if rho[0] != ga.field.one():
        raise InvalidGroupCharacter("rho(identity) must be 1")
    for g in range(group.order):
        if not rho[g]:
            raise InvalidGroupCharacter(f"rho({group.labels[g]}) = 0")
        for h in range(group.order):
            if rho[group.mul(g, h)] != rho[g] * rho[h]:
                raise InvalidGroupCharacter(
                    f"rho not multiplicative at ({group.labels[g]},{group.labels[h]})")
    if len(q) != n:
        raise ZeroScale(f"q must list {n} values")
    for qi in q:
        if not qi:
            raise ZeroScale("q entries must be nonzero")

    chi = {ga.basis_index(g, i, j): c for g in range(group.order)
           for i in range(n) for j in range(n) if (c := q[j] / q[i] * rho[g])}

    if not (is_weak_character(ga, chi, "left") and is_weak_character(ga, chi, "right")):
        raise ValidationError("groupoid character failed the winding check")
    chi_s = ga.antipode.apply_functional(chi)
    eps = ga.counit
    if convolution(chi_s, chi, ga) != eps or convolution(chi, chi_s, ga) != eps:
        raise ValidationError("chi o S is not the convolution inverse of chi")
    return chi


@dataclass
class AlphaSolution:
    """Solution space of alpha(ab) = alpha(a) eps(b) + chi(a) alpha(b), alpha(E_ii) = 0."""

    basis: list

    @property
    def dimension(self):
        return len(self.basis)


def alpha_constraint_matrix(ga: GroupoidAlgebra, chi: dict) -> Matrix:
    """Rows of the linear system cutting out the twisted functionals alpha."""
    dim = ga.dim
    zero = ga.field.zero()
    rows = []
    for i in range(dim):
        for j in range(dim):
            row = {}
            for k, c in ga.view.product(i, j).items():
                row[k] = row.get(k, zero) + c
            e = ga.counit.get(j, zero)
            if e:
                row[i] = row.get(i, zero) - e
            x = chi.get(i, zero)
            if x:
                row[j] = row.get(j, zero) - x
            if any(row.values()):
                rows.append(row)
    for idx in ga.diagonal_unit_indices():
        rows.append({idx: ga.field.one()})
    entries = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            if v:
                entries[(r, c)] = v
    return Matrix(ga.field, len(rows), dim, entries)


def solve_alpha(ga: GroupoidAlgebra, chi: dict) -> AlphaSolution:
    """Exact kernel of the alpha constraint system, each solution re-verified."""
    basis = kernel_basis(alpha_constraint_matrix(ga, chi))
    zero = ga.field.zero()
    for alpha in basis:
        for i in range(ga.dim):
            ai = alpha.get(i, zero)
            for j in range(ga.dim):
                lhs = zero
                for k, c in ga.view.product(i, j).items():
                    a = alpha.get(k)
                    if a:
                        lhs = lhs + c * a
                rhs = ai * ga.counit.get(j, zero) + chi.get(i, zero) * alpha.get(j, zero)
                if lhs != rhs:
                    raise ValidationError(f"alpha solution fails its defining relation at ({i},{j})")
        for idx in ga.diagonal_unit_indices():
            if alpha.get(idx):
                raise ValidationError("alpha solution does not vanish on a diagonal unit")
    return AlphaSolution(basis)


def build_twisted_derivation(wb: WeakBialgebra, g: dict, chi: dict, alpha: dict) -> Matrix:
    """The derivation delta = (1 - g) tau_alpha^l for a central group-like g.

    The output is verified to be a tau_chi^l-derivation, a (g,1)-coderivation
    and to vanish on R_s.
    """
    if is_grouplike(wb, g) is None:
        raise NotGrouplike(f"{wb.format_element(g)} is not an invertible weak group-like")
    for k in range(wb.dim):
        bk = wb.basis_vector(k)
        if wb.multiply(g, bk) != wb.multiply(bk, g):
            raise NotCentral(f"g does not commute with {wb.labels[k]}")
    one_minus_g = wb.view.add(wb.unit, {k: -c for k, c in g.items()})
    delta = wb.algebra.left_mult_matrix(one_minus_g) * winding(wb, alpha, "left")
    sigma = winding(wb, chi, "left")
    if not is_sigma_derivation(wb, sigma, delta):
        raise ValidationError("constructed delta is not a sigma-derivation")
    if not is_coderivation(wb, delta, g, wb.unit):
        raise ValidationError("constructed delta is not a (g,1)-coderivation")
    _, basis_s = base_subalgebras(wb)
    if any(delta.apply(a) for a in basis_s):
        raise ValidationError("constructed delta does not kill R_s")
    return delta


def centrality_report(wb: WeakBialgebra, sigma: Matrix, delta: Matrix,
                      g: dict, chi: dict) -> AxiomReport:
    """Under the extension hypotheses, g must be central; a failure is a finding.

    Hypotheses recorded: R cocommutative, chi o S is the convolution inverse
    of chi, and the antipode extension clauses hold.  The conclusion checks
    Ad_g = id on every basis element.
    """
    report = AxiomReport()
    report.record("hypothesis_cocommutative", wb.coalgebra.is_cocommutative())
    if isinstance(wb, WeakHopfAlgebra):
        chi_s = wb.antipode.apply_functional(chi)
        eps = wb.counit
        report.record("hypothesis_chi_S_inverse",
                      convolution(chi_s, chi, wb) == eps and convolution(chi, chi_s, wb) == eps)
        report.record("hypothesis_hopf_conditions", hopf_conditions(wb, sigma, delta, g).passed)
    else:
        report.record("hypothesis_chi_S_inverse", False, witness=("no antipode",))
        report.record("hypothesis_hopf_conditions", False, witness=("no antipode",))
    for k in range(wb.dim):
        bk = wb.basis_vector(k)
        report.check("g_central", wb.multiply(g, bk), wb.multiply(bk, g),
                     witness=(wb.labels[k],), fmt=wb.format_element)
    return report
