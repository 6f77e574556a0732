"""Test-side lemma checks, instance constructors and helpers.

Identities the engine does not decide itself (counital, group-like,
character and skew-primitive identities, counit annihilation, centrality
of g, the expansion of (g (x) x + x (x) 1)^n) and the instances only tests
build, all on the package's public objects and basis views.
"""

import math

from weakhopf.bialgebra import WeakBialgebra, WeakHopfAlgebra, convolution
from weakhopf.coderivations import is_coderivation
from weakhopf.errors import ValidationError, WeakHopfError
from weakhopf.fields import Field
from weakhopf.groupoid import GroupPresentation, group_algebra, matrix_algebra
from weakhopf.grouplike import (ConvolutionInverse, grouplike_inverse, is_unital_algebra_endo,
                                is_weak_character, is_weak_grouplike, one_sided_inverse, winding)
from weakhopf.linalg import Matrix, solve
from weakhopf.panov import PanovClauses, hopf_conditions
from weakhopf.report import AxiomReport

from oracles import ore_slot


class FieldMismatch(WeakHopfError):
    """The factors of a tensor product are over different fields."""


def identity(field, n) -> Matrix:
    """The n x n identity matrix."""
    one = field.one()
    return Matrix(field, n, n, {(i, i): one for i in range(n)})


def from_rows_dense(field, rows) -> Matrix:
    """The matrix of a list of dense rows."""
    data = {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}
    return Matrix(field, len(rows), len(rows[0]) if rows else 0, data)


def axiom_names(report) -> list:
    """The axioms a report recorded, in order."""
    return [line.split()[1] for line in report.lines()]


def axiom_passed(report, axiom) -> bool:
    """Whether the report recorded the axiom and no failure of it."""
    return f"AXIOM {axiom} PASS" in report.lines()


def convolution_inverse(wb, chi) -> ConvolutionInverse:
    """Solve chi' * chi = eps (left) and chi * chi' = eps (right) as linear systems."""
    return ConvolutionInverse(one_sided_inverse(wb, chi, "left", winding(wb, chi, "right")),
                              one_sided_inverse(wb, chi, "right", winding(wb, chi, "left")))


def is_grouplike(wb, g) -> dict | None:
    """The two-sided inverse of g if g is an invertible weak group-like, else None."""
    if not is_weak_grouplike(wb, g):
        return None
    return grouplike_inverse(wb, g, wb.left_mult_matrix(g))


def basis_element(ga, g, i, j):
    """g E_{i+1,j+1} of a groupoid algebra M_n(kG), as an element dict."""
    return ga.basis_vector(ga.basis_index(g, i, j))


def ad_map(wb, g):
    """Ad_g: a -> g a g^-1 from the clause table of (id, 0, g); None unless g is invertible."""
    zero = Matrix.zero(wb.field, wb.dim, wb.dim)
    return PanovClauses(wb, identity(wb.field, wb.dim), zero, g)._adg


def counit_value(wb, v):
    """eps(v) for an element v of R."""
    return sum((c * wb.counit(i) for i, c in v.items()), wb.zero)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with row-major pair indexing (i*rows_b + k, j*cols_b + l)."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    data = {}
    for (i, j), x in a.data.items():
        for (k, l), y in b.data.items():
            data[(i * b.rows + k, j * b.cols + l)] = x * y
    return Matrix(a.field, a.rows * b.rows, a.cols * b.cols, data)


def tensor_product(a: WeakBialgebra, b: WeakBialgebra):
    """Tensor product of weak bialgebras (weak Hopf algebras when both have antipodes).

    Componentwise product, coproduct (a (x) b) -> (a_1 (x) b_1) (x) (a_2 (x) b_2),
    counit eps_A eps_B, antipode S_A (x) S_B.  Basis index of (i, j) is
    i * dim_B + j, matching the Kronecker convention.
    """
    if a.field != b.field:
        raise FieldMismatch("tensor factors over different fields")
    field = a.field
    dim = a.dim * b.dim

    def idx(i, j):
        return i * b.dim + j

    def pure(u, v):
        return {idx(i, j): x * y for i, x in u.items() for j, y in v.items()}

    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    mult = {(idx(i1, j1), idx(i2, j2)): pure(va, vb)
            for (i1, i2), va in a.mult.items()
            for (j1, j2), vb in b.mult.items()}
    comult = {}
    for k1 in range(a.dim):
        da = a.coproduct(k1)
        for k2 in range(b.dim):
            db = b.coproduct(k2)
            comult[idx(k1, k2)] = {(idx(i1, i2), idx(j1, j2)): c1 * c2
                                   for (i1, j1), c1 in da.items()
                                   for (i2, j2), c2 in db.items()}
    tables = (field, dim, mult, pure(a.unit, b.unit), comult,
              pure(a.counit_vector, b.counit_vector))
    if isinstance(a, WeakHopfAlgebra) and isinstance(b, WeakHopfAlgebra):
        return WeakHopfAlgebra(*tables, kron(a.antipode_matrix, b.antipode_matrix), labels)
    return WeakBialgebra(*tables, labels)


def dihedral(n):
    """The dihedral group of order 2n; element a + n*b is r^a s^b."""
    def mul(x, y):
        a, b, c, d = x % n, x // n, y % n, y // n
        return (a + (-c if b else c)) % n + n * ((b + d) % 2)
    return GroupPresentation([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)],
                             name=f"D{n}")


def matches_tensor_factors(ga) -> bool:
    """Whether M_n(kG) is M_n(k) (x) kG under g E_ij -> E_ij (x) g: product,
    coproduct, counit, antipode and unit, entry by entry."""
    n, m, field = ga.n, ga.group.order, ga.field
    factor = tensor_product(matrix_algebra(n, field), group_algebra(ga.group, field))
    # index (g n + i) n + j of g E_ij goes to (i n + j) m + g
    image = [ij * m + g for g, ij in (divmod(idx, n * n) for idx in range(ga.dim))]

    def moved(v):  # an element or a 2-tensor of M_n(kG), in the basis of the factors
        return {tuple(map(image.__getitem__, k)) if type(k) is tuple else image[k]: c
                for k, c in v.items()}

    keys = range(ga.dim)
    return (factor.dim == ga.dim and factor.unit == moved(ga.unit)
            and all(factor.product(image[i], image[j]) == moved(ga.product(i, j))
                    for i in keys for j in keys)
            and all(factor.coproduct(image[k]) == moved(ga.coproduct(k))
                    and factor.counit_vector.get(image[k]) == ga.counit_vector.get(k)
                    and factor.antipode(image[k]) == moved(ga.antipode(k))
                    for k in keys))


def function_algebra(group, field: Field | None = None) -> WeakHopfAlgebra:
    """Functions on a finite group: pointwise product, Delta(e_g) = sum e_h (x) e_k over hk = g.

    Non-cocommutative exactly when the group is nonabelian.
    """
    field = field or Field.rationals()
    m = group.order
    one = field.one()
    labels = [f"e[{lab}]" for lab in group.labels]
    mult = {(i, i): {i: one} for i in range(m)}
    unit = {i: one for i in range(m)}
    comult = {}
    for g in range(m):
        data = {}
        for h in range(m):
            for k in range(m):
                if group.mul(h, k) == g:
                    data[(h, k)] = one
        comult[g] = data
    antipode = Matrix(field, m, m, {(group.inv(g), g): one for g in range(m)})
    return WeakHopfAlgebra(field, m, mult, unit, comult, {0: one}, antipode, labels)


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
    comult = {}
    for k in range(p):
        data = {}
        for i in range(k + 1):
            c = field(math.comb(k, i))
            if c:
                data[(i, k - i)] = c
        comult[k] = data
    antipode = Matrix(field, p, p, {(k, k): field((-1) ** k) for k in range(p)})
    return WeakHopfAlgebra(field, p, mult, {0: one}, comult, {0: one}, antipode, labels)


def map_convolution(F: Matrix, G: Matrix, wb: WeakBialgebra) -> Matrix:
    """Convolution of linear endomorphisms: (F*G)(b) = F(b_1) G(b_2)."""
    fcols, gcols = F.column_dicts(), G.column_dicts()
    data = {}
    for k in wb.keys:
        for (i, j), c in wb.coproduct(k).items():
            for r, x in wb.multiply(fcols[i], gcols[j]).items():
                data[(r, k)] = data.get((r, k), wb.zero) + c * x
    return Matrix(wb.field, wb.dim, wb.dim, data)


def weak_counit_identities(wb: WeakBialgebra, a: dict, b: dict) -> AxiomReport:
    """Check eps(ab) = eps(a eps_t(b)) = eps(a eps_s'(b)) = eps(eps_t'(a) b) = eps(eps_s(a) b)."""
    report = AxiomReport()
    base = counit_value(wb, wb.multiply(a, b))
    pairs = (("counit_via_eps_t", wb.multiply(a, wb.eps_t(b))),
             ("counit_via_eps_s_prime", wb.multiply(a, wb.eps_s_prime(b))),
             ("counit_via_eps_t_prime", wb.multiply(wb.eps_t_prime(a), b)),
             ("counit_via_eps_s", wb.multiply(wb.eps_s(a), b)))
    for name, elt in pairs:
        report.check(name, counit_value(wb, elt), base,
                     witness=(wb.format_element(a), wb.format_element(b)))
    return report


def grouplike_identity_report(wb: WeakBialgebra, g: dict, power_bound=4) -> AxiomReport:
    """Identities a weak group-like must satisfy, with counit power tests.

    Checks g = eps_t(g) g = g eps_s(g); when an antipode exists, that
    eps_t(g) = g S(g) and eps_s(g) = S(g) g are idempotent; and the
    equivalences  eps_t(g) = 1  iff  eps(a g^m) = eps(a) for all basis a and
    m <= power_bound (likewise eps_s'(g)), and the mirrored statement for
    eps_s(g) / eps_t'(g) with powers on the left.  Each direction of every
    equivalence is recorded, so a one-sided discrepancy shows up as a
    failure rather than being reconciled silently.
    """
    report = AxiomReport()
    fmt = wb.format_element
    report.record("is_weak_grouplike", is_weak_grouplike(wb, g), witness=(fmt(g),))
    et, es = wb.eps_t(g), wb.eps_s(g)
    report.check("grouplike_eps_t_absorption", wb.multiply(et, g), g, witness=(fmt(g),), fmt=fmt)
    report.check("grouplike_eps_s_absorption", wb.multiply(g, es), g, witness=(fmt(g),), fmt=fmt)

    if isinstance(wb, WeakHopfAlgebra):
        sg = wb.antipode_matrix.apply(g)
        gsg = wb.multiply(g, sg)
        sgg = wb.multiply(sg, g)
        report.check("eps_t_equals_g_Sg", et, gsg, witness=(fmt(g),), fmt=fmt)
        report.check("eps_s_equals_Sg_g", es, sgg, witness=(fmt(g),), fmt=fmt)
        report.check("g_Sg_idempotent", wb.multiply(gsg, gsg), gsg, witness=(fmt(g),), fmt=fmt)
        report.check("Sg_g_idempotent", wb.multiply(sgg, sgg), sgg, witness=(fmt(g),), fmt=fmt)

    powers = [wb.unit]
    for _ in range(power_bound):
        powers.append(wb.multiply(powers[-1], g))
    eps = lambda v: counit_value(wb, v)
    right_power_test = all(
        eps(wb.multiply(wb.basis_vector(a), powers[m])) == eps(wb.basis_vector(a))
        for a in range(wb.dim) for m in range(1, power_bound + 1))
    left_power_test = all(
        eps(wb.multiply(powers[m], wb.basis_vector(a))) == eps(wb.basis_vector(a))
        for a in range(wb.dim) for m in range(1, power_bound + 1))
    report.check("power_counit_iff_eps_t", et == wb.unit, right_power_test, witness=(fmt(g),))
    report.check("power_counit_iff_eps_s_prime", wb.eps_s_prime(g) == wb.unit, right_power_test,
                 witness=(fmt(g),))
    report.check("power_counit_iff_eps_s", es == wb.unit, left_power_test, witness=(fmt(g),))
    report.check("power_counit_iff_eps_t_prime", wb.eps_t_prime(g) == wb.unit, left_power_test,
                 witness=(fmt(g),))
    return report


def grouplike_monoid_closed(wb: WeakBialgebra, elements) -> bool:
    """True iff the given weak group-likes are closed under multiplication."""
    keys = {tuple(sorted(g.items())) for g in elements}
    for a in elements:
        for b in elements:
            if tuple(sorted(wb.multiply(a, b).items())) not in keys:
                return False
    return True


def character_from_endo(wb: WeakBialgebra, sigma: Matrix) -> dict | None:
    """Recover chi = eps o sigma when sigma is a winding map.

    If Delta sigma = (id (x) sigma)Delta then sigma = tau_chi^r; if
    Delta sigma = (sigma (x) id)Delta then sigma = tau_chi^l.  Returns chi
    (verified against the winding) or None when neither identity holds.
    Raises ValidationError if sigma is not a unital algebra endomorphism.
    """
    witness = is_unital_algebra_endo(wb, sigma)
    if witness is not None:
        raise ValidationError(f"sigma is not a unital algebra endomorphism (witness {witness})")
    cols = sigma.column_dicts()

    def intertwines(left, right):  # Delta sigma = (left (x) right) Delta
        return all(wb.comultiply(cols[k]) == wb.map_legs(wb.coproduct(k), left, right)
                   for k in wb.keys)

    right = intertwines(None, cols.__getitem__)
    left = intertwines(cols.__getitem__, None)
    if not (left or right):
        return None
    chi = sigma.apply_functional(wb.counit_vector)
    if right and winding(wb, chi, "right") != sigma:
        return None
    if left and not right and winding(wb, chi, "left") != sigma:
        return None
    return chi


def char_antipode_report(wha: WeakHopfAlgebra, chi: dict) -> AxiomReport:
    """Antipode identities for a weak character chi (both-sided).

    (i)  S * tau_chi^r = eps_s o tau_chi^r  and  tau_chi^l * S = eps_t o tau_chi^l
    (ii) when chi o S is verified to be the convolution inverse of chi:
         S = tau_chi^l S tau_chi^r = tau_chi^r S tau_chi^l.
    The hypothesis of (ii) is recorded as its own entry.
    """
    report = AxiomReport()
    report.record("chi_weak_character_left", is_weak_character(wha, chi, "left"))
    report.record("chi_weak_character_right", is_weak_character(wha, chi, "right"))
    tau_r = winding(wha, chi, "right")
    tau_l = winding(wha, chi, "left")
    S = wha.antipode_matrix
    m_t, m_s = wha.counital_matrices()[:2]
    report.check("antipode_conv_right_winding", map_convolution(S, tau_r, wha), m_s * tau_r)
    report.check("antipode_conv_left_winding", map_convolution(tau_l, S, wha), m_t * tau_l)

    chi_s = S.apply_functional(chi)
    eps = wha.counit_vector
    inverse_hyp = (convolution(chi_s, chi, wha) == eps and convolution(chi, chi_s, wha) == eps)
    report.record("chi_S_is_convolution_inverse", inverse_hyp)
    if inverse_hyp:
        report.check("antipode_winding_conjugation", tau_l * S * tau_r, S)
        report.check("antipode_winding_conjugation", tau_r * S * tau_l, S)
    return report


def inner_coderivation(wb: WeakBialgebra, chi: dict) -> Matrix:
    """The (1,1)-coderivation a -> a_1 chi(a_2) - chi(a_1) a_2."""
    right, left = winding(wb, chi, "right").data, winding(wb, chi, "left").data
    delta = Matrix(wb.field, wb.dim, wb.dim,
                   {rc: right.get(rc, 0) - left.get(rc, 0) for rc in right.keys() | left.keys()})
    if not is_coderivation(wb, delta, wb.unit, wb.unit):
        raise ValidationError("inner coderivation fails the defining identity")
    return delta


def is_skew_primitive(view, x, g, h) -> bool:
    """Delta(x) = Delta(1)(g (x) x + x (x) h) = (g (x) x + x (x) h)Delta(1), exactly.

    view is the basis view both sides are computed on: a weak bialgebra R
    or an extended Ore algebra H; x and the two weak group-likes are
    elements of that view.
    """
    dx, d1 = view.comultiply(x), view.delta_one()
    mixed = view.add(view.pure(g, x), view.pure(x, h))
    return dx == view.tensor_mul(d1, mixed) and dx == view.tensor_mul(mixed, d1)


def skew_primitive_identity_report(view, x, g, h) -> AxiomReport:
    """Check x = eps_t(g) x + eps_t(x) h  and  x = g eps_s(x) + x eps_s(h) on ``view``."""
    report = AxiomReport()
    eps_t = lambda r: view.counital(r, 0, False)
    eps_s = lambda r: view.counital(r, 1, True)
    report.record("is_skew_primitive", is_skew_primitive(view, x, g, h))
    lhs_t = view.add(view.multiply(eps_t(g), x), view.multiply(eps_t(x), h))
    report.check("skew_primitive_eps_t_identity", lhs_t, x)
    lhs_s = view.add(view.multiply(g, eps_s(x)), view.multiply(x, eps_s(h)))
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
    dcols = delta.column_dicts()
    report.record("delta_is_coderivation", is_coderivation(wb, delta, g, h))
    hyp_g = wb.eps_s(g) == wb.unit
    hyp_h = wb.eps_s(h) == wb.unit
    report.record("hypothesis_eps_s_g_is_unit", hyp_g, witness=(wb.format_element(g),))
    report.record("hypothesis_eps_s_h_is_unit", hyp_h, witness=(wb.format_element(h),))
    if hyp_g and hyp_h:
        for k in wb.keys:
            report.check("counit_kills_delta", counit_value(wb, dcols[k]), wb.zero, witness=(k,))

    if sigma is not None:
        clauses = PanovClauses(wb, sigma, delta, g)
        hyp_rs = clauses.result("delta_kills_source_base").passed
        report.record("hypothesis_delta_kills_R_s", hyp_rs)
        hyp_sigma = clauses.result("sigma_is_left_winding").passed
        report.record("hypothesis_sigma_is_left_winding", hyp_sigma)
        if hyp_rs and hyp_sigma:
            for i in wb.keys:
                for j in wb.keys:
                    report.check("counit_kills_a_delta_b", wb.eps_mul(i, dcols[j]), wb.zero,
                                 witness=(i, j))
    return report


def centrality_report(wb: WeakBialgebra, sigma: Matrix, delta: Matrix,
                      g: dict, chi: dict) -> AxiomReport:
    """Under the extension hypotheses, g must be central; a failure is a finding.

    Hypotheses recorded: R cocommutative, chi o S is the convolution inverse
    of chi, and the antipode extension clauses hold.  The conclusion checks
    Ad_g = id on every basis element.
    """
    report = AxiomReport()
    cocommutative = all(t == {(j, i): c for (i, j), c in t.items()}
                        for t in wb.comult.values())
    report.record("hypothesis_cocommutative", cocommutative)
    if isinstance(wb, WeakHopfAlgebra):
        chi_s = wb.antipode_matrix.apply_functional(chi)
        eps = wb.counit_vector
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


def expand_skew_power(H, n: int) -> dict:
    """Exact (g (x) x + x (x) 1)^n = sum C[i][j] (x^i (x) x^j), with invariants asserted.

    Asserts C[n][0] = 1 (x) 1, C[i][0] = 0 for i < n, C[0][n] = g^n on the
    left leg, and that for j < n the left legs of C[0][j] lie in
    span{a delta(b)}.  Returns the tensor as a dict over H's monomial key pairs.
    """
    if n < 0:
        raise ValidationError("power must be nonnegative")
    tensor = H.skew_power_tensor(n)
    R = H.R
    one = R.unit
    if ore_slot(tensor, n, 0) != R.pure(one, one):
        raise ValidationError(f"C[{n},0] is not 1 (x) 1")
    for i in range(n):
        if ore_slot(tensor, i, 0):
            raise ValidationError(f"C[{i},0] is nonzero")
    gn = R.unit
    for _ in range(n):
        gn = R.multiply(gn, H.g)
    if ore_slot(tensor, 0, n) != R.pure(gn, one):
        raise ValidationError(f"C[0,{n}] is not g^{n} on the left leg")

    cols = [R.multiply(R.basis_vector(a), col) for a in range(R.dim)
            for col in H.delta.column_dicts()]
    span = Matrix.from_columns(R.field, R.dim, cols)
    for j in range(1, n):
        left_legs = {}
        for (r, s), c in ore_slot(tensor, 0, j).items():
            left_legs.setdefault(s, {})[r] = c
        for _, left in sorted(left_legs.items()):
            if solve(span, left) is None:
                raise ValidationError(
                    f"left leg of C[0,{j}] is not in span{{a delta(b)}}: {R.format_element(left)}")
    return tensor
