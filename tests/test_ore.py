import itertools
import random
from fractions import Fraction

import pytest

from weakhopf.bialgebra import base_subalgebras
from weakhopf.cli import main
from weakhopf.errors import ConditionsFailed, NotAutomorphism, NotDerivation, ValidationError
from weakhopf.fields import QQ
from weakhopf.fixtures import twisted_derivation_data
from weakhopf.groupoid import GroupPresentation
from weakhopf.linalg import Matrix, solve
from weakhopf.ore import OreAlgebra, extend_antipode, extend_coalgebra, make_ore, verify_extension

from lemmas import (ad_map, axiom_names, axiom_passed, basis_element, expand_skew_power, identity,
                    is_skew_primitive, skew_primitive_identity_report)
from oracles import ore_reference_product, ore_slot, ore_tensor, pure_tensor


@pytest.fixture(scope="module")
def sweedler_H(sweedler):
    return extend_antipode(make_ore(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g))


@pytest.fixture(scope="module")
def s5_H(s5_qz2):
    return extend_antipode(make_ore(s5_qz2.R, s5_qz2.sigma, s5_qz2.delta, s5_qz2.g))


# -- construction ------------------------------------------------------------


def test_make_ore_validates(sweedler):
    H = make_ore(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g)
    assert isinstance(H, OreAlgebra)


def test_make_ore_rejects_transpose(M2):
    transpose = Matrix(QQ, 4, 4, {(0, 0): Fraction(1), (3, 3): Fraction(1),
                                  (1, 2): Fraction(1), (2, 1): Fraction(1)})
    with pytest.raises(NotAutomorphism):
        make_ore(M2, transpose, Matrix.zero(QQ, 4, 4))


def test_make_ore_rejects_bad_derivation(QZ2):
    delta = Matrix(QQ, 2, 2, {(0, 1): Fraction(1)})
    with pytest.raises(NotDerivation):
        make_ore(QZ2, identity(QQ, 2), delta)


# -- normal-form multiplication -------------------------------------------------


def test_rewrite_sweedler(sweedler_H, sweedler):
    t = sweedler.R.basis_vector(1)
    x_t = sweedler_H.multiply(sweedler_H.x(), sweedler_H.embed(t))
    assert x_t == sweedler_H.monomial({1: Fraction(-1)}, 1)


def test_x_times_one(sweedler_H):
    assert sweedler_H.multiply(sweedler_H.x(), sweedler_H.unit) == sweedler_H.x()


def test_rewrite_with_derivation(s5_H, s5_qz2):
    t = s5_qz2.R.basis_vector(1)
    x_t = s5_H.multiply(s5_H.x(), s5_H.embed(t))
    expected = {(1, 1): Fraction(-1), (1, 0): Fraction(1), (0, 0): Fraction(-1)}  # -tx + t - 1
    assert x_t == expected


def _all_monomials(H, max_degree):
    for n in range(max_degree + 1):
        for b in range(H.R.dim):
            yield H.monomial(H.R.basis_vector(b), n)


@pytest.fixture(scope="module")
def s5_m2qz2_q():
    """Section-5 M_2(QZ_2) with q = 3/5, -7/2: -35/6 and -6/35 in sigma, delta zero."""
    return twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                   rho=[Fraction(1), Fraction(-1)],
                                   q=[Fraction(3, 5), Fraction(-7, 2)])


@pytest.mark.parametrize("name, delta_scale", [
    ("sweedler", 1), ("s5_qz2", 1), ("s5_qz2", Fraction(-5, 3)), ("s5_m2qz2_q", 1)],
    ids=["sweedler", "qz2", "qz2-delta-times-minus-5-3", "m2qz2-q"])
def test_products_match_reference_oracle(request, name, delta_scale):
    """Any multiple of a sigma-derivation is one: -5/3 puts denominators into delta."""
    data = request.getfixturevalue(name)
    dim = data.R.dim
    delta = Matrix(QQ, dim, dim, {rc: c * delta_scale for rc, c in data.delta.data.items()})
    H = make_ore(data.R, data.sigma, delta, data.g)
    one = H.field.one()
    keys = [(b, n) for n in range(4) for b in range(H.R.dim)]
    for (r, i), (u, j) in itertools.product(keys, repeat=2):
        expected = ore_reference_product(H.R, H.sigma, H.delta, {(r, i): one}, {(u, j): one})
        assert H.mono_mul(r, i, u, j) == expected
        assert H.multiply({(r, i): one}, {(u, j): one}) == expected
    rng = random.Random(7)
    scalars = [Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5), Fraction(-7, 4)]
    for _ in range(10):
        p, q = ({k: c for k in rng.sample(keys, 4) if (c := rng.choice(scalars))}
                for _ in range(2))
        expected = ore_reference_product(H.R, H.sigma, H.delta, p, q)
        assert H.multiply(p, q) == expected


@pytest.mark.parametrize("name, degree", [("sweedler", 1), ("sweedler", 3), ("s5_m2qz2_q", 2)])
def test_verify_extension_builds_each_x_power_once(monkeypatch, request, name, degree):
    """x_times runs once per table entry x^i b_u with 2 <= i <= 2D, and never again.

    The sweeps reach x^i b_u for i up to 2D: weak multiplicativity of the
    counit evaluates eps(k h) for the terms k of f m, of degree up to 2D.
    Row 1 comes from sigma and delta without x_times.
    """
    data = request.getfixturevalue(name)
    calls = []
    x_times = OreAlgebra.x_times
    monkeypatch.setattr(OreAlgebra, "x_times", lambda self, p: calls.append(p) or x_times(self, p))
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    assert verify_extension(H, degree).passed
    assert 0 < len(calls) <= H.R.dim * (2 * degree - 1)
    assert len({tuple(sorted(p.items())) for p in calls}) == len(calls)
    before = len(calls)
    assert verify_extension(H, degree).passed
    assert len(calls) == before


def test_multiplication_associative(sweedler_H, s5_H, s5_m2qz2):
    big = make_ore(s5_m2qz2.R, s5_m2qz2.sigma, s5_m2qz2.delta, s5_m2qz2.g)
    for H in (sweedler_H, s5_H, big):
        monos = list(_all_monomials(H, 2))
        for p, q, r in itertools.product(monos, repeat=3):
            assert H.multiply(H.multiply(p, q), r) == H.multiply(p, H.multiply(q, r))


def _degree(p):
    return max((n for _, n in p), default=-1)


def _coefficient(p, n):
    """The coefficient of x^n in p, as an element of R."""
    return {b: c for (b, m), c in p.items() if m == n}


def test_degree_bound_and_leading_terms(s5_H):
    rng = random.Random(41)
    R = s5_H.R

    def rand_poly():
        return {(i, n): c for n in range(rng.randint(1, 3)) for i in range(2)
                if (c := Fraction(rng.randint(-2, 2)))}

    for _ in range(30):
        p, q = rand_poly(), rand_poly()
        prod = s5_H.multiply(p, q)
        if not p or not q:
            assert prod == {}
            continue
        dp, dq, dprod = _degree(p), _degree(q), _degree(prod)
        assert dprod <= dp + dq
        expected_lead = R.multiply(_coefficient(p, dp),
                                   _sigma_power(s5_H, dp).apply(_coefficient(q, dq)))
        if expected_lead:
            assert dprod == dp + dq
            assert _coefficient(prod, dprod) == expected_lead


def _sigma_power(H, n):
    m = identity(H.field, H.R.dim)
    for _ in range(n):
        m = H.sigma * m
    return m


# -- skew power expansion -------------------------------------------------------


def test_expansion_degree_one(sweedler_H, sweedler):
    coeffs = expand_skew_power(sweedler_H, 1)
    R = sweedler.R
    assert ore_slot(coeffs, 1, 0) == pure_tensor(R.unit, R.unit)
    assert ore_slot(coeffs, 0, 1) == pure_tensor(sweedler.g, R.unit)


def test_expansion_sweedler_degree_two(sweedler_H, sweedler):
    coeffs = expand_skew_power(sweedler_H, 2)
    R = sweedler.R
    assert ore_slot(coeffs, 2, 0) == pure_tensor(R.unit, R.unit)
    assert ore_slot(coeffs, 1, 1) == {}  # tx (x) x + xt (x) x = 0
    assert ore_slot(coeffs, 0, 2) == pure_tensor(R.unit, R.unit)  # t^2 = 1


def test_expansion_zero_derivation_kills_lower_terms(sweedler_H):
    for n in range(5):
        coeffs = expand_skew_power(sweedler_H, n)
        for j in range(1, n):
            assert ore_slot(coeffs, 0, j) == {}


def test_expansion_invariants_with_nonzero_delta(s5_H):
    for n in range(5):
        coeffs = expand_skew_power(s5_H, n)  # invariants asserted internally
        assert ore_slot(coeffs, n, 0) == pure_tensor(s5_H.R.unit, s5_H.R.unit)


# -- coalgebra extension ----------------------------------------------------------


def test_extension_requires_conditions(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    sigma = ad_map(M2, swap)
    H = make_ore(M2, sigma, Matrix.zero(QQ, 4, 4), swap)
    with pytest.raises(ConditionsFailed) as exc:
        extend_coalgebra(H)
    failing = {c.clause for c in exc.value.verdict.clauses if not c.passed}
    assert failing == {"sigma_is_left_winding"}


def test_coproduct_of_x_sweedler(sweedler_H, sweedler):
    R = sweedler.R
    dx = sweedler_H.comultiply(sweedler_H.x())
    expected = ore_tensor({
        (0, 1): pure_tensor(sweedler.g, R.unit),
        (1, 0): pure_tensor(R.unit, R.unit)})
    assert dx == expected


def test_coproduct_of_x_squared_sweedler(sweedler_H, sweedler):
    R = sweedler.R
    x2 = sweedler_H.x(2)
    dx2 = sweedler_H.comultiply(x2)
    expected = ore_tensor({
        (0, 2): pure_tensor(R.unit, R.unit),
        (2, 0): pure_tensor(R.unit, R.unit)})
    assert dx2 == expected


def test_counit_reads_degree_zero(sweedler_H, sweedler):
    R = sweedler.R
    p = sweedler_H.embed(R.basis_vector(1)) | {(0, 1): Fraction(3)} | sweedler_H.x(2)
    assert sum(c * sweedler_H.counit(k) for k, c in p.items()) == Fraction(1)


def test_coproduct_restricts_to_R(sweedler_H, sweedler):
    for k in range(sweedler.R.dim):
        d = sweedler_H.coproduct((k, 0))
        assert d == ore_tensor({(0, 0): sweedler.R.coproduct(k)})


def test_coproduct_degree_support(s5_H):
    for n in range(4):
        for b in range(s5_H.R.dim):
            d = s5_H.coproduct((b, n))
            degrees = {i + j for ((_, i), (_, j)) in d}
            assert all(t <= n for t in degrees)
            assert n in degrees


def test_unextended_structure_is_refused(sweedler):
    """Coproducts, antipodes and skew powers are refused, each with its message,
    when H lacks the extension or g they need."""
    H = make_ore(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g)
    no_coproduct = "coalgebra structure not extended; call extend_coalgebra first"
    for refused in (lambda: verify_extension(H, 1), lambda: H.coproduct((0, 0))):
        with pytest.raises(ValidationError) as exc:
            refused()
        assert str(exc.value) == no_coproduct
    with pytest.raises(ValidationError) as exc:
        extend_coalgebra(H).antipode((0, 1))
    assert str(exc.value) == "antipode not extended; call extend_antipode first"
    with pytest.raises(ValidationError) as exc:
        make_ore(sweedler.R, sweedler.sigma, sweedler.delta).skew_power_tensor(1)
    assert str(exc.value) == "no weak group-like g attached to this Ore algebra"


def test_unextended_coalgebra_is_refused_before_any_product(count_calls, s5_m2qz2):
    """verify_extension reads H's coproducts before its products, so an H whose
    coalgebra is not extended is refused before one monomial product is computed
    (section-5 M_2(QZ_2) at degree bound 6 tabulates 5,824 of them)."""
    d = s5_m2qz2
    H = make_ore(d.R, d.sigma, d.delta, d.g)
    calls = count_calls("OreAlgebra.mono_mul")
    with pytest.raises(ValidationError, match="coalgebra structure not extended"):
        verify_extension(H, 6)
    assert calls["OreAlgebra.mono_mul"] == 0


# -- antipode extension -------------------------------------------------------------


def test_antipode_of_x(sweedler_H, sweedler):
    s_x = sweedler_H.apply(sweedler_H.antipode, sweedler_H.x())
    assert s_x == sweedler_H.monomial({1: Fraction(-1)}, 1)


def test_antipode_fixes_unit(sweedler_H):
    assert sweedler_H.apply(sweedler_H.antipode, sweedler_H.unit) == sweedler_H.unit


def test_antipode_of_tx(sweedler_H, sweedler):
    tx = sweedler_H.monomial(sweedler.R.basis_vector(1), 1)
    assert sweedler_H.apply(sweedler_H.antipode, tx) == sweedler_H.x()


def test_generator_is_skew_primitive_in_H(sweedler_H, sweedler):
    assert is_skew_primitive(sweedler_H, sweedler_H.x(),
                             sweedler_H.embed(sweedler.g), sweedler_H.unit)
    # g = t, so x is not (1,1)-primitive: Delta(x) = t (x) x + x (x) 1
    assert is_skew_primitive(sweedler_H, sweedler_H.x(), sweedler_H.unit, sweedler_H.unit) is False
    report = skew_primitive_identity_report(sweedler_H, sweedler_H.x(),
                                            sweedler_H.embed(sweedler.g), sweedler_H.unit)
    assert report.passed
    assert sweedler_H.counital(sweedler_H.x(), 0, False) == {}  # eps_t(x)


def test_noncentral_g_fails_the_generator_clauses(M2):
    """g = E12 does not commute with Delta(1) = E11 (x) E11 + E22 (x) E22, so neither
    does the skew element, and Delta(x) = Delta(1) skew holds but Delta(x) = skew Delta(1) fails."""
    g = basis_element(M2, 0, 0, 1)
    H = OreAlgebra(M2, identity(QQ, 4), Matrix.zero(QQ, 4, 4), g, _coalgebra_extended=True)
    failing = [(f.axiom, f.witness) for f in verify_extension(H, 0).failures()]
    assert failing[:2] == [("generator_coproduct_delta_one_commute", None),
                           ("generator_skew_primitive", ("right",))]


# -- full verification ----------------------------------------------------------------


def test_verify_extension_sweedler(sweedler_H):
    report = verify_extension(sweedler_H, 3)
    assert report.passed


def test_verify_extension_section5(s5_H):
    report = verify_extension(s5_H, 3)
    assert report.passed


def test_eps_t_and_eps_s_kill_x_monomials(sweedler_H, s5_H):
    for H in (sweedler_H, s5_H):
        for n in range(3):
            for b in range(H.R.dim):
                hx = H.multiply(H.monomial(H.R.basis_vector(b), n), H.x())
                assert H.counital(hx, 0, False) == {}  # eps_t
                assert H.counital(hx, 1, True) == {}  # eps_s


def test_H_source_base_equals_R_source_base(sweedler_H, s5_H):
    for H in (sweedler_H, s5_H):
        _, basis_s = base_subalgebras(H.R)
        images = []
        for n in range(4):
            for b in range(H.R.dim):
                img = H.counital(H.monomial(H.R.basis_vector(b), n), 1, True)  # eps_s
                assert _degree(img) <= 0
                if img:
                    images.append(_coefficient(img, 0))
        span_s = Matrix.from_columns(H.field, H.R.dim, basis_s)
        for img in images:
            assert solve(span_s, img) is not None
        span_images = Matrix.from_columns(H.field, H.R.dim, images)
        for a in basis_s:
            assert solve(span_images, a) is not None


def test_corrupted_antipode_sign_fails_antipode_axioms(sweedler):
    good = extend_antipode(make_ore(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g))
    s_g = sweedler.R.antipode_matrix.apply(sweedler.g)
    s_x = {(b, 1): c for b, c in sweedler.R.multiply(s_g, sweedler.R.unit).items()}
    bad = OreAlgebra(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g,
                     _coalgebra_extended=True, s_x=s_x)  # sign flipped: +S(g)x
    report = verify_extension(bad, 2)
    assert not report.passed
    failing = {name for name in axiom_names(report) if not axiom_passed(report, name)}
    assert failing <= {"antipode_vs_target_counital", "antipode_vs_source_counital",
                       "antipode_composition"}
    assert "antipode_vs_target_counital" in failing
    first = report.failures("antipode_vs_target_counital")[0]
    assert first.witness[1] == 1  # a degree-1 witness
    assert axiom_passed(report, "coproduct_multiplicative")
    assert axiom_passed(report, "counit_weak_multiplicative")


def test_ore_build_reads_the_base_subalgebras_of_r_once(count_calls, tmp_path):
    """extend_antipode's clause delta_kills_source_base and verify_extension's
    source_base_commutes_with_x read one R_s, cached on R: one column space
    each for R_t and R_s."""
    spec = str(tmp_path / "sweedler.json")
    assert main(["example", "sweedler", "-o", spec]) == 0
    calls = count_calls("column_space_basis")
    assert main(["ore", "build", spec, "--verify-degree", "2"]) == 0
    assert calls["column_space_basis"] == 2
