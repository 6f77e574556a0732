"""The certificate that decides Delta(ab) = Delta(a) Delta(b) on H in every degree.

``verify_extension`` records ``coproduct_multiplicative`` from R's own pair
sweep, with no sweep of H's monomial pairs, when its four premises hold:
R is associative and unital, R's coproduct is multiplicative, (sigma, delta)
passes ``skew_derivation`` and the three generator clauses pass (the lemma
in its docstring).  Otherwise it runs the sweep of H's pairs of degree
<= D.  The certified verdict must equal that sweep's on every datum, and
where a premise fails the report must be the one the full sweep gives,
line for line and failure for failure, sides included.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forced_ore import forced_section5
from lemmas import axiom_passed, basis_element, identity
from test_integer_view import ORE_CASES
from weakhopf import ore
from weakhopf.bialgebra import WeakHopfAlgebra, algebra_report, sweep_coproduct_multiplicative
from weakhopf.coderivations import skew_derivation
from weakhopf.errors import NotAutomorphism, NotDerivation, TooLarge, ValidationError
from weakhopf.fields import QQ
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, group_algebra, matrix_algebra
from weakhopf.linalg import Matrix
from weakhopf.ore import OreAlgebra, refuse_large_degree, verify_extension
from weakhopf.report import AxiomReport

AXIOM = "coproduct_multiplicative"
CLAUSES = ("generator_coproduct_delta_one_commute", "generator_skew_primitive",
           "coproduct_commutation_rule")


def _swept(view):
    """coproduct_multiplicative swept over the pairs of the view's keys: R's basis, or
    H's monomials of degree <= D on ``H.integer_view(D)``."""
    report = AxiomReport()
    sweep_coproduct_multiplicative(view, report)
    return report


def _premises_hold(H, report):
    """The four premises, each read here from its own check; the generator clauses,
    which read monomials of degree <= 1 only, from a report of verify_extension."""
    R = H.R
    try:
        skew_derivation(R, H.sigma, H.delta)
    except (NotAutomorphism, NotDerivation):
        return False
    return (algebra_report(R).passed and _swept(H.R.integer_view).passed
            and not any(report.failures(name) for name in CLAUSES))


@pytest.mark.parametrize("name", ORE_CASES)
def test_certified_verdict_agrees_with_the_pair_sweep(name):
    """At every degree bound D <= 6 the guard admits, verify_extension's verdict and
    failures on coproduct_multiplicative equal those of the sweep of H's monomial
    pairs, and the scope reads "all degrees" exactly where the premises hold: on
    every case but the two forced section-5 data, whose sweep fails from D = 1."""
    H = ORE_CASES[name]()
    certified = _premises_hold(H, verify_extension(H, 0))
    assert certified != name.startswith("forced-section5")
    degrees = []
    for degree in range(7):
        try:
            refuse_large_degree(H.R, degree)
        except TooLarge:
            break
        degrees.append(degree)
        report, swept = verify_extension(H, degree), _swept(H.integer_view(degree))
        assert report.failures(AXIOM) == swept.failures(AXIOM)
        assert axiom_passed(report, AXIOM) == swept.passed
        assert report.scope(AXIOM) == ("all degrees" if certified else f"degree <= {degree}")
        assert swept.passed == (certified or degree == 0)
    assert degrees[-1] >= 4


# -- one negative control per premise --------------------------------------------------


def _sigma_not_an_algebra_map():
    """Sweedler's data with sigma(t) = 2t: the clauses pass, sigma(t)^2 = 4 != sigma(1)."""
    d = sweedler_data()
    sigma = Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(2)})
    return OreAlgebra(d.R, sigma, d.delta, d.g, _coalgebra_extended=True)


def _group_algebra_base(mult=(), comult=(), unit=None):
    """R = QZ_3 (basis 1, t, t^2) with some entries of mult and comult, or the unit,
    replaced, not validated; sigma = id, delta = 0, g = 1."""
    R = group_algebra(GroupPresentation.cyclic(3))
    broken = WeakHopfAlgebra(QQ, 3, {**R.mult, **dict(mult)}, unit or R.unit,
                             {**R.comult, **dict(comult)}, R.counit_vector, R.antipode_matrix,
                             R.labels, validate=False)
    return OreAlgebra(broken, identity(QQ, 3), Matrix.zero(QQ, 3, 3), broken.unit,
                      _coalgebra_extended=True)


def _noncentral_g():
    """g = E12 in M_2, the data of test_noncentral_g_fails_the_generator_clauses."""
    M2 = matrix_algebra(2)
    return OreAlgebra(M2, identity(QQ, 4), Matrix.zero(QQ, 4, 4), basis_element(M2, 0, 0, 1),
                      _coalgebra_extended=True)


one = Fraction(1)
# name: (build, the premise it breaks, read off its own check)
CONTROLS = {
    "sigma-not-an-algebra-map": (
        _sigma_not_an_algebra_map,
        lambda H: pytest.raises(NotAutomorphism, skew_derivation, H.R, H.sigma, H.delta)),
    "delta-not-a-derivation": (
        lambda: forced_section5("delta"),
        lambda H: pytest.raises(NotDerivation, skew_derivation, H.R, H.sigma, H.delta)),
    "R-not-unital": (  # 1 t = 2t
        lambda: _group_algebra_base(mult={(0, 1): {1: Fraction(2)}}),
        lambda H: algebra_report(H.R).failures("unital")),
    "R-not-associative": (  # t t^2 = 1 + t while t^2 t = 1
        lambda: _group_algebra_base(mult={(1, 2): {0: one, 1: one}}),
        lambda H: algebra_report(H.R).failures("associative")),
    "R-coproduct-not-multiplicative": (  # Delta(t^2) = t^2 (x) 1
        lambda: _group_algebra_base(comult={2: {(2, 0): one}}),
        lambda H: not _swept(H.R.integer_view).passed),
    "g-not-central": (
        _noncentral_g,
        lambda H: verify_extension(H, 0).failures("generator_skew_primitive")),
}


@pytest.mark.parametrize("degree", [0, 2])
@pytest.mark.parametrize("name", CONTROLS)
def test_a_failing_premise_leaves_the_full_sweep(monkeypatch, name, degree):
    """Each control breaks one premise, built directly past every validation: the
    report is not certified and equals, lines and failures alike, the report of
    verify_extension with the certificate held off, so that the sweep always runs."""
    build, premise_fails = CONTROLS[name]
    H = build()
    assert premise_fails(H)
    report = verify_extension(H, degree)
    assert report.scope(AXIOM) == f"degree <= {degree}"
    monkeypatch.setattr(ore, "_multiplicative_in_every_degree", lambda H, clauses: None)
    full = verify_extension(build(), degree)
    assert report.lines() == full.lines()
    assert report.failures() == full.failures()


SWEEPS = ("sweep_unital", "sweep_associative", "sweep_coproduct_multiplicative",
          "sweep_coassociative", "sweep_counit_neutral", "sweep_counit_weak_multiplicative",
          "sweep_unit_compatibility", "sweep_antipode")


def test_a_unit_that_is_not_a_unit_raises_before_any_sweep(count_calls):
    """QZ_3 with unit 2*1, not validated: verify_extension raises from base_subalgebras
    (2*1 fails the R_t characterization) before it builds H's integer view or runs
    any sweep of R or of H."""
    H = _group_algebra_base(unit={0: Fraction(2)})
    calls = count_calls("OreAlgebra.integer_view", *SWEEPS)
    with pytest.raises(ValidationError,
                       match=re.escape("R_t member fails coproduct characterization: 2*1")):
        verify_extension(H, 2)
    assert not calls


# -- a property test over perturbed section-5 data --------------------------------------

RHOS = {2: ([1, 1], [1, -1]), 3: ([1, 1, 1],), 4: ([1, 1, 1, 1], [1, -1, 1, -1])}
TOP_DEGREE = {2: 3, 3: 3, 4: 3, 8: 2, 12: 1, 16: 1}  # by dim, to keep each example fast
nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)


def _perturbed(data, target, seed):
    """H built directly on the data, one entry of g, sigma or delta (or none) moved by
    a seeded nonzero rational."""
    rng, dim = random.Random(seed), data.R.dim
    c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
    i, j = rng.randrange(dim), rng.randrange(dim)
    sigma, delta, g = data.sigma, data.delta, dict(data.g)
    if target == "g":
        g[i] = g.get(i, 0) + c
        g = {k: v for k, v in g.items() if v}
    elif target:
        m = sigma if target == "sigma" else delta
        m = Matrix(QQ, dim, dim, {**m.data, (i, j): m.data.get((i, j), 0) + c})
        sigma, delta = (m, delta) if target == "sigma" else (sigma, m)
    return OreAlgebra(data.R, sigma, delta, g, _coalgebra_extended=True)


@settings(max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(order=st.sampled_from(sorted(RHOS)), n=st.integers(1, 2), data=st.data())
def test_certified_verdict_equals_the_sweep_on_perturbed_section5_data(order, n, data):
    """Section-5 M_n(QZ_m) data, m in {2, 3, 4}, n <= 2, rational q, and one seeded
    perturbation of g, sigma or delta, or none; at D <= 3 (less on the larger dims)
    the verdict on coproduct_multiplicative equals the sweep's, and the scope reads
    "all degrees" exactly where the premises hold."""
    rho = data.draw(st.sampled_from(RHOS[order]))
    q = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    target = data.draw(st.sampled_from(["g", "sigma", "delta", None]))
    seed = data.draw(st.integers(0, 2 ** 16))
    section5 = twisted_derivation_data(GroupPresentation.cyclic(order), n, rho=rho, q=q)
    degree = data.draw(st.integers(0, TOP_DEGREE[section5.R.dim]))
    H = _perturbed(section5, target, seed)
    report, swept = verify_extension(H, degree), _swept(H.integer_view(degree))
    assert report.failures(AXIOM) == swept.failures(AXIOM)
    assert axiom_passed(report, AXIOM) == swept.passed
    certified = _premises_hold(H, report)
    assert report.scope(AXIOM) == ("all degrees" if certified else f"degree <= {degree}")
    assert swept.passed or not certified
