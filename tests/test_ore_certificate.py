"""The certificates that decide axioms of H = R[x; sigma, delta] in every degree from R.

``verify_extension`` decides four axioms with no sweep of H's monomials
when the premises of their lemma (in its docstring) hold, and records R's
checks for them: coproduct_unit_compatibility always; counit_kills_x_sandwich
when eps(a delta(b)) = 0 on R (P6); coproduct_multiplicative when R is
associative and unital (P1), R's coproduct is multiplicative (P2), (sigma,
delta) passes ``skew_derivation`` (P3) and the three generator clauses pass
(P4); counit_weak_multiplicative when besides R's own counit sweep passes
(P5) and (P6) holds.  Otherwise the sweep of H's monomials of degree <= D
runs.  The certified report must equal the one with every sweep run on H
(``_all_sweeps``, every certificate held off through the one seam
``ore._certificates``), line for line and failure for failure, sides
included, on every datum and wherever a premise fails.
"""

import random
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forced_ore import forced_section5, sign_flipped_sweedler
from lemmas import axiom_names, axiom_passed, basis_element, identity
from test_integer_view import ORE_CASES
from weakhopf import ore
from weakhopf.bialgebra import (WeakHopfAlgebra, algebra_report, base_subalgebras,
                                check_weak_bialgebra, sweep_coproduct_multiplicative,
                                sweep_counit_weak_multiplicative)
from weakhopf.cli import main
from weakhopf.coderivations import skew_derivation
from weakhopf.errors import NotAutomorphism, NotDerivation, TooLarge, ValidationError
from weakhopf.fields import QQ
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, group_algebra, matrix_algebra
from weakhopf.linalg import Matrix
from weakhopf.ore import (OreAlgebra, extend_antipode, extend_coalgebra, make_ore,
                          refuse_large_degree, verify_extension)
from weakhopf.panov import ClauseResult
from weakhopf.report import AxiomReport

MULTIPLICATIVE, WEAK, SANDWICH = ("coproduct_multiplicative", "counit_weak_multiplicative",
                                  "counit_kills_x_sandwich")
CERTIFIED = (MULTIPLICATIVE, WEAK, SANDWICH)
CLAUSES = ("generator_coproduct_delta_one_commute", "generator_skew_primitive",
           "coproduct_commutation_rule")


def _swept(view, sweep=sweep_coproduct_multiplicative):
    """One shared sweep over the view's keys: R's basis, or H's monomials of degree
    <= D on ``H.integer_view(D)``."""
    report = AxiomReport()
    sweep(view, report)
    return report


def _all_sweeps(H, degree):
    """verify_extension with every certificate held off, so that every axiom is swept
    over H's monomials of degree <= degree."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ore, "_certificates", lambda H, clauses: {})
        return verify_extension(H, degree)


def _integer_views(monkeypatch):
    """The list of every H.integer_view built from now on, in order; each view's
    ``reads`` is the set of monomial pairs (a, b) the sweeps read through its
    ``product(a, b)``."""
    views, integer_view = [], OreAlgebra.integer_view

    def recording(self, *args):
        view = integer_view(self, *args)
        view.reads, product = set(), view.product
        view.product = lambda a, b: view.reads.add((a, b)) or product(a, b)
        views.append(view)
        return view
    monkeypatch.setattr(OreAlgebra, "integer_view", recording)
    return views


def _assert_reads_within(view, left, right, dim):
    """The sweeps read products only with a left factor of degree <= left and a right
    factor of degree <= right, at most (left + 1)(right + 1) dim^2 of them."""
    assert all(a[1] <= left and b[1] <= right for a, b in view.reads)
    assert len(view.reads) <= (left + 1) * (right + 1) * dim ** 2


def _counit_kills_delta(H):
    """(P6) in field scalars on R itself: eps(b_i delta(b_k)) = 0 for all i, k."""
    R = H.R
    return not any(sum((c * R.counit(r) for r, c in R.multiply({i: R.one}, col).items()), R.zero)
                   for i in R.keys for col in H.delta.column_dicts())


def _premises(H, report):
    """{axiom: whether the premises of its lemma hold}, each premise read here from its
    own check; the generator clauses (P4), which read monomials of degree <= 1 only,
    from a report of verify_extension."""
    R = H.R
    try:
        skew_derivation(R, H.sigma, H.delta)
    except (NotAutomorphism, NotDerivation):
        ore_data = False
    else:
        ore_data = True
    lemma_a = (ore_data and algebra_report(R).passed and _swept(R.integer_view).passed
               and not any(report.failures(name) for name in CLAUSES))
    orthogonal = _counit_kills_delta(H)
    weak = _swept(R.integer_view, sweep_counit_weak_multiplicative).passed
    return {MULTIPLICATIVE: lemma_a, SANDWICH: orthogonal, WEAK: lemma_a and orthogonal and weak}


def _assert_full_report(report, full, premises, degree):
    """The report equals the all-sweeps report, and each certified axiom's scope reads
    "all degrees" exactly where its premises hold."""
    assert report.lines() == full.lines()
    assert report.failures() == full.failures()
    for axiom in CERTIFIED:
        assert report.scope(axiom) == ("all degrees" if premises[axiom] else f"degree <= {degree}")
        assert full.scope(axiom) == f"degree <= {degree}"
        assert axiom_passed(full, axiom) or not premises[axiom]
    assert report.scope("coproduct_unit_compatibility") == "all degrees"


@pytest.mark.parametrize("name", ORE_CASES)
def test_certified_verdict_agrees_with_the_pair_sweep(monkeypatch, name):
    """At every degree bound D <= 6 the guard admits, verify_extension's report equals
    the one with every axiom swept on H's monomials, and a certified axiom's scope reads
    "all degrees" exactly where its premises hold: on every case but the two forced
    section-5 data, whose sweep of Delta(ab) fails from D = 1, except the x-sandwich
    of the one with g perturbed, whose delta still has eps(a delta(b)) = 0.  Every case
    has an antipode; where all three are certified, the sweeps read from H's integer
    view only products of left and right degree <= D (the antipode axioms), at most
    (D + 1)^2 dim^2 of them."""
    views = _integer_views(monkeypatch)
    H = ORE_CASES[name]()
    premises = _premises(H, verify_extension(H, 0))
    forced = name.startswith("forced-section5")
    assert premises == {MULTIPLICATIVE: not forced, WEAK: not forced,
                        SANDWICH: name != "forced-section5-delta"}
    degrees = []
    for degree in range(7):
        try:
            refuse_large_degree(H.R, degree)
        except TooLarge:
            break
        degrees.append(degree)
        views.clear()
        report = verify_extension(H, degree)
        if all(premises.values()):
            (ints,) = views
            assert H.antipode_extended and ints.reads
            _assert_reads_within(ints, degree, degree, H.R.dim)
        full = _all_sweeps(ORE_CASES[name](), degree)
        _assert_full_report(report, full, premises, degree)
        assert axiom_passed(full, MULTIPLICATIVE) == (not forced or degree == 0)
    assert degrees[-1] >= 4


# -- one negative control per premise --------------------------------------------------


def _sigma_not_an_algebra_map():
    """Sweedler's data with sigma(t) = 2t: the clauses pass, sigma(t)^2 = 4 != sigma(1)."""
    d = sweedler_data()
    sigma = Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(2)})
    return OreAlgebra(d.R, sigma, d.delta, d.g, _coalgebra_extended=True)


def _group_algebra_base(mult=(), comult=(), unit=None, counit=()):
    """R = QZ_3 (basis 1, t, t^2) with some entries of mult, comult or the counit, or
    the unit, replaced, not validated; sigma = id, delta = 0, g = 1."""
    R = group_algebra(GroupPresentation.cyclic(3))
    broken = WeakHopfAlgebra(QQ, 3, {**R.mult, **dict(mult)}, unit or R.unit,
                             {**R.comult, **dict(comult)}, {**R.counit_vector, **dict(counit)},
                             R.antipode_matrix, R.labels, validate=False)
    return OreAlgebra(broken, identity(QQ, 3), Matrix.zero(QQ, 3, 3), broken.unit,
                      _coalgebra_extended=True)


def _noncentral_g():
    """g = E12 in M_2, the data of test_noncentral_g_fails_the_generator_clauses."""
    M2 = matrix_algebra(2)
    return OreAlgebra(M2, identity(QQ, 4), Matrix.zero(QQ, 4, 4), basis_element(M2, 0, 0, 1),
                      _coalgebra_extended=True)


def _inner_delta_on_sweedler():
    """Sweedler's data with delta(a) = a - sigma(a), the inner sigma-derivation of 1:
    delta(t) = 2t, so eps(1 delta(t)) = 2."""
    d = sweedler_data()
    delta = Matrix(QQ, 2, 2, {(1, 1): Fraction(2)})
    return OreAlgebra(d.R, d.sigma, delta, d.g, _coalgebra_extended=True)


one = Fraction(1)
LEMMA_A = (MULTIPLICATIVE, WEAK)
# name: (build, the premise it breaks read off its own check, the axioms it leaves swept)
CONTROLS = {
    "sigma-not-an-algebra-map": (  # (P3)
        _sigma_not_an_algebra_map,
        lambda H: pytest.raises(NotAutomorphism, skew_derivation, H.R, H.sigma, H.delta),
        LEMMA_A),
    "delta-not-a-derivation": (  # (P3)
        lambda: forced_section5("delta"),
        lambda H: pytest.raises(NotDerivation, skew_derivation, H.R, H.sigma, H.delta),
        LEMMA_A),
    "R-not-unital": (  # (P1): 1 t = 2t
        lambda: _group_algebra_base(mult={(0, 1): {1: Fraction(2)}}),
        lambda H: algebra_report(H.R).failures("unital"), LEMMA_A),
    "R-not-associative": (  # (P1): t t^2 = 1 + t while t^2 t = 1
        lambda: _group_algebra_base(mult={(1, 2): {0: one, 1: one}}),
        lambda H: algebra_report(H.R).failures("associative"), LEMMA_A),
    "R-coproduct-not-multiplicative": (  # (P2): Delta(t^2) = t^2 (x) 1
        lambda: _group_algebra_base(comult={2: {(2, 0): one}}),
        lambda H: not _swept(H.R.integer_view).passed, LEMMA_A),
    "g-not-central": (  # (P4)
        _noncentral_g,
        lambda H: verify_extension(H, 0).failures("generator_skew_primitive"), LEMMA_A),
    "R-counit-not-weakly-multiplicative": (  # (P5): eps(t) = 2
        lambda: _group_algebra_base(counit={1: Fraction(2)}),
        lambda H: not _swept(H.R.integer_view, sweep_counit_weak_multiplicative).passed,
        (WEAK,)),
    "eps-delta-not-zero": (  # (P6)
        _inner_delta_on_sweedler,
        lambda H: not _counit_kills_delta(H), (SANDWICH, WEAK)),
}


@pytest.mark.parametrize("degree", [0, 2])
@pytest.mark.parametrize("name", CONTROLS)
def test_a_failing_premise_leaves_the_full_sweep(name, degree):
    """Each control breaks one premise, built directly past every validation: the
    axioms whose lemma needs it are not certified, and the report equals, lines and
    failures alike, the report of verify_extension with every certificate held off."""
    build, premise_fails, swept = CONTROLS[name]
    H = build()
    assert premise_fails(H)
    report = verify_extension(H, degree)
    premises = _premises(H, report)
    assert not any(premises[axiom] for axiom in swept)
    _assert_full_report(report, _all_sweeps(build(), degree), premises, degree)


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


def test_a_source_base_member_off_its_characterization_raises_before_any_sweep(count_calls):
    """QZ_2 with Delta(1) = 1 (x) 1 + t (x) 1, not validated: R_t passes its coproduct
    characterization and the R_s member 1 + t fails its own, so base_subalgebras
    raises, and verify_extension raises the same on the coalgebra-extended H with
    Sweedler's sigma and delta and g = t before it builds H's integer view or runs
    any sweep of R or of H."""
    R = group_algebra(GroupPresentation.cyclic(2))
    bad = WeakHopfAlgebra(QQ, 2, R.mult, R.unit, {**R.comult, 0: {(0, 0): 1, (1, 0): 1}},
                          R.counit_vector, R.antipode_matrix, R.labels, validate=False)
    message = re.escape("R_s member fails coproduct characterization: 1 + t")
    with pytest.raises(ValidationError, match=message):
        base_subalgebras(bad)
    d = sweedler_data()
    H = OreAlgebra(bad, d.sigma, d.delta, bad.basis_vector(1), _coalgebra_extended=True)
    calls = count_calls("OreAlgebra.integer_view", *SWEEPS)
    with pytest.raises(ValidationError, match=message):
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
    the report equals the one with every axiom swept on H, and each certified axiom's
    scope reads "all degrees" exactly where its premises hold."""
    rho = data.draw(st.sampled_from(RHOS[order]))
    q = data.draw(st.lists(nonzero, min_size=n, max_size=n))
    target = data.draw(st.sampled_from(["g", "sigma", "delta", None]))
    seed = data.draw(st.integers(0, 2 ** 16))
    section5 = twisted_derivation_data(GroupPresentation.cyclic(order), n, rho=rho, q=q)
    degree = data.draw(st.integers(0, TOP_DEGREE[section5.R.dim]))
    report = verify_extension(_perturbed(section5, target, seed), degree)
    H = _perturbed(section5, target, seed)
    _assert_full_report(report, _all_sweeps(H, degree), _premises(H, report), degree)


# -- what a certified datum skips -------------------------------------------------------


def _coalgebra_only():
    """Section-5 M_1(QZ_2), q = 3/5, with its coalgebra extended and no antipode."""
    d = twisted_derivation_data(GroupPresentation.cyclic(2), 1, rho=[1, -1], q=[Fraction(3, 5)])
    return extend_coalgebra(make_ore(d.R, d.sigma, d.delta, d.g))


@pytest.mark.parametrize("build", [*(ORE_CASES[name] for name in ORE_CASES
                                     if not name.startswith("forced-section5")),
                                   _coalgebra_only])
def test_a_certified_datum_builds_and_sweeps_nothing_above_what_runs(monkeypatch, build):
    """With all three certificates, no weak counit or x-sandwich sweep reads H's integer
    view, and its source computes no coproduct above degree D.  With an antipode, whose
    axioms read left factors up to degree D, the sweeps read products of left degree
    reaching D, at most (D + 1)^2 dim^2 of them; without one they read no product,
    and the source computes only the products of left degree <= 1 that build the skew
    powers X^n = X X^(n-1) of the coproducts."""
    degree, H = 3, build()
    views, counit_views, sandwiches = _integer_views(monkeypatch), [], []
    counit_sweep = ore.sweep_counit_weak_multiplicative
    monkeypatch.setattr(ore, "sweep_counit_weak_multiplicative",
                        lambda view, report: counit_views.append(view) or counit_sweep(view, report))
    monkeypatch.setattr(ore, "_sweep_x_sandwich", lambda view, report: sandwiches.append(view))
    report = verify_extension(H, degree)
    assert all(report.scope(axiom) == "all degrees" for axiom in CERTIFIED)
    (ints,) = views
    assert counit_views == [H.R.integer_view] and not sandwiches
    assert max(n for _, n in H._integers._coproducts) == degree
    if H.antipode_extended:
        assert max(a[1] for a, _ in ints.reads) == degree
        _assert_reads_within(ints, degree, degree, H.R.dim)
    else:
        assert not ints.reads
        assert max(a[1] for a, _ in H._integers._products) == 1


@pytest.mark.parametrize("degree", [0, 2])
def test_a_failing_p6_keeps_the_counit_sweeps_on_h(monkeypatch, degree):
    """Sweedler's data pass every premise; with (P6) recorded as failed in the built
    H's clause table, the clause counit_delta_orthogonal of ``H.clauses``, neither the
    x-sandwich nor weak counit multiplicativity is certified, whatever (P1)-(P5) say:
    both are swept on H to degree <= D, they read products of left degree 2D
    (max(2D, D + 1) at D = 0), and the report equals the all-sweeps report."""
    views = _integer_views(monkeypatch)
    H = ORE_CASES["sweedler"]()
    H.clauses._results["counit_delta_orthogonal"] = ClauseResult(
        "counit_delta_orthogonal", False, (0, 0))
    report = verify_extension(H, degree)
    for axiom in (WEAK, SANDWICH):
        assert report.scope(axiom) == f"degree <= {degree}"
    assert report.scope(MULTIPLICATIVE) == "all degrees"
    (ints,) = views
    assert max(a[1] for a, _ in ints.reads) == max(2 * degree, degree + 1)
    full = _all_sweeps(ORE_CASES["sweedler"](), degree)
    assert report.lines() == full.lines() and report.failures() == full.failures()


def test_ore_build_sweeps_r_once(count_calls, tmp_path):
    """`ore build` validates R in parse_spec, and the certificates read the reports of
    those sweeps that R keeps (WeakBialgebra.swept): each sweep of R that a premise
    reads runs once, on R's integer view, and none of them runs on H."""
    spec = str(tmp_path / "section5.json")
    assert main(["example", "section5", "--group", "Z2", "--n", "2", "--rho=1,-1",
                 "--q=3/5,-7/2", "-o", spec]) == 0
    names = ("sweep_unital", "sweep_associative", "sweep_coproduct_multiplicative",
             "sweep_unit_compatibility", "sweep_counit_weak_multiplicative")
    calls = count_calls(*names)
    assert main(["ore", "build", spec, "--verify-degree", "2"]) == 0
    assert calls == {name: 1 for name in names}


def test_ore_build_validates_the_ore_data_once(count_calls, tmp_path):
    """`ore build` runs skew_derivation once, in make_ore; H carries the clause table
    whose `ore_data_failure` is (P3) in verify_extension; an H built directly is
    validated there."""
    spec = str(tmp_path / "section5.json")
    assert main(["example", "section5", "--group", "Z2", "--n", "2", "--rho=1,-1",
                 "--q=3/5,-7/2", "-o", spec]) == 0
    calls = count_calls("skew_derivation")
    assert main(["ore", "build", spec, "--verify-degree", "2"]) == 0
    assert calls["skew_derivation"] == 1
    verify_extension(sign_flipped_sweedler(), 1)
    assert calls["skew_derivation"] == 2


@pytest.mark.parametrize("spec", ["sweedler", "section5"])
def test_each_fact_of_the_ore_datum_is_decided_once(count_calls, tmp_path, spec):
    """`ore build` and `panov --hopf` each build one clause table, H.clauses, and
    decide on it (P3), the Ore data, by one skew_derivation and, in `ore build`, (P6)
    by one counit_delta_residual, which the extension step's verdict and
    verify_extension's certificates share."""
    if spec == "sweedler":
        path = str(resources.files("weakhopf") / "data" / "sweedler-data.json")
    else:
        path = str(tmp_path / "section5.json")
        assert main(["example", "section5", "--group", "Z2", "--n", "2", "--rho=1,-1",
                     "--q=3/5,-7/2", "-o", path]) == 0
    names = ("PanovClauses.__init__", "skew_derivation", "counit_delta_residual")
    calls = count_calls(*names)
    assert main(["ore", "build", path, "--verify-degree", "2"]) == 0
    assert calls == {name: 1 for name in names}
    calls.clear()
    assert main(["panov", path, "--hopf"]) == 0
    assert calls["PanovClauses.__init__"] == calls["skew_derivation"] == 1


def test_a_direct_h_decides_p3_and_p6_once_across_verifications(count_calls):
    """An H built directly, past make_ore and the extension steps, decides (P3) and
    (P6) on its own clause table on the first verify_extension and reads them there
    on the second."""
    H = sign_flipped_sweedler()
    calls = count_calls("skew_derivation", "counit_delta_residual")
    verify_extension(H, 1)
    verify_extension(H, 2)
    assert calls == {"skew_derivation": 1, "counit_delta_residual": 1}


def test_both_extension_steps_check_the_degree_0_restriction(monkeypatch):
    """With Delta(b_1 x^0) moved off R's Delta(b_1) by 1 in one coefficient, both
    extension steps refuse the extended coproduct."""
    coproduct = OreAlgebra._coproduct

    def moved(self, k):
        out = dict(coproduct(self, k))
        if k == (1, 0):
            out[min(out)] += 1
        return out
    monkeypatch.setattr(OreAlgebra, "_coproduct", moved)
    d = sweedler_data()
    for step in (extend_coalgebra, extend_antipode):
        with pytest.raises(ValidationError,
                           match="extended coproduct does not restrict to R in degree 0"):
            step(make_ore(d.R, d.sigma, d.delta, d.g))


def _held(report):
    """A report's lines, failures, pass counts and all-degrees marks, as copies."""
    return (report.lines(), report.failures(), dict(report._pass_counts),
            set(report._all_degrees))


@pytest.mark.parametrize("degree", range(3))
@pytest.mark.parametrize("name", ORE_CASES)
def test_certificates_leave_r_s_cached_reports_unchanged(name, degree):
    """verify_extension merges R's cached sweep reports (WeakBialgebra.swept) into H's
    report and marks the copy: after two runs and check_weak_bialgebra(R) each of them
    holds what it held before and no all-degrees mark, and both runs report alike."""
    H = ORE_CASES[name]()
    R = H.R
    before = {key: _held(report) for key, report in R._sweeps.items()}
    first, second = verify_extension(H, degree), verify_extension(H, degree)
    check_weak_bialgebra(R)
    assert before and before.keys() <= R._sweeps.keys()
    assert all(_held(R._sweeps[key]) == held for key, held in before.items())
    assert not any(report._all_degrees for report in R._sweeps.values())
    assert first.scope("coproduct_unit_compatibility") == "all degrees"
    assert _held(first) == _held(second)
    assert ([first.scope(axiom) for axiom in axiom_names(first)]
            == [second.scope(axiom) for axiom in axiom_names(second)])
