from fractions import Fraction

import pytest

from weakhopf.bialgebra import WeakBialgebra, check_antipode, check_weak_bialgebra
from weakhopf.cli import main
from weakhopf.coderivations import is_coderivation, is_sigma_derivation
from weakhopf.errors import InvalidGroupCharacter, NotCentral, NotGrouplike, ZeroScale
from weakhopf.fields import QQ, Field
from weakhopf.fixtures import twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, build_groupoid_algebra, matrix_algebra
from weakhopf.grouplike import winding
from weakhopf.linalg import Matrix, constraint_matrix
from weakhopf.ore import extend_antipode, extend_coalgebra, make_ore, verify_extension
from weakhopf.panov import (NECESSARY, SUFFICIENT, PanovClauses, alpha_residual,
                            build_twisted_derivation, groupoid_character, hopf_conditions,
                            panov_necessary, panov_sufficient, solve_alpha)
from weakhopf.specfile import parse_spec

from lemmas import (ad_map, axiom_passed, basis_element, centrality_report, char_antipode_report,
                    identity, matches_tensor_factors)
from oracles import (dense_nullspace, distinct_rows, pure_tensor, reference_alpha_rows,
                     to_dense)


def _failing(verdict):
    return {c.clause for c in verdict.clauses if not c.passed}


# -- adjoint map ---------------------------------------------------------------


def test_ad_map_identity(M2):
    assert ad_map(M2, M2.unit) == identity(QQ, 4)


def test_ad_map_swap(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    ad = ad_map(M2, swap)
    assert ad.apply(basis_element(M2, 0, 0, 0)) == basis_element(M2, 0, 1, 1)
    assert ad.apply(basis_element(M2, 0, 0, 1)) == basis_element(M2, 0, 1, 0)


def test_ad_map_commutative(QZ2):
    assert ad_map(QZ2, QZ2.basis_vector(1)) == identity(QQ, 2)


def test_ad_map_not_invertible(M2):
    assert ad_map(M2, basis_element(M2, 0, 0, 1)) is None


# -- necessary conditions ---------------------------------------------------------


def test_necessary_sweedler(sweedler):
    verdict = panov_necessary(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g)
    assert verdict.passed
    assert verdict.chi == sweedler.chi
    assert verdict.chi.get(1) == Fraction(-1)


def test_necessary_fails_on_noninvertible_grouplike(M2):
    g = basis_element(M2, 0, 0, 1)
    verdict = panov_necessary(M2, identity(QQ, 4), Matrix.zero(QQ, 4, 4), g)
    assert not verdict.passed
    assert "eps_t_g_is_unit" in _failing(verdict)
    assert M2.eps_t(g) == basis_element(M2, 0, 0, 0)


def test_necessary_trivial_data(QZ2):
    verdict = panov_necessary(QZ2, identity(QQ, 2), Matrix.zero(QQ, 2, 2), QZ2.unit)
    assert verdict.passed
    assert verdict.chi == QZ2.counit_vector


# -- sufficient conditions ----------------------------------------------------------


def test_sufficient_sweedler(sweedler):
    verdict = panov_sufficient(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g)
    assert verdict.passed


def test_sufficient_with_trivial_grouplike(QZ2):
    chi = {0: Fraction(1), 1: Fraction(-1)}
    sigma = winding(QZ2, chi, "left")
    verdict = panov_sufficient(QZ2, sigma, Matrix.zero(QQ, 2, 2), QZ2.unit)
    assert verdict.passed


def test_sufficient_fails_for_conjugation(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    sigma = ad_map(M2, swap)
    verdict = panov_sufficient(M2, sigma, Matrix.zero(QQ, 4, 4), swap)
    assert _failing(verdict) == {"sigma_is_left_winding"}


def test_sufficient_roundtrip_guarantees_extension(sweedler, s5_qz2):
    for data in (sweedler, s5_qz2):
        assert panov_sufficient(data.R, data.sigma, data.delta, data.g).passed
        H = extend_coalgebra(make_ore(data.R, data.sigma, data.delta, data.g))
        assert verify_extension(H, 3).passed


@pytest.mark.parametrize("proc, bound", [
    ("panov_necessary", 1), ("panov_sufficient", 2), ("hopf_conditions", 2)])
@pytest.mark.parametrize("name", ["sweedler", "s5_qz2", "s5_m2qz2"])
def test_each_procedure_builds_each_winding_once(count_calls, request, name, proc, bound):
    """panov_necessary reads one left winding of chi; the shared clauses of the
    other two read one left and one right winding."""
    import weakhopf.panov
    data = request.getfixturevalue(name)
    calls = count_calls("winding")
    verdict = getattr(weakhopf.panov, proc)(data.R, data.sigma, data.delta, data.g)
    assert verdict.passed and verdict.chi == data.chi
    assert 0 < calls["winding"] <= bound


def test_panov_hopf_evaluates_each_clause_once(count_calls, tmp_path):
    """One `panov --hopf` run decides the three procedures on one clause table:
    chi's two windings, each of its one-sided convolution inverses (solved on
    those windings) and the coderivation identity are each computed once; the
    endomorphism checks are skew_derivation's on sigma and one per winding."""
    spec = str(tmp_path / "s5.json")
    assert main(["example", "section5", "--group", "Z2", "--n", "3", "--q", "1,2,3",
                 "-o", spec]) == 0
    calls = count_calls("winding", "is_unital_algebra_endo", "_coderivation_failure",
                        "one_sided_inverse")
    assert main(["panov", spec, "--hopf"]) == 0
    assert 0 < calls["winding"] <= 2
    assert calls["_coderivation_failure"] == 1
    assert calls["one_sided_inverse"] == 2
    assert 0 < calls["is_unital_algebra_endo"] <= 3


def test_panov_hopf_decides_g_and_builds_lambda_g_once(count_calls, monkeypatch, tmp_path):
    """On section-5 M_2(QZ_2), `panov --hopf` tests once that g is a weak group-like
    and builds lambda_g once: g^-1 is solved on the clause table's lambda_g after
    g_weak_grouplike passed."""
    spec = str(tmp_path / "s5.json")
    assert main(["example", "section5", "--group", "Z2", "--n", "2", "--q", "1,1",
                 "-o", spec]) == 0
    g = parse_spec(spec).elements["g"]
    built, left_mult = [], WeakBialgebra.left_mult_matrix
    monkeypatch.setattr(WeakBialgebra, "left_mult_matrix",
                        lambda wb, a: built.append(a) or left_mult(wb, a))
    calls = count_calls("is_weak_grouplike")
    assert main(["panov", spec, "--hopf"]) == 0
    assert calls["is_weak_grouplike"] == 1
    assert built.count(g) == 1


def test_necessary_then_sufficient_compute_each_identity_once(count_calls):
    """On section-5 M_2(QZ_2), NECESSARY then SUFFICIENT on one clause table take
    Delta(sigma(b_k)) once per k and Delta(delta(b_k)) once per nonzero column of
    delta (none: delta = 0 there), and one right-hand side per k
    for the sigma twist (map_legs, beside one for the left-factor clause) after its
    left-hand side (tensor_mul); g_weak_grouplike adds Delta(g) and two products, which
    g_grouplike_invertible reads instead of taking them again."""
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2, rho=[1, -1], q=[1, 1])
    dim = data.R.dim
    clauses = PanovClauses(data.R, data.sigma, data.delta, data.g)
    calls = count_calls("BasisView.comultiply", "BasisView.tensor_mul", "BasisView.map_legs")
    assert clauses.verdict(NECESSARY).passed and clauses.verdict(SUFFICIENT).passed
    assert not data.delta.data
    assert calls["BasisView.comultiply"] == dim + 1
    assert calls["BasisView.tensor_mul"] == dim + 2
    assert calls["BasisView.map_legs"] == dim + dim  # sigma twist, left factor


# -- antipode conditions --------------------------------------------------------------


def test_hopf_conditions_solves_for_g_inverse_once(count_calls, s5_m2qz2):
    """Ad_g is built from the inverse the clause g_grouplike_invertible solved
    for: one solve for g^-1 and two for chi's convolution inverse."""
    data = s5_m2qz2
    calls = count_calls("solve")
    assert hopf_conditions(data.R, data.sigma, data.delta, data.g).passed
    assert calls["solve"] == 3


def test_hopf_conditions_sweedler(sweedler):
    verdict = hopf_conditions(sweedler.R, sweedler.sigma, sweedler.delta, sweedler.g)
    assert verdict.passed


def test_hopf_conditions_section5(s5_qz2):
    verdict = hopf_conditions(s5_qz2.R, s5_qz2.sigma, s5_qz2.delta, s5_qz2.g)
    assert verdict.passed
    # (iv) by hand: delta S sigma (t) = 1 - t = lambda_g S delta (t)
    R, t = s5_qz2.R, s5_qz2.R.basis_vector(1)
    lhs = s5_qz2.delta.apply(R.antipode_matrix.apply(s5_qz2.sigma.apply(t)))
    rhs = R.multiply(s5_qz2.g, R.antipode_matrix.apply(s5_qz2.delta.apply(t)))
    one_minus_t = {0: Fraction(1), 1: Fraction(-1)}
    assert lhs == one_minus_t
    assert rhs == one_minus_t


def test_hopf_conditions_corrupt_sigma_fails_exactly_delta_clause(s5_qz2):
    verdict = hopf_conditions(s5_qz2.R, identity(QQ, 2), s5_qz2.delta, s5_qz2.g)
    assert [(c.clause, c.witness) for c in verdict.clauses if not c.passed] == \
        [("antipode_delta_compat", ("t",))]


def test_hopf_roundtrip(sweedler, s5_qz2):
    for data in (sweedler, s5_qz2):
        assert hopf_conditions(data.R, data.sigma, data.delta, data.g).passed
        H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
        assert verify_extension(H, 3).passed


def test_necessary_direction_recovers_chi(sweedler, s5_qz2, s5_m2qz2):
    for data in (sweedler, s5_qz2, s5_m2qz2):
        extend_coalgebra(make_ore(data.R, data.sigma, data.delta, data.g))
        verdict = panov_necessary(data.R, data.sigma, data.delta, data.g)
        assert verdict.passed
        assert verdict.chi == data.chi


# -- groupoid algebra construction ------------------------------------------------------


def test_build_groupoid_algebra_z2_2(M2Z2):
    assert M2Z2.dim == 8
    t_e12 = basis_element(M2Z2, 1, 0, 1)
    d = M2Z2.comultiply(t_e12)
    idx = M2Z2.basis_index(1, 0, 1)
    assert d == {(idx, idx): Fraction(1)}
    expected = basis_element(M2Z2, 1, 1, 0)  # S(t E12) = t^-1 E21 = t E21
    assert M2Z2.antipode_matrix.apply(t_e12) == expected
    assert check_weak_bialgebra(M2Z2).passed
    assert check_antipode(M2Z2).passed


def test_trivial_group_groupoid_is_matrix_algebra(M3):
    assert M3.dim == 9
    assert M3.labels[:3] == ("E11", "E12", "E13")
    assert M3.counit_vector.get(4) == 1


def test_groupoid_z2_1_is_group_algebra(QZ2):
    assert QZ2.dim == 2
    assert QZ2.delta_one() == pure_tensor(QZ2.unit, QZ2.unit)


_GROUPS = {"Z2": GroupPresentation.cyclic(2), "Z3": GroupPresentation.cyclic(3),
           "Z4": GroupPresentation.cyclic(4), "Z6": GroupPresentation.cyclic(6),
           "S3": GroupPresentation.symmetric(3)}


@pytest.mark.parametrize("group, n, field", [
    ("Z2", 2, QQ), ("Z3", 2, QQ), ("Z4", 2, QQ), ("Z6", 2, QQ), ("Z2", 3, QQ), ("S3", 2, QQ),
    ("Z2", 2, Field.prime(3))], ids=lambda v: str(v))
def test_groupoid_matches_tensor_product_structure(group, n, field):
    """M_n(kG) is M_n(k) (x) kG under g E_ij -> E_ij (x) g, entry by entry."""
    assert matches_tensor_factors(build_groupoid_algebra(_GROUPS[group], n, field))


def test_group_and_groupoid_guards_refuse_before_building(count_calls, monkeypatch):
    """Through lowered limits, never at real sizes: groups past GROUP_ORDER_LIMIT and
    M_n(kG) past DIM_LIMIT are refused before their tables are built."""
    import weakhopf.groupoid
    from weakhopf.errors import TooLarge
    monkeypatch.setattr(weakhopf.groupoid, "GROUP_ORDER_LIMIT", 6)
    monkeypatch.setattr(weakhopf.groupoid, "DIM_LIMIT", 8)
    assert GroupPresentation.cyclic(6).order == GroupPresentation.symmetric(3).order == 6
    assert build_groupoid_algebra(GroupPresentation.cyclic(2), 2).dim == 8
    z7, trivial = [[(i + j) % 7 for j in range(7)] for i in range(7)], GroupPresentation.trivial()
    calls = count_calls("GroupPresentation.__init__", "WeakBialgebra.__init__")
    for build in (lambda: GroupPresentation.cyclic(7), lambda: GroupPresentation.symmetric(4),
                  lambda: GroupPresentation(z7), lambda: build_groupoid_algebra(trivial, 3),
                  lambda: build_groupoid_algebra(_GROUPS["Z3"], 2)):
        with pytest.raises(TooLarge):
            build()
    assert calls == {"GroupPresentation.__init__": 1}  # the table of Z7, refused at once


# -- groupoid characters ------------------------------------------------------------------


def test_groupoid_character_values(M2Z2):
    chi = groupoid_character(M2Z2, [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)])
    assert chi.get(M2Z2.basis_index(1, 0, 1)) == Fraction(-1)  # chi(t E12)
    assert chi.get(M2Z2.basis_index(0, 0, 1)) == Fraction(1)   # chi(E12)


def test_groupoid_character_reduces_to_group_character(QZ3):
    omega = [Fraction(1), Fraction(1), Fraction(1)]
    chi = groupoid_character(QZ3, omega, [Fraction(1)])
    assert chi == dict(enumerate(omega))


def test_groupoid_character_scale_ratios(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    assert chi.get(M2.basis_index(0, 0, 1)) == Fraction(2)
    assert chi.get(M2.basis_index(0, 1, 0)) == Fraction(1, 2)


def test_groupoid_character_validation(M2Z2, M2):
    with pytest.raises(InvalidGroupCharacter):
        groupoid_character(M2Z2, [Fraction(1), Fraction(2)], [Fraction(1), Fraction(1)])
    with pytest.raises(ZeroScale):
        groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(0)])


def test_groupoid_character_takes_python_ints_exactly():
    M3 = matrix_algebra(3)
    chi = groupoid_character(M3, [1], [1, 3, 7])
    assert chi == groupoid_character(M3, [Fraction(1)], [Fraction(1), Fraction(3), Fraction(7)])
    assert chi.get(M3.basis_index(0, 2, 1)) == Fraction(3, 7)
    assert all(type(c) is Fraction for c in chi.values())


def test_groupoid_character_refuses_foreign_scalars(M2):
    from weakhopf.errors import ValidationError
    from weakhopf.fields import Field
    for q in ([1, 2.0], [True, 1], ["1", 2], [1, Field.prime(5)(2)]):
        with pytest.raises(ValidationError):
            groupoid_character(M2, [1], q)
    with pytest.raises(ValidationError):
        groupoid_character(M2, [1.0], [1, 2])


def test_twisted_derivation_data_with_int_scalars_is_exact():
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2, [1, -1], [1, 3])
    assert data.chi and all(type(c) is Fraction for c in data.chi.values())
    assert data.chi.get(data.R.basis_index(1, 1, 0)) == Fraction(-1, 3)


def test_verify_extension_with_int_q_passes():
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2, [1, -1], [1, 1])
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    assert verify_extension(H, 3).passed


def test_groupoid_character_passes_antipode_report(M2Z2):
    chi = groupoid_character(M2Z2, [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(2)])
    assert char_antipode_report(M2Z2, chi).passed


# -- alpha solver -----------------------------------------------------------------------


def test_solve_alpha_sign_character(QZ2):
    chi = {0: Fraction(1), 1: Fraction(-1)}
    sol = solve_alpha(QZ2, chi)
    assert len(sol) == 1
    alpha = sol[0]
    assert 0 not in alpha
    assert alpha.get(1)


def test_solve_alpha_counit_gives_zero(QZ2):
    assert solve_alpha(QZ2, QZ2.counit_vector) == []


def test_solve_alpha_dimension_matches_dense_oracle(s5_m2qz2):
    ga, chi = s5_m2qz2.R, s5_m2qz2.chi
    constraint = constraint_matrix(ga.field, ga.dim, alpha_residual(ga, chi))
    oracle = dense_nullspace(to_dense(constraint), constraint.cols, ga.field)
    assert len(solve_alpha(ga, chi)) == len(oracle)


@pytest.mark.parametrize("m, n, rho, q, p", [
    (4, 1, [1, -1, 1, -1], [1], None),
    (2, 2, [1, -1], [Fraction(3, 5), Fraction(-7, 2)], None),
    (3, 1, [1, 2, 4], [1], 7),
    (4, 2, [1, 2, 4, 3], [2, 3], 5),
])
def test_compiled_alpha_system_has_the_reference_rows(m, n, rho, q, p):
    """The alpha residual, compiled, has the same distinct rows as the reference
    row builder, over QQ (chi with denominators when q has them) and GF(p)."""
    ga = build_groupoid_algebra(GroupPresentation.cyclic(m), n, p and Field.prime(p))
    chi = groupoid_character(ga, rho, q)
    reference = reference_alpha_rows(ga, chi)
    compiled = constraint_matrix(ga.field, ga.dim, alpha_residual(ga, chi))
    assert reference and distinct_rows(compiled) == reference


def test_solve_alpha_builds_one_residual(count_calls, s5_qz2):
    """The residual that compiles the alpha system also re-checks its kernel."""
    calls = count_calls("alpha_residual")
    assert len(solve_alpha(s5_qz2.R, s5_qz2.chi)) == 1
    assert calls["alpha_residual"] == 1


def test_alpha_solutions_respect_zero_products(QZ4):
    chi = {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1), 3: Fraction(-1)}
    sol = solve_alpha(QZ4, chi)
    assert len(sol) == 1
    alpha = sol[0]
    eps, zero = QZ4.counit_vector, QQ.zero()
    for i in range(QZ4.dim):
        for j in range(QZ4.dim):
            if not QZ4.product(i, j):
                lhs = alpha.get(i, zero) * eps.get(j, zero) + chi.get(i, zero) * alpha.get(j, zero)
                assert lhs == 0


# -- the section-5 derivation -------------------------------------------------------------


def test_build_twisted_derivation_values(s5_qz2):
    R = s5_qz2.R
    t = R.basis_vector(1)
    assert s5_qz2.delta.apply(t) == {0: Fraction(-1), 1: Fraction(1)}  # t - 1
    assert s5_qz2.delta.apply(R.unit) == {}


def test_build_twisted_derivation_zero_alpha(QZ2):
    sigma = winding(QZ2, {0: Fraction(1), 1: Fraction(-1)}, "left")
    delta = build_twisted_derivation(QZ2, QZ2.basis_vector(1), sigma, {})
    assert not delta.data


def test_build_twisted_derivation_scales_linearly(QZ2):
    chi = {0: Fraction(1), 1: Fraction(-1)}
    alpha, sigma = solve_alpha(QZ2, chi)[0], winding(QZ2, chi, "left")
    d1 = build_twisted_derivation(QZ2, QZ2.basis_vector(1), sigma, alpha)
    alpha3 = {k: 3 * c for k, c in alpha.items()}
    d3 = build_twisted_derivation(QZ2, QZ2.basis_vector(1), sigma, alpha3)
    assert d3.data == {rc: 3 * c for rc, c in d1.data.items()}


def test_build_twisted_derivation_requires_central(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    with pytest.raises(NotCentral):
        build_twisted_derivation(M2, swap, winding(M2, chi, "left"), {})


def test_build_twisted_derivation_requires_grouplike(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    not_grouplike = basis_element(M2, 0, 0, 0) | basis_element(M2, 0, 0, 1)
    with pytest.raises(NotGrouplike):
        build_twisted_derivation(M2, not_grouplike, winding(M2, chi, "left"), {})


def test_section5_data_builds_each_winding_and_lambda_g_once(count_calls, monkeypatch):
    """twisted_derivation_data over QZ_2 with alpha != 0 makes four windings:
    groupoid_character's left and right check, sigma = tau_chi^l, which
    build_twisted_derivation takes instead of building it again, and
    tau_alpha^l; and lambda_g once, for the group-like check and the
    coderivation clause."""
    group = GroupPresentation.cyclic(2)
    g = build_groupoid_algebra(group, 1).central_grouplike(1)
    built, left_mult = [], WeakBialgebra.left_mult_matrix
    monkeypatch.setattr(WeakBialgebra, "left_mult_matrix",
                        lambda wb, a: built.append(a) or left_mult(wb, a))
    calls = count_calls("winding")
    data = twisted_derivation_data(group, 1, rho=[1, -1], q=[1])
    assert data.alpha is not None and data.g == g
    assert calls["winding"] == 4
    assert built.count(g) == 1


def test_section5_delta_is_valid_ore_input(s5_qz2):
    assert is_sigma_derivation(s5_qz2.R, s5_qz2.sigma, s5_qz2.delta)
    assert is_coderivation(s5_qz2.R, s5_qz2.delta, s5_qz2.g, s5_qz2.R.unit)
    make_ore(s5_qz2.R, s5_qz2.sigma, s5_qz2.delta, s5_qz2.g)


def test_section5_m2qz2_extension_verifies(s5_m2qz2):
    assert not s5_m2qz2.delta.data  # alpha space is 0-dimensional for n = 2
    H = extend_antipode(make_ore(s5_m2qz2.R, s5_m2qz2.sigma, s5_m2qz2.delta, s5_m2qz2.g))
    assert verify_extension(H, 3).passed


def test_section5_qz4_instance():
    data = twisted_derivation_data(GroupPresentation.cyclic(4), 1,
                                   rho=[Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)],
                                   q=[Fraction(1)])
    assert len(data.alpha_basis) == 1
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    assert verify_extension(H, 3).passed


# -- centrality --------------------------------------------------------------------------


def test_centrality_sweedler(sweedler):
    report = centrality_report(sweedler.R, sweedler.sigma, sweedler.delta,
                               sweedler.g, sweedler.chi)
    assert report.passed


def test_centrality_m2qz2(s5_m2qz2):
    report = centrality_report(s5_m2qz2.R, s5_m2qz2.sigma, s5_m2qz2.delta,
                               s5_m2qz2.g, s5_m2qz2.chi)
    assert report.passed


def test_centrality_flags_violated_hypotheses(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    sigma = ad_map(M2, swap)
    chi = M2.counit_vector
    report = centrality_report(M2, sigma, Matrix.zero(QQ, 4, 4), swap, chi)
    assert not axiom_passed(report, "g_central")
    assert not axiom_passed(report, "hypothesis_hopf_conditions")


def test_twisted_derivation_pipeline_over_prime_field():
    from weakhopf.fields import Field
    from weakhopf.fixtures import twisted_derivation_data
    f3 = Field.prime(3)
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 1,
                                   rho=[f3(1), f3(-1)], q=[f3(1)], field=f3)
    assert len(data.alpha_basis) == 1
    t = data.R.basis_vector(1)
    assert data.delta.apply(t) == {0: f3(-1), 1: f3(1)}  # t - 1
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    assert verify_extension(H, 3).passed
