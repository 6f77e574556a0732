"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every check
is exact (zero tolerance).
"""

import itertools
import math
from fractions import Fraction

from weakhopf.bialgebra import (WeakBialgebra, WeakHopfAlgebra, base_subalgebras, check_antipode,
                                check_weak_bialgebra)
from weakhopf.coderivations import coderivation_space, is_sigma_derivation
from weakhopf.fields import Field, QQ
from weakhopf.fixtures import twisted_derivation_data, sweedler_data
from weakhopf.groupoid import (GroupPresentation, build_groupoid_algebra, group_algebra,
                               matrix_algebra)
from weakhopf.grouplike import brute_force_weak_grouplikes, enumerate_weak_grouplikes_matrix
from weakhopf.ore import OreAlgebra, extend_antipode, make_ore, verify_extension
from weakhopf.panov import groupoid_character, hopf_conditions, panov_necessary, panov_sufficient

from lemmas import (axiom_names, axiom_passed, basis_element, char_antipode_report,
                    convolution_inverse, expand_skew_power, grouplike_identity_report, identity,
                    is_coderivation, is_skew_primitive, is_weak_character, matches_tensor_factors,
                    skew_primitive_identity_report, tensor_product, truncated_primitive_hopf,
                    weak_counit_identities)
from oracles import (dense_nullspace, dense_rows, ore_slot, ore_tensor, pure_tensor,
                     reference_alpha_rows)


def _criterion(num, name, passed):
    print(f"CRITERION {num} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({name}) failed"


def test_criterion_1_axiom_suite():
    fixtures = [matrix_algebra(n) for n in (1, 2, 3, 4)]
    fixtures += [group_algebra(GroupPresentation.cyclic(m)) for m in (2, 3, 4)]
    fixtures.append(build_groupoid_algebra(GroupPresentation.cyclic(2), 2))
    ok = all(check_weak_bialgebra(wb).passed and check_antipode(wb).passed
             for wb in fixtures)
    _criterion(1, "axiom suite on M_n(Q), QZ_m, M_2(QZ_2)", ok)


def test_criterion_2_grouplike_enumeration():
    expected = {n: sum(math.comb(n, k) * math.perm(n, k) for k in range(1, n + 1))
                for n in (1, 2, 3)}
    assert expected == {1: 1, 2: 6, 3: 33}
    ok = True
    for n in (1, 2, 3):
        enum = enumerate_weak_grouplikes_matrix(n)
        ok = ok and len(enum.grouplikes) == expected[n]
        perms = set()
        for perm in itertools.permutations(range(n)):
            g = {}
            for i, s in enumerate(perm):
                g = enum.algebra.add(g, basis_element(enum.algebra, 0, i, s))
            perms.add(tuple(sorted(g.items())))
        ok = ok and {tuple(sorted(g.element.items())) for g in enum.invertible} == perms
    for n in (1, 2):
        field = Field.prime(2)
        enum = enumerate_weak_grouplikes_matrix(n, field)
        scanned = {tuple(sorted(v.items())) for v in brute_force_weak_grouplikes(enum.algebra)}
        listed = {tuple(sorted(g.element.items())) for g in enum.grouplikes}
        listed.add(tuple(sorted(enum.zero.element.items())))
        ok = ok and scanned == listed
    _criterion(2, "weak group-like counts 1/6/33 and permutation matrices", ok)


def test_criterion_3_character_example():
    R = matrix_algebra(2)
    chi = groupoid_character(R, [Fraction(1)], [Fraction(1), Fraction(2)]).chi
    ok = is_weak_character(R, chi, "left") and is_weak_character(R, chi, "right")
    inv = convolution_inverse(R, chi)
    ok = ok and inv.two_sided is not None
    e11, e22 = basis_element(R, 0, 0, 0), basis_element(R, 0, 1, 1)
    prod = R.multiply(e11, e22)
    chi_of = lambda v: sum((chi.get(i, QQ.zero()) * c for i, c in v.items()), QQ.zero())
    ok = ok and prod == {} and chi_of(prod) == 0
    ok = ok and chi_of(e11) * chi_of(e22) == 1
    _criterion(3, "chi_q on M_2(Q): two-sided character, non-multiplicative", ok)


def test_criterion_4_coderivation_rigidity():
    ok = coderivation_space(matrix_algebra(2), matrix_algebra(2).unit,
                            matrix_algebra(2).unit) == []
    M2, M3 = matrix_algebra(2), matrix_algebra(3)
    ok = len(coderivation_space(M2, M2.unit, M2.unit)) == 0
    ok = ok and len(coderivation_space(M3, M3.unit, M3.unit)) == 0
    Z2 = group_algebra(GroupPresentation.cyclic(2))
    ok = ok and len(coderivation_space(Z2, Z2.basis_vector(1), Z2.unit)) == 2
    _criterion(4, "coderivation space dims 0/0/2", ok)


def test_criterion_5_sweedler_roundtrip():
    data = sweedler_data()
    ok = panov_sufficient(data.R, data.sigma, data.delta, data.g).passed
    ok = ok and hopf_conditions(data.R, data.sigma, data.delta, data.g).passed
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    report = verify_extension(H, 3)
    ok = ok and report.passed
    ok = ok and axiom_passed(report, "counit_kills_x_sandwich")
    t = data.R.basis_vector(1)
    ok = ok and H.apply(H.antipode, H.x()) == H.monomial({1: Fraction(-1)}, 1)
    expected_dx = ore_tensor({(0, 1): pure_tensor(t, data.R.unit),
                              (1, 0): pure_tensor(data.R.unit, data.R.unit)})
    ok = ok and H.comultiply(H.x()) == expected_dx
    verdict = panov_necessary(H.R, H.sigma, H.delta, H.g)
    ok = ok and verdict.passed and verdict.chi.get(1) == Fraction(-1)
    _criterion(5, "Sweedler extension roundtrip", ok)


def test_criterion_6_section5_construction():
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 1, rho=[1, -1], q=[1])
    R = data.R
    t = R.basis_vector(1)
    ok = len(data.alpha_basis) == 1
    ok = ok and data.delta.apply(t) == {0: Fraction(-1), 1: Fraction(1)}  # t - 1
    ok = ok and is_sigma_derivation(R, data.sigma, data.delta)
    ok = ok and is_coderivation(R, data.delta, data.g, R.unit)
    _, basis_s = base_subalgebras(R)
    ok = ok and not any(data.delta.apply(a) for a in basis_s)
    H = extend_antipode(make_ore(R, data.sigma, data.delta, data.g))
    ok = ok and verify_extension(H, 3).passed
    m2 = twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                 rho=[Fraction(1), Fraction(-1)],
                                 q=[Fraction(1), Fraction(1)])
    rows = dense_rows(reference_alpha_rows(m2.R, m2.chi), m2.R.dim, QQ)
    oracle_dim = len(dense_nullspace(rows, m2.R.dim, QQ))
    ok = ok and len(m2.alpha_basis) == oracle_dim
    _criterion(6, "section-5 construction (alpha solver and extension)", ok)


def test_criterion_7_expansion_invariants():
    built = []
    for data in (sweedler_data(),
                 twisted_derivation_data(GroupPresentation.cyclic(2), 1, rho=[1, -1], q=[1]),
                 twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                         rho=[Fraction(1), Fraction(-1)],
                                         q=[Fraction(1), Fraction(1)])):
        built.append(extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g)))
    ok = True
    for H in built:
        R = H.R
        one_one = pure_tensor(R.unit, R.unit)
        for n in range(5):
            coeffs = expand_skew_power(H, n)  # internal assertions cover the rest
            ok = ok and ore_slot(coeffs, n, 0) == one_one
            gn = R.unit
            for _ in range(n):
                gn = R.multiply(gn, H.g)
            ok = ok and ore_slot(coeffs, 0, n) == pure_tensor(gn, R.unit)
            ok = ok and all(not ore_slot(coeffs, i, 0) for i in range(n))
    _criterion(7, "skew power expansion invariants to degree 4", ok)


def test_criterion_8_groupoid_tensor_coherence():
    ga = build_groupoid_algebra(GroupPresentation.cyclic(2), 2)
    _criterion(8, "M_2(QZ_2) matches M_2(Q) tensor QZ_2", matches_tensor_factors(ga))


def test_criterion_9_identity_lemma_suite():
    ok = True
    # dims up to 16: the counit identity sweep is exhaustive over basis pairs
    fixtures = [matrix_algebra(2), *(group_algebra(GroupPresentation.cyclic(m)) for m in (2, 3, 4)),
                build_groupoid_algebra(GroupPresentation.cyclic(2), 2), matrix_algebra(3),
                matrix_algebra(4)]
    for wb in fixtures:
        for i in range(wb.dim):
            for j in range(wb.dim):
                ok = ok and weak_counit_identities(wb, wb.basis_vector(i),
                                                   wb.basis_vector(j)).passed
    M2 = fixtures[0]
    enum = enumerate_weak_grouplikes_matrix(2)
    for g in enum.grouplikes:
        ok = ok and grouplike_identity_report(M2, g.element).passed
    Z2 = fixtures[1]
    ok = ok and grouplike_identity_report(Z2, Z2.basis_vector(1)).passed
    # hypothesis flags are themselves pinned
    e12 = basis_element(M2, 0, 0, 1)
    ok = ok and M2.eps_s(e12) == basis_element(M2, 0, 1, 1) and M2.eps_s(e12) != M2.unit
    ok = ok and M2.eps_t(e12) == basis_element(M2, 0, 0, 0) and M2.eps_t(e12) != M2.unit

    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)]).chi
    ok = ok and char_antipode_report(M2, chi).passed
    chi2 = {0: Fraction(1), 1: Fraction(-1)}
    ok = ok and char_antipode_report(Z2, chi2).passed

    data = sweedler_data()
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    ok = ok and skew_primitive_identity_report(
        H, H.x(), H.embed(data.g), H.unit).passed
    Hp = truncated_primitive_hopf(2)
    M2F2 = matrix_algebra(2, Field.prime(2))
    prod = tensor_product(M2F2, Hp)
    x = prod.basis_vector(M2F2.basis_index(0, 0, 1) * 2 + 1)
    g = prod.basis_vector(M2F2.basis_index(0, 0, 1) * 2)
    ok = ok and is_skew_primitive(prod, x, g, g)
    ok = ok and skew_primitive_identity_report(prod, x, g, g).passed
    ok = ok and skew_primitive_identity_report(M2, {}, M2.unit, M2.unit).passed
    _criterion(9, "identity-lemma suite with pinned hypothesis flags", ok)


def test_criterion_10_negative_controls():
    ok = True
    # (a) wrong counit on M_2: exactly weak multiplicativity breaks
    M2 = matrix_algebra(2)
    bad_counit = {0: Fraction(1), 3: Fraction(1)}
    wb = WeakBialgebra(QQ, 4, M2.mult, M2.unit, M2.comult, bad_counit, M2.labels, validate=False)
    report = check_weak_bialgebra(wb)
    print("  control (a):",
          [l for l in report.lines() if "FAIL" in l][0])
    ok = ok and not axiom_passed(report, "counit_weak_multiplicative")
    ok = ok and report.failures("counit_weak_multiplicative")[0].witness == (0, 1, 2)
    ok = ok and axiom_passed(report, "coproduct_multiplicative")
    ok = ok and axiom_passed(report, "coproduct_unit_compatibility")

    # (b) identity antipode on M_2: the antipode axioms break, nothing else
    bad_hopf = WeakHopfAlgebra(QQ, 4, M2.mult, M2.unit, M2.comult, M2.counit_vector,
                               identity(QQ, 4), M2.labels, validate=False)
    report = check_antipode(bad_hopf)
    print("  control (b):",
          [l for l in report.lines() if "FAIL" in l][0])
    ok = ok and not axiom_passed(report, "antipode_vs_target_counital")
    first = report.failures("antipode_vs_target_counital")[0]
    ok = ok and first.witness == (1,)  # E12
    ok = ok and check_weak_bialgebra(bad_hopf).passed

    # (c) sign-flipped S(x): antipode axioms fail at degree 1, the rest hold
    data = sweedler_data()
    s_g = data.R.antipode_matrix.apply(data.g)
    bad = OreAlgebra(data.R, data.sigma, data.delta, data.g, _coalgebra_extended=True,
                     s_x={(b, 1): c for b, c in data.R.multiply(s_g, data.R.unit).items()})
    report = verify_extension(bad, 2)
    print("  control (c):",
          [l for l in report.lines() if "FAIL" in l][0])
    failing = {name for name in axiom_names(report) if not axiom_passed(report, name)}
    ok = ok and failing == {"antipode_vs_target_counital", "antipode_vs_source_counital",
                            "antipode_composition"}
    ok = ok and report.failures("antipode_vs_target_counital")[0].witness[1] == 1

    # (d) sigma = id with the section-5 delta: exactly clause (iv) breaks
    s5 = twisted_derivation_data(GroupPresentation.cyclic(2), 1, rho=[1, -1], q=[1])
    verdict = hopf_conditions(s5.R, identity(QQ, 2), s5.delta, s5.g)
    print("  control (d):",
          [l for l in verdict.lines() if "FAIL" in l and "VERDICT" not in l][0])
    failing = [(c.clause, c.witness) for c in verdict.clauses if not c.passed]
    ok = ok and failing == [("antipode_delta_compat", ("t",))]

    # no other fixture regresses
    for wb in (matrix_algebra(2), group_algebra(GroupPresentation.cyclic(2)),
               build_groupoid_algebra(GroupPresentation.cyclic(2), 2)):
        ok = ok and check_weak_bialgebra(wb).passed and check_antipode(wb).passed
    good = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    ok = ok and verify_extension(good, 2).passed
    _criterion(10, "negative controls fail exactly the expected clause", ok)
