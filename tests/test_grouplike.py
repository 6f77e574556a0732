import contextlib
import io
import itertools
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

import weakhopf.grouplike
from weakhopf.bialgebra import WeakBialgebra, convolution
from weakhopf.cli import main
from weakhopf.errors import TooLarge, ValidationError
from weakhopf.fields import Field, QQ
from weakhopf.groupoid import GroupPresentation, group_algebra, matrix_algebra
from weakhopf.grouplike import (SCAN_LIMIT, brute_force_weak_grouplikes,
                                enumerate_weak_grouplikes_matrix, is_weak_character,
                                is_weak_grouplike, winding)
from weakhopf.linalg import Matrix, rank
from weakhopf.panov import groupoid_character
from weakhopf.specfile import parse_spec

from lemmas import (ad_map, axiom_passed, basis_element, char_antipode_report, character_from_endo,
                    convolution_inverse, counit_value, function_algebra, grouplike_identity_report,
                    grouplike_monoid_closed, identity, is_grouplike)
from oracles import definition_weak_grouplikes


def _partial_injection_count(n):
    return sum(math.comb(n, k) * math.perm(n, k) for k in range(1, n + 1))


# -- weak group-like detection -------------------------------------------------


def test_matrix_units_are_weak_grouplike(M2):
    assert is_weak_grouplike(M2, basis_element(M2, 0, 0, 1))
    assert is_weak_grouplike(M2, M2.unit)


def test_column_sum_is_not_weak_grouplike(M2):
    g = basis_element(M2, 0, 0, 0) | basis_element(M2, 0, 1, 0)  # E11 + E21
    assert not is_weak_grouplike(M2, g)


def test_is_grouplike_permutation(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    inv = is_grouplike(M2, swap)
    assert inv == swap
    assert is_grouplike(M2, basis_element(M2, 0, 0, 1)) is None


def test_is_grouplike_group_algebra(QZ2):
    t = QZ2.basis_vector(1)
    assert is_grouplike(QZ2, t) == t


# -- enumeration and brute force --------------------------------------------------


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 33)])
def test_enumeration_counts(n, expected):
    enum = enumerate_weak_grouplikes_matrix(n)
    assert len(enum.grouplikes) == expected
    assert expected == _partial_injection_count(n)
    assert enum.zero.element == {}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumeration_elements_satisfy_definition(n):
    enum = enumerate_weak_grouplikes_matrix(n)
    alg = enum.algebra
    for g in enum.grouplikes:
        assert is_weak_grouplike(alg, g.element)
        if g.is_invertible:
            inv = is_grouplike(alg, g.element)
            assert alg.multiply(g.element, inv) == alg.unit == alg.multiply(inv, g.element)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_invertibles_are_the_permutation_matrices(n):
    enum = enumerate_weak_grouplikes_matrix(n)
    alg = enum.algebra
    perm_matrices = set()
    for perm in itertools.permutations(range(n)):
        g = {}
        for i, s in enumerate(perm):
            g = alg.add(g, basis_element(alg, 0, i, s))
        perm_matrices.add(tuple(sorted(g.items())))
    assert {tuple(sorted(g.element.items())) for g in enum.invertible} == perm_matrices
    assert len(enum.invertible) == math.factorial(n)


def test_brute_force_agrees_with_enumeration_over_f2():
    for n in (1, 2):
        field = Field.prime(2)
        enum = enumerate_weak_grouplikes_matrix(n, field)
        scanned = brute_force_weak_grouplikes(enum.algebra)
        enumerated = {tuple(sorted(g.element.items())) for g in enum.grouplikes}
        enumerated.add(tuple(sorted(enum.zero.element.items())))
        assert {tuple(sorted(v.items())) for v in scanned} == enumerated


def test_brute_force_group_algebra(F2Z2):
    found = brute_force_weak_grouplikes(F2Z2)
    expected = {(), tuple(sorted(F2Z2.unit.items())), tuple(sorted(F2Z2.basis_vector(1).items()))}
    assert {tuple(sorted(v.items())) for v in found} == expected


def test_brute_force_one_dimensional_f3():
    m1 = matrix_algebra(1, Field.prime(3))
    found = brute_force_weak_grouplikes(m1)
    values = sorted(v.get(0, m1.field.zero()).v for v in found)
    assert values == [0, 1]


def test_brute_force_too_large(M2Z2):
    with pytest.raises(TooLarge):
        brute_force_weak_grouplikes(M2Z2)  # rationals: not even a finite field
    big = matrix_algebra(2, Field.prime(41))
    with pytest.raises(TooLarge):
        brute_force_weak_grouplikes(big)


def test_brute_force_work_guard_refuses_before_scanning(count_calls):
    """kZ19 over GF(2) has 2^19 <= SCAN_LIMIT candidates, but 2^19 times its
    361 + 741 table terms is about 5.8 * 10^8 > SCAN_WORK_LIMIT."""
    kz19 = group_algebra(GroupPresentation.cyclic(19), Field.prime(2))
    assert 2 ** 19 <= SCAN_LIMIT
    calls = count_calls("is_weak_grouplike")
    with pytest.raises(TooLarge, match="scan work limit"):
        brute_force_weak_grouplikes(kz19)
    assert calls["is_weak_grouplike"] == 0  # the zero candidate alone would call it


def _rescaled(wb, scales):
    """wb written in the basis b'_i = scales[i] b_i, for nonzero scalars scales[i]."""
    s, field = scales, wb.field
    mult = {(a, b): {r: s[a] * s[b] * c / s[r] for r, c in v.items()}
            for (a, b), v in wb.mult.items()}
    unit = {r: c / s[r] for r, c in wb.unit.items()}
    comult = {k: {(i, j): s[k] * c / (s[i] * s[j]) for (i, j), c in t.items()}
              for k, t in wb.comult.items()}
    counit = {k: s[k] * c for k, c in wb.counit_vector.items()}
    return WeakBialgebra(field, wb.dim, mult, unit, comult, counit, wb.labels)


def _m2_gf3_rescaled():
    gf3 = Field.prime(3)
    return _rescaled(matrix_algebra(2, gf3), [gf3(2), gf3(1), gf3(1), gf3(1)])


@pytest.mark.parametrize("build", [
    lambda: group_algebra(GroupPresentation.cyclic(2), Field.prime(2)),
    lambda: matrix_algebra(2, Field.prime(2)),
    lambda: function_algebra(GroupPresentation.cyclic(3), Field.prime(5)),  # dense Delta(1)
    lambda: group_algebra(GroupPresentation.cyclic(4), Field.prime(3)),
    _m2_gf3_rescaled,
], ids=["F2Z2", "M2-GF2", "kZ3-dual-GF5", "M1-kZ4-GF3", "M2-GF3-rescaled"])
def test_brute_force_matches_definition(build):
    wb = build()
    assert brute_force_weak_grouplikes(wb) == definition_weak_grouplikes(wb)


def test_rescaled_scan_reduces_products_of_residues():
    """b_0 -> 2 b_0 puts the residue 2 into Delta(b_0) and b_0 b_0, and into
    the weak group-likes, so products such as 2 * 2 must be reduced mod 3."""
    wb = _m2_gf3_rescaled()
    assert wb.comult[0][(0, 0)] == 2 and wb.mult[(0, 0)][0] == 2
    found = brute_force_weak_grouplikes(wb)
    assert len(found) == _partial_injection_count(2) + 1
    assert any(c == 2 for g in found for c in g.values())


def test_enumeration_guard_refuses_before_building(count_calls):
    calls = count_calls("matrix_algebra")
    for n in (8, 10, 10 ** 9):
        with pytest.raises(TooLarge):
            enumerate_weak_grouplikes_matrix(n)
    assert calls["matrix_algebra"] == 0
    assert _partial_injection_count(7) <= SCAN_LIMIT < _partial_injection_count(8)


def test_enumeration_guard_is_strict(monkeypatch):
    """The limit bounds the closed-form count sum_k C(n,k) P(n,k); M_2 has 6."""
    monkeypatch.setattr(weakhopf.grouplike, "SCAN_LIMIT", 6)
    assert len(enumerate_weak_grouplikes_matrix(2).grouplikes) == 6
    monkeypatch.setattr(weakhopf.grouplike, "SCAN_LIMIT", 5)
    with pytest.raises(TooLarge):
        enumerate_weak_grouplikes_matrix(2)


def test_weak_grouplikes_closed_under_multiplication():
    for n in (2, 3):
        enum = enumerate_weak_grouplikes_matrix(n)
        elements = [g.element for g in enum.grouplikes] + [enum.zero.element]
        assert grouplike_monoid_closed(enum.algebra, elements)


def test_grouplikes_form_group_with_left_to_right_composition():
    # g_sigma * g_pi = g_{sigma then pi}: composition applies sigma first
    n = 3
    enum = enumerate_weak_grouplikes_matrix(n)
    alg = enum.algebra

    def g_of(perm):
        out = {}
        for i, s in enumerate(perm):
            out = alg.add(out, basis_element(alg, 0, i, s))
        return out

    for sigma in itertools.permutations(range(n)):
        for pi in itertools.permutations(range(n)):
            composed = tuple(pi[sigma[i]] for i in range(n))
            assert alg.multiply(g_of(sigma), g_of(pi)) == g_of(composed)


# -- windings and weak characters ---------------------------------------------------


def test_winding_of_counit_is_identity(M2, M2Z2):
    for wb in (M2, M2Z2):
        eps = wb.counit_vector
        assert winding(wb, eps, "right") == identity(wb.field, wb.dim)
        assert winding(wb, eps, "left") == identity(wb.field, wb.dim)


def test_winding_scales_matrix_units(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    tau = winding(M2, chi, "left")
    e12 = basis_element(M2, 0, 0, 1)
    assert tau.apply(e12) == {k: 2 * c for k, c in e12.items()}


def test_left_winding_fixes_source_base(M2, M2Z2):
    from weakhopf.bialgebra import base_subalgebras
    for wb, chi in ((M2, groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(3)])),
                    (M2Z2, groupoid_character(M2Z2, [Fraction(1), Fraction(-1)],
                                              [Fraction(1), Fraction(2)]))):
        tau = winding(wb, chi, "left")
        _, basis_s = base_subalgebras(wb)
        for a in basis_s:
            assert tau.apply(a) == a


def test_is_weak_character(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(3)])
    assert is_weak_character(M2, chi, "left")
    assert is_weak_character(M2, chi, "right")
    delta_diag = {0: Fraction(1), 3: Fraction(1)}  # chi(E_ij) = [i == j]
    assert not is_weak_character(M2, delta_diag, "left")
    eps = M2.counit_vector
    assert is_weak_character(M2, eps, "left") and is_weak_character(M2, eps, "right")


def test_character_nonmultiplicativity_witness(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    e11, e22 = basis_element(M2, 0, 0, 0), basis_element(M2, 0, 1, 1)
    prod = M2.multiply(e11, e22)
    assert prod == {}
    chi_of = lambda v: sum((chi.get(i, QQ.zero()) * c for i, c in v.items()), QQ.zero())
    assert chi_of(prod) == 0
    assert chi_of(e11) * chi_of(e22) == 1


def test_character_from_endo_identity(M2):
    chi = character_from_endo(M2, identity(QQ, 4))
    assert chi == M2.counit_vector


def test_character_from_endo_roundtrip(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    sigma = winding(M2, chi, "right")
    assert character_from_endo(M2, sigma) == chi


def test_character_from_endo_rejects_conjugation(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    sigma = ad_map(M2, swap)
    assert character_from_endo(M2, sigma) is None


def test_character_from_endo_requires_algebra_map(M2):
    bad = Matrix.zero(QQ, 4, 4)
    with pytest.raises(ValidationError):
        character_from_endo(M2, bad)


def test_characters_solves_inverses_on_its_two_windings(count_calls):
    """`characters --verify chi` on the bundled m2q.json builds chi's two windings and
    solves both convolution inverses on their transposes: past parsing, Delta(b_k) is
    read once per winding and once per convolution check, and no matrix is summed
    from it again."""
    path = str(resources.files("weakhopf") / "data" / "m2q.json")
    calls = count_calls("winding", "WeakBialgebra.coproduct")
    dim = parse_spec(path).wb.dim
    parse_reads = calls["WeakBialgebra.coproduct"]
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["characters", path, "--verify", "chi"]) == 0
    assert calls["winding"] == 2
    assert calls["WeakBialgebra.coproduct"] == parse_reads + 4 * dim


def test_convolution_inverse_two_sided(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    inv = convolution_inverse(M2, chi)
    assert inv.two_sided is not None
    chi_s = M2.antipode_matrix.apply_functional(chi)
    assert inv.two_sided == chi_s
    eps = M2.counit_vector
    assert convolution(inv.two_sided, chi, M2) == eps
    assert convolution(chi, inv.two_sided, M2) == eps


def test_invertible_character_has_invertible_windings(M2, QZ4):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(5)])
    assert rank(winding(M2, chi, "left")) == 4
    assert rank(winding(M2, chi, "right")) == 4
    chi4 = {0: Fraction(1), 1: Fraction(-1), 2: Fraction(1), 3: Fraction(-1)}
    assert is_weak_character(QZ4, chi4, "left")
    assert rank(winding(QZ4, chi4, "left")) == 4


def test_windings_compose_under_convolution(M2, M2Z2):
    rng = random.Random(9)
    for wb in (M2, M2Z2):
        q1 = [Fraction(1)] + [Fraction(rng.randint(1, 5)) for _ in range(wb.n - 1)]
        q2 = [Fraction(1)] + [Fraction(rng.randint(1, 5)) for _ in range(wb.n - 1)]
        rho = [Fraction(1)] * wb.group.order
        if wb.group.order == 2:
            rho = [Fraction(1), Fraction(-1)]
        chi1 = groupoid_character(wb, rho, q1)
        chi2 = groupoid_character(wb, [Fraction(1)] * wb.group.order, q2)
        conv = convolution(chi1, chi2, wb)
        assert winding(wb, conv, "right") == \
            winding(wb, chi1, "right") * winding(wb, chi2, "right")


# -- identity reports ----------------------------------------------------------------


def test_grouplike_identity_report_matrix_unit(M2):
    e12 = basis_element(M2, 0, 0, 1)
    report = grouplike_identity_report(M2, e12)
    assert report.passed
    # hypothesis flags: eps_t(E12) = E11 != 1, and the power test indeed fails
    assert M2.eps_t(e12) == basis_element(M2, 0, 0, 0)
    assert M2.eps_t(e12) != M2.unit
    e21 = basis_element(M2, 0, 1, 0)
    sq = M2.multiply(e12, e12)
    assert counit_value(M2, M2.multiply(e21, sq)) == 0
    assert counit_value(M2, e21) == 1


def test_grouplike_identity_report_permutation(M2):
    swap = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    report = grouplike_identity_report(M2, swap)
    assert report.passed
    assert M2.eps_t(swap) == M2.unit


def test_grouplike_identity_report_unit(QZ3):
    assert grouplike_identity_report(QZ3, QZ3.unit).passed


def test_grouplike_identity_report_all_enumerated(M2):
    enum = enumerate_weak_grouplikes_matrix(2)
    for g in enum.grouplikes:
        assert grouplike_identity_report(M2, g.element).passed


def test_char_antipode_report_matrix(M2):
    chi = groupoid_character(M2, [Fraction(1)], [Fraction(1), Fraction(2)])
    report = char_antipode_report(M2, chi)
    assert report.passed
    assert axiom_passed(report, "chi_S_is_convolution_inverse")
    assert axiom_passed(report, "antipode_winding_conjugation")


def test_char_antipode_report_counit(M2):
    assert char_antipode_report(M2, M2.counit_vector).passed


def test_char_antipode_report_sign_character(QZ2):
    chi = {0: Fraction(1), 1: Fraction(-1)}
    assert char_antipode_report(QZ2, chi).passed


def test_noncocommutative_windings_differ_but_recover():
    # functions on S_3: evaluation at a transposition is a two-sided weak
    # character whose left and right windings are different translations
    fa = function_algebra(GroupPresentation.symmetric(3))
    chi = fa.basis_vector(1)
    tl = winding(fa, chi, "left")
    tr = winding(fa, chi, "right")
    assert tl != tr
    assert is_weak_character(fa, chi, "left")
    assert is_weak_character(fa, chi, "right")
    assert character_from_endo(fa, tr) == chi
    assert convolution_inverse(fa, chi).two_sided is not None


def test_convolution_inverse_absent_for_zero_functional(M2):
    inv = convolution_inverse(M2, {})
    assert inv.left is None and inv.right is None and inv.two_sided is None
