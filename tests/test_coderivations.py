import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weakhopf.coderivations import (coderivation_constraint_matrix, coderivation_residual,
                                    coderivation_space, is_coderivation, is_sigma_derivation,
                                    skew_derivation)
from weakhopf.errors import NotAutomorphism, NotDerivation
from weakhopf.fields import Field, QQ
from weakhopf.fixtures import twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, matrix_algebra
from weakhopf.grouplike import is_unital_algebra_endo
from weakhopf.linalg import Matrix, solve
from weakhopf.specfile import parse_spec

from lemmas import (axiom_names, axiom_passed, basis_element, counit_value, dihedral,
                    eps_delta_report, function_algebra, identity, inner_coderivation,
                    is_skew_primitive, skew_primitive_identity_report, tensor_product,
                    truncated_primitive_hopf)
from oracles import (dense_matmul, dense_nullspace, distinct_rows, reference_coderivation_rows,
                     to_dense)


def _sign_sigma(QZ2):
    # sigma(1) = 1, sigma(t) = -t
    return Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (1, 1): Fraction(-1)})


def _s5_delta(QZ2):
    # delta(1) = 0, delta(t) = t - 1
    return Matrix(QQ, 2, 2, {(0, 1): Fraction(-1), (1, 1): Fraction(1)})


# -- sigma derivations --------------------------------------------------------


def test_zero_is_sigma_derivation(M2, QZ2):
    for wb in (M2, QZ2):
        zero = Matrix.zero(QQ, wb.dim, wb.dim)
        assert is_sigma_derivation(wb, identity(QQ, wb.dim), zero)


def test_sign_twisted_derivation(QZ2):
    assert is_sigma_derivation(QZ2, _sign_sigma(QZ2), _s5_delta(QZ2))


def test_untwisted_delta_fails_leibniz(QZ2):
    # sigma = id, delta(t) = 1: delta(t*t) = 0 but delta(t)t + t delta(t) = 2t
    delta = Matrix(QQ, 2, 2, {(0, 1): Fraction(1)})
    assert not is_sigma_derivation(QZ2, identity(QQ, 2), delta)
    with pytest.raises(NotDerivation):
        skew_derivation(QZ2, identity(QQ, 2), delta)


def test_transpose_is_not_automorphism(M2):
    transpose = Matrix(QQ, 4, 4, {(0, 0): Fraction(1), (3, 3): Fraction(1),
                                  (1, 2): Fraction(1), (2, 1): Fraction(1)})
    with pytest.raises(NotAutomorphism):
        skew_derivation(M2, transpose, Matrix.zero(QQ, 4, 4))


def test_derivation_kills_unit(QZ2):
    assert _s5_delta(QZ2).apply(QZ2.unit) == {}


# -- coderivations --------------------------------------------------------------


def test_zero_is_coderivation(M2):
    zero = Matrix.zero(QQ, 4, 4)
    g = basis_element(M2, 0, 0, 1)
    assert is_coderivation(M2, zero, g, M2.unit)


def test_s5_delta_is_coderivation(QZ2):
    assert is_coderivation(QZ2, _s5_delta(QZ2), QZ2.basis_vector(1), QZ2.unit)


def test_matrix_algebra_has_no_nonzero_coderivations(M2):
    nonzero = Matrix(QQ, 4, 4, {(1, 0): Fraction(1)})
    assert not is_coderivation(M2, nonzero, M2.unit, M2.unit)
    assert coderivation_space(M2, M2.unit, M2.unit) == []


def test_coderivation_space_m3(M3):
    assert coderivation_space(M3, M3.unit, M3.unit) == []


def test_coderivation_space_reverifies_on_lambdas_built_once(count_calls, monkeypatch, s5_m2qz2):
    """One residual is built per call: it compiles the system (one call per
    unknown) and re-verifies each (g,1)-coderivation of section-5 M_2(QZ_2),
    on lambda_g and lambda_1 built once, with no product g b_k or 1 b_k taken again."""
    import weakhopf.coderivations
    R, g = s5_m2qz2.R, s5_m2qz2.g
    build, evaluations = weakhopf.coderivations.coderivation_residual, []

    def counted_residual(*args):
        residual, n = build(*args), len(evaluations)
        evaluations.append(0)

        def counted(x):
            evaluations[n] += 1
            return residual(x)
        return counted

    monkeypatch.setattr(weakhopf.coderivations, "coderivation_residual", counted_residual)
    calls = count_calls("BasisView.multiply")
    space = coderivation_space(R, g, R.unit)
    assert len(space) == R.dim
    assert evaluations == [R.dim ** 2 + len(space)] == [72]
    assert calls["BasisView.multiply"] == 0


def test_coderivation_space_builds_one_residual(count_calls, s5_m2qz2):
    """The residual that compiles the system also re-checks its kernel."""
    R, g = s5_m2qz2.R, s5_m2qz2.g
    calls = count_calls("coderivation_residual")
    assert len(coderivation_space(R, g, R.unit)) == R.dim
    assert calls["coderivation_residual"] == 1


def test_coderivation_space_builds_each_lambda_once(count_calls, s5_m2qz2):
    """lambda_g and lambda_1 are built once per call, for the constraint system
    and for every re-verification."""
    R, g = s5_m2qz2.R, s5_m2qz2.g
    calls = count_calls("WeakBialgebra.left_mult_matrix")
    assert len(coderivation_space(R, g, R.unit)) == R.dim
    assert calls["WeakBialgebra.left_mult_matrix"] == 2


def test_coderivation_space_qz2(QZ2):
    t = QZ2.basis_vector(1)
    space = coderivation_space(QZ2, t, QZ2.unit)
    assert len(space) == 2
    # spanned by delta(1) = 1 - t, delta(t) = 0 and delta(1) = 0, delta(t) = 1 - t
    one_minus_t = {0: Fraction(1), 1: Fraction(-1)}

    def flat(m):
        return {r * 2 + k: c for (r, k), c in m.data.items()}

    span = Matrix.from_columns(QQ, 4, [flat(m) for m in space])
    gen1 = Matrix.from_columns(QQ, 2, [one_minus_t, {}])
    gen2 = Matrix.from_columns(QQ, 2, [{}, one_minus_t])
    assert solve(span, flat(gen1)) is not None
    assert solve(span, flat(gen2)) is not None
    gens = Matrix.from_columns(QQ, 4, [flat(gen1), flat(gen2)])
    for m in space:
        assert solve(gens, flat(m)) is not None


def test_constraint_kernel_against_dense_oracle(M2, M3, QZ2):
    cases = [(M2, M2.unit, M2.unit), (M3, M3.unit, M3.unit),
             (QZ2, QZ2.basis_vector(1), QZ2.unit)]
    for wb, g, h in cases:
        left_mult = wb.left_mult_matrix
        residual = coderivation_residual(wb, left_mult(g), left_mult(h))
        constraint = coderivation_constraint_matrix(wb, residual)
        oracle = dense_nullspace(to_dense(constraint), constraint.cols, wb.field)
        assert len(oracle) == len(coderivation_space(wb, g, h))


def _transported(name):
    return parse_spec(str(Path(__file__).parent / "data" / f"{name}.json"), validate=False).wb


@pytest.mark.parametrize("case", ["s5-m2qz2", "m3qz2-transported", "m3qz2-transported-twisted",
                                  "m2z2-gf5-transported", "f2z2", "s3-functions-gf3"])
def test_compiled_coderivation_system_has_the_reference_rows(request, case):
    """The coderivation residual, compiled, has the same distinct rows as the
    reference row builder, over QQ (denominators in m3qz2-transported) and GF(p);
    it keeps repeated rows, so it has at least as many."""
    if case == "s5-m2qz2":
        data = request.getfixturevalue("s5_m2qz2")
        wb, g, h = data.R, data.g, data.R.unit
    elif case.startswith("m3qz2"):
        wb = _transported("m3qz2-transported")
        g, h = (wb.basis_vector(10), wb.unit) if case.endswith("twisted") else (wb.unit, wb.unit)
    elif case == "m2z2-gf5-transported":
        wb = _transported(case)
        g, h = wb.basis_vector(5), wb.basis_vector(1)
    elif case == "f2z2":
        wb = request.getfixturevalue("F2Z2")
        g, h = wb.basis_vector(1), wb.unit
    else:
        wb = function_algebra(GroupPresentation.symmetric(3), Field.prime(3))
        g = h = wb.unit
    lambda_g, lambda_h = wb.left_mult_matrix(g), wb.left_mult_matrix(h)
    compiled = coderivation_constraint_matrix(wb, coderivation_residual(wb, lambda_g, lambda_h))
    reference = reference_coderivation_rows(wb, lambda_g, lambda_h)
    assert reference and distinct_rows(compiled) == reference
    assert compiled.rows >= len(reference)


def test_shifted_coderivation_space_maps_fail_on_function_algebra_d6():
    kg = function_algebra(dihedral(6))
    dim, unit = kg.dim, kg.unit
    lambda_1 = kg.left_mult_matrix(unit)
    residual = coderivation_residual(kg, lambda_1, lambda_1)
    constraint = to_dense(coderivation_constraint_matrix(kg, residual))
    basis = coderivation_space(kg, unit, unit)
    assert len(basis) == 12 - 6  # |G| - #conjugacy classes
    for m in basis:
        assert is_coderivation(kg, m, unit, unit)
        # shift the first entry (m's support first) whose constraint column is
        # nonzero: by linearity the dense oracle then puts m + E/3 outside the space
        entries = sorted(m.data) + [(r, k) for r in range(dim) for k in range(dim)]
        r, k = next((r, k) for r, k in entries if any(row[r * dim + k] for row in constraint))
        shifted = Matrix(QQ, dim, dim, m.data | {(r, k): m.data.get((r, k), 0) + Fraction(1, 3)})
        flat = [[shifted.data.get(divmod(i, dim), 0)] for i in range(dim * dim)]
        assert any(row[0] for row in dense_matmul(constraint, flat, QQ))
        assert not is_coderivation(kg, shifted, unit, unit)


@pytest.mark.parametrize("entry, witness", [
    ((0, 0), ("unit",)), ((1, 2), (0, 2)), ((3, 5), (0, 5)), ((7, 7), (1, 7)),
    ((2, 6), (1, 6)), ((5, 1), (1, 2)),
])
def test_perturbed_sigma_endo_witness_pinned(entry, witness):
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                   rho=[Fraction(1), Fraction(-1)],
                                   q=[Fraction(3, 5), Fraction(-7, 2)])
    sigma = data.sigma
    bumped = Matrix(QQ, sigma.rows, sigma.cols,
                    sigma.data | {entry: sigma.data.get(entry, 0) + Fraction(1, 3)})
    assert is_unital_algebra_endo(data.R, sigma) is None
    assert is_unital_algebra_endo(data.R, bumped) == witness
    with pytest.raises(NotAutomorphism, match=re.escape(f"(witness {witness})")):
        skew_derivation(data.R, bumped, data.delta)


@pytest.mark.parametrize("entry, message", [
    ((0, 1), "basis pair (1,0): delta(bi*bj) = 0 but delta(bi)*bj + sigma(bi)*delta(bj) "
             "= 1/3*E11"),
    ((3, 5), "basis pair (0,5): delta(bi*bj) = 1/3*E22 but delta(bi)*bj + sigma(bi)*delta(bj) "
             "= 0"),
    ((6, 7), "basis pair (1,7): delta(bi*bj) = 0 but delta(bi)*bj + sigma(bi)*delta(bj) "
             "= -35/18*tE11"),
])
def test_perturbed_delta_leibniz_message_pinned(entry, message):
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                   rho=[Fraction(1), Fraction(-1)],
                                   q=[Fraction(3, 5), Fraction(-7, 2)])
    delta = Matrix(QQ, data.R.dim, data.R.dim, {entry: Fraction(1, 3)})  # data.delta is 0
    with pytest.raises(NotDerivation) as info:
        skew_derivation(data.R, data.sigma, delta)
    assert str(info.value) == f"Leibniz rule fails at {message}"


# -- inner coderivations -----------------------------------------------------------


def test_inner_coderivation_of_counit_is_zero(M2):
    assert not inner_coderivation(M2, M2.counit_vector).data


def test_inner_coderivation_vanishes_on_cocommutative(M2, QZ3):
    rng = random.Random(21)
    for wb in (M2, QZ3):
        for _ in range(5):
            chi = {i: c for i in range(wb.dim) if (c := Fraction(rng.randint(-3, 3)))}
            assert not inner_coderivation(wb, chi).data


def test_inner_coderivation_nonzero_on_function_algebra():
    fa = function_algebra(GroupPresentation.symmetric(3))
    assert any(t != {(j, i): c for (i, j), c in t.items()} for t in fa.comult.values())
    # evaluation at a transposition is a character of the function algebra
    chi = fa.basis_vector(1)
    delta = inner_coderivation(fa, chi)
    assert delta.data
    assert is_coderivation(fa, delta, fa.unit, fa.unit)


def test_inner_coderivation_is_linear_in_chi():
    fa = function_algebra(GroupPresentation.symmetric(3))
    rng = random.Random(33)
    for _ in range(5):
        chi1 = {i: c for i in range(fa.dim) if (c := Fraction(rng.randint(-2, 2)))}
        chi2 = {i: c for i in range(fa.dim) if (c := Fraction(rng.randint(-2, 2)))}
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = fa.add({i: a * c for i, c in chi1.items() if a},
                            {i: b * c for i, c in chi2.items() if b})
        lhs = inner_coderivation(fa, combo)
        d1, d2 = inner_coderivation(fa, chi1).data, inner_coderivation(fa, chi2).data
        assert lhs.data == {rc: x for rc in d1.keys() | d2.keys()
                            if (x := a * d1.get(rc, 0) + b * d2.get(rc, 0))}


# -- skew primitives -------------------------------------------------------------


def test_zero_is_skew_primitive(M2):
    g = basis_element(M2, 0, 0, 1)
    assert is_skew_primitive(M2, {}, g, g)


def test_primitive_times_matrix_unit_is_skew_primitive():
    # z E_12 inside M_2(k[z]/(z^2)) over GF(2) is (E_12, E_12)-primitive
    H = truncated_primitive_hopf(2)
    M2F2 = matrix_algebra(2, Field.prime(2))
    prod = tensor_product(M2F2, H)

    def elt(i, j, k):
        return prod.basis_vector(M2F2.basis_index(0, i, j) * 2 + k)

    x = elt(0, 1, 1)  # E12 (x) z
    g = elt(0, 1, 0)  # E12 (x) 1
    assert is_skew_primitive(prod, x, g, g)
    report = skew_primitive_identity_report(prod, x, g, g)
    assert report.passed
    # hypothesis flags: eps_t(E12 (x) 1) = E11 (x) 1, not the unit
    assert prod.eps_t(g) == elt(0, 0, 0)
    assert prod.eps_t(x) == {}


def test_skew_primitive_fails_for_wrong_grouplike(M2):
    e12 = basis_element(M2, 0, 0, 1)
    assert not is_skew_primitive(M2, e12, M2.unit, M2.unit)


# -- counit annihilation reports ----------------------------------------------------


def test_eps_delta_report_zero_delta(QZ2):
    report = eps_delta_report(QZ2, Matrix.zero(QQ, 2, 2), QZ2.basis_vector(1), QZ2.unit)
    assert report.passed


def test_eps_delta_report_s5_delta(QZ2):
    t = QZ2.basis_vector(1)
    delta = _s5_delta(QZ2)
    report = eps_delta_report(QZ2, delta, t, QZ2.unit, sigma=_sign_sigma(QZ2))
    assert report.passed
    assert axiom_passed(report, "hypothesis_eps_s_g_is_unit")
    assert axiom_passed(report, "counit_kills_delta")
    assert axiom_passed(report, "counit_kills_a_delta_b")
    assert counit_value(QZ2, delta.apply(t)) == 0


def test_eps_delta_report_hypothesis_flag(M2):
    g = basis_element(M2, 0, 0, 1)  # eps_s(E12) = E22 != 1
    report = eps_delta_report(M2, Matrix.zero(QQ, 4, 4), g, M2.unit)
    assert not axiom_passed(report, "hypothesis_eps_s_g_is_unit")
    assert "counit_kills_delta" not in axiom_names(report)
    assert M2.eps_s(g) == basis_element(M2, 0, 1, 1)


def test_eps_delta_report_reads_delta_columns(s5_m2qz2, monkeypatch):
    """The report makes no Matrix.apply call and records, in order, one entry
    per basis element and per basis pair, with the verdicts of the formulas
    eps(delta(b_k)) = 0 and eps(b_i delta(b_j)) = 0 evaluated through
    Matrix.apply.  delta(b_5) gets 3/5 b_1; b_5 is outside R_s, so both loops
    run and both have failures."""
    from weakhopf.bialgebra import base_subalgebras
    from weakhopf.report import AxiomReport
    R, sigma, g = s5_m2qz2.R, s5_m2qz2.sigma, s5_m2qz2.g
    assert not s5_m2qz2.delta.data
    delta = Matrix(QQ, R.dim, R.dim, {(1, 5): Fraction(3, 5)})
    assert all(not delta.apply(a) for a in base_subalgebras(R)[1])
    keys = range(R.dim)
    basis = [R.basis_vector(k) for k in keys]
    kills_delta = [((k,), counit_value(R, delta.apply(basis[k])) == 0) for k in keys]
    kills_a_delta_b = [((i, j), counit_value(R, R.multiply(basis[i], delta.apply(basis[j]))) == 0)
                       for i in keys for j in keys]
    assert not all(ok for _, ok in kills_delta) and not all(ok for _, ok in kills_a_delta_b)

    records, applies = [], []
    record, apply = AxiomReport.record, Matrix.apply
    monkeypatch.setattr(AxiomReport, "record", lambda self, axiom, passed, witness=None, *rest:
                        records.append((axiom, witness, passed))
                        or record(self, axiom, passed, witness, *rest))
    monkeypatch.setattr(Matrix, "apply", lambda self, v: applies.append(v) or apply(self, v))
    eps_delta_report(R, delta, g, R.unit, sigma=sigma)
    assert applies == []
    axioms = [axiom for axiom, _, _ in records]
    assert axioms == ["delta_is_coderivation", "hypothesis_eps_s_g_is_unit",
                      "hypothesis_eps_s_h_is_unit", *["counit_kills_delta"] * R.dim,
                      "hypothesis_delta_kills_R_s", "hypothesis_sigma_is_left_winding",
                      *["counit_kills_a_delta_b"] * R.dim ** 2]
    assert all(passed for axiom, _, passed in records if axiom.startswith("hypothesis_"))
    by_axiom = lambda name: [(w, ok) for axiom, w, ok in records if axiom == name]
    assert by_axiom("counit_kills_delta") == kills_delta
    assert by_axiom("counit_kills_a_delta_b") == kills_a_delta_b

