import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from weakhopf.coderivations import (coderivation_constraint_matrix, coderivation_residual,
                                    coderivation_space, is_sigma_derivation, skew_derivation)
from weakhopf.errors import NotAutomorphism, NotDerivation, ValidationError
from weakhopf.fields import Field, QQ
from weakhopf.fixtures import twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, matrix_algebra
from weakhopf.grouplike import is_unital_algebra_endo
from weakhopf.linalg import Matrix, certified_kernel, residual_kernel, solve
from weakhopf.specfile import SpecBundle, emit_spec, parse_spec

from lemmas import (axiom_names, axiom_passed, basis_element, counit_value, dihedral,
                    eps_delta_report, function_algebra, identity, inner_coderivation,
                    is_coderivation, is_skew_primitive, skew_primitive_identity_report,
                    tensor_product, truncated_primitive_hopf)
from oracles import (dense_matmul, dense_nullspace, dense_rows, dense_unknowns, field_rows,
                     reference_coderivation_rows, reference_endo_witness)


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


def _transported(name):
    return parse_spec(str(Path(__file__).parent / "data" / f"{name}.json"), validate=False).wb


def _coderivation_case(request, case):
    """(wb, g, h) for a named (g,h)-coderivation system."""
    if case == "s5-m2qz2":
        data = request.getfixturevalue("s5_m2qz2")
        return data.R, data.g, data.R.unit
    if case == "s5-m2qz2-q":  # q = (3/5, -7/2): chi, sigma and lambda_g carry denominators
        data = twisted_derivation_data(GroupPresentation.cyclic(2), 2, rho=[1, -1],
                                       q=[Fraction(3, 5), Fraction(-7, 2)])
        return data.R, data.g, data.R.unit
    if case == "s5-m2z4-gf5":
        data = twisted_derivation_data(GroupPresentation.cyclic(4), 2, rho=[1, 2, 4, 3], q=[2, 3],
                                       field=Field.prime(5))
        return data.R, data.g, data.R.unit
    if case.startswith("m3qz2"):
        wb = _transported("m3qz2-transported")
        g = wb.basis_vector(10) if "twisted" in case else wb.unit
        return wb, g, g if case.endswith("both") else wb.unit  # both: L_g = L_h = 6
    if case == "m2z2-gf5-transported":
        wb = _transported(case)
        return wb, wb.basis_vector(5), wb.basis_vector(1)
    if case in ("f2z2", "qz2"):
        wb = request.getfixturevalue(case.upper())
        return wb, wb.basis_vector(1), wb.unit
    wb = function_algebra(GroupPresentation.symmetric(3), Field.prime(3))
    return wb, wb.unit, wb.unit


def _lcm_of_denominators(m):
    return math.lcm(*(c.denominator for c in m.data.values())) if m.field.p is None else 1


@pytest.mark.parametrize("case", ["qz2", "m3qz2-transported-twisted", "s5-m2qz2-q", "f2z2",
                                  "s3-functions-gf3", "s5-m2z4-gf5"])
def test_constraint_kernel_against_dense_oracle(request, case):
    """coderivation_space equals, basis for basis, the dense elimination of the
    reference rows in field scalars, over QQ with denominators and over GF(p),
    p = 2 dividing |G| in F2Z2 and p = 3 dividing |S_3|."""
    wb, g, h = _coderivation_case(request, case)
    rows = reference_coderivation_rows(wb, wb.left_mult_matrix(g), wb.left_mult_matrix(h))
    n = wb.dim ** 2
    oracle = dense_nullspace(dense_rows(rows, n, wb.field), n, wb.field)
    space = coderivation_space(wb, g, h)
    assert space and [dense_unknowns(m) for m in space] == oracle


def _compiled_rows(monkeypatch):
    """The row count of every system coderivation_space compiles, in order."""
    import weakhopf.coderivations
    compile_system, rows = weakhopf.coderivations.coderivation_constraint_matrix, []

    def counted(wb, residual):
        system = compile_system(wb, residual)
        rows.append(system.rows)
        return system
    monkeypatch.setattr(weakhopf.coderivations, "coderivation_constraint_matrix", counted)
    return rows


def _oracle_space(wb, g, h):
    """The dense elimination of the reference rows in field scalars."""
    rows = reference_coderivation_rows(wb, wb.left_mult_matrix(g), wb.left_mult_matrix(h))
    n = wb.dim ** 2
    return dense_nullspace(dense_rows(rows, n, wb.field), n, wb.field)


@pytest.mark.parametrize("field", [QQ, Field.prime(2), Field.prime(3)], ids=["QQ", "GF2", "GF3"])
@pytest.mark.parametrize("group", [GroupPresentation.symmetric(3), dihedral(6)],
                         ids=["S3", "D6"])
def test_certified_space_on_functions_on_a_group_equals_the_dense_oracle(monkeypatch, group,
                                                                         field):
    """On k^G the (1,1)-coderivations are solved on the rows whose left leg is in S*,
    3 of |G| keys: one system is compiled, smaller than the full one, its kernel
    passes the full residual with no fallback, and its basis is the dense oracle's,
    basis vector for basis vector, over QQ and over GF(2) and GF(3), p dividing |G|."""
    wb = function_algebra(group, field)
    lambda_1 = wb.left_mult_matrix(wb.unit)
    full = coderivation_constraint_matrix(wb, coderivation_residual(wb, lambda_1, lambda_1))
    rows = _compiled_rows(monkeypatch)
    space = coderivation_space(wb, wb.unit, wb.unit)
    assert len(wb.cogenerators) == 3 and len(rows) == 1 and rows[0] < full.rows
    assert space and [dense_unknowns(m) for m in space] == _oracle_space(wb, wb.unit, wb.unit)


def _falls_back(monkeypatch, wb, g, h):
    """coderivation_space(wb, g, h), asserting that the kernel of the rows on S* is
    strictly larger than the space, so the full system is compiled after them."""
    lambda_g, lambda_h = wb.left_mult_matrix(g), wb.left_mult_matrix(h)
    restricted = coderivation_residual(wb, lambda_g, lambda_h, wb.cogenerators)
    wider = certified_kernel(coderivation_constraint_matrix(wb, restricted), restricted)
    rows = _compiled_rows(monkeypatch)
    space = coderivation_space(wb, g, h)
    assert len(wb.cogenerators) < wb.dim and len(wider) > len(space)
    assert len(rows) == 2 and rows[0] < rows[1]
    return space


def test_a_g_that_is_not_group_like_falls_back_to_the_full_system(monkeypatch):
    """k^{Z_4} over GF(2) with g = e_0 + e_1 and h = 1: Delta(g a) is not
    (g (x) g) Delta(a), L4 does not apply, and the rows on S* leave vectors the full
    residual rejects; the full system is solved, and its basis is the oracle's."""
    F2 = Field.prime(2)
    wb = function_algebra(GroupPresentation.cyclic(4), F2)
    g = {0: F2.one(), 1: F2.one()}
    space = _falls_back(monkeypatch, wb, g, wb.unit)
    assert [dense_unknowns(m) for m in space] == _oracle_space(wb, g, wb.unit)


def test_a_perturbed_coproduct_falls_back_to_the_full_system(monkeypatch):
    """k^{S_3} with the b_5 (x) b_0 coefficient of Delta(b_5) set to 2, parsed without
    validation: R is not coassociative, the rows on S* leave a kernel one larger, and
    the full system gives the oracle's basis."""
    base = function_algebra(GroupPresentation.symmetric(3))
    doc = emit_spec(SpecBundle(field=QQ, wb=base, name="kS3"))
    doc["comult"] = [[i, j, k, "2" if (i, j, k) == (5, 0, 5) else c]
                     for i, j, k, c in doc["comult"]]
    wb = parse_spec(doc, validate=False).wb
    assert wb.coproduct(5)[5, 0] == 2
    space = _falls_back(monkeypatch, wb, wb.unit, wb.unit)
    assert space and [dense_unknowns(m) for m in space] == _oracle_space(wb, wb.unit, wb.unit)


def test_residual_kernel_raises_on_a_planted_wrong_residual(s5_m2qz2):
    """The kernel of the (g,1)-coderivation system of section-5 M_2(QZ_2)
    re-checked with the (1,1) residual, which none of it satisfies, raises."""
    R, g = s5_m2qz2.R, s5_m2qz2.g
    residual = coderivation_residual(R, R.left_mult_matrix(g), R.left_mult_matrix(R.unit))
    planted = coderivation_residual(R, R.left_mult_matrix(R.unit), R.left_mult_matrix(R.unit))
    system = coderivation_constraint_matrix(R, residual)
    assert len(residual_kernel(system, residual)) == R.dim
    with pytest.raises(ValidationError, match="kernel vector fails its residual at"):
        residual_kernel(system, planted)


@pytest.mark.parametrize("case", ["s5-m2qz2", "m3qz2-transported", "m3qz2-transported-twisted",
                                  "m3qz2-transported-twisted-both", "m2z2-gf5-transported",
                                  "f2z2", "s3-functions-gf3"])
def test_compiled_coderivation_system_has_the_reference_rows(request, case):
    """The coderivation residual, compiled, has exactly the distinct rows of the
    reference row builder, over QQ (denominators in m3qz2-transported) and
    GF(p): each int row is S = D lcm(L_g, L_h) times its field row over QQ (D
    the scale of R's integer view, L the lcm of a lambda's denominators), its
    residues over GF(p), and no row repeats."""
    wb, g, h = _coderivation_case(request, case)
    lambda_g, lambda_h = wb.left_mult_matrix(g), wb.left_mult_matrix(h)
    compiled = coderivation_constraint_matrix(wb, coderivation_residual(wb, lambda_g, lambda_h))
    reference = reference_coderivation_rows(wb, lambda_g, lambda_h)
    S = wb.integer_view.scale * math.lcm(_lcm_of_denominators(lambda_g),
                                         _lcm_of_denominators(lambda_h))
    assert reference and field_rows(compiled, S) == reference
    assert compiled.rows == len(reference)


def test_shifted_coderivation_space_maps_fail_on_function_algebra_d6():
    kg = function_algebra(dihedral(6))
    dim, unit = kg.dim, kg.unit
    lambda_1 = kg.left_mult_matrix(unit)
    constraint = dense_rows(reference_coderivation_rows(kg, lambda_1, lambda_1), dim * dim, QQ)
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


@pytest.mark.parametrize("case", ["m3qz2-transported", "m2z2-gf5-transported"])
def test_endo_witness_on_ints_matches_field_oracle(case):
    """On R's integer view with D > 1 (QQ) and over GF(5), the identity passes and
    each perturbed identity gives the witness field arithmetic gives first."""
    wb = _transported(case)
    one, rng = wb.field.one(), random.Random(5)
    ident = {(k, k): one for k in wb.keys}
    assert is_unital_algebra_endo(wb, Matrix(wb.field, wb.dim, wb.dim, ident)) is None
    for _ in range(12):
        entry = (rng.randrange(wb.dim), rng.randrange(wb.dim))
        bump = Fraction(1, 3) if wb.field.p is None else wb.field(2)
        m = Matrix(wb.field, wb.dim, wb.dim, ident | {entry: ident.get(entry, 0) + bump})
        witness = reference_endo_witness(wb, m)
        assert witness is not None and is_unital_algebra_endo(wb, m) == witness


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
    """The report reads no column of delta through Matrix.apply (its one
    apply call is the clause table's eps o sigma pull-back, as the
    transpose of sigma applied to eps) and records, in order, one entry
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
    assert applies == [R.counit_vector]
    axioms = [axiom for axiom, _, _ in records]
    assert axioms == ["delta_is_coderivation", "hypothesis_eps_s_g_is_unit",
                      "hypothesis_eps_s_h_is_unit", *["counit_kills_delta"] * R.dim,
                      "hypothesis_delta_kills_R_s", "hypothesis_sigma_is_left_winding",
                      *["counit_kills_a_delta_b"] * R.dim ** 2]
    assert all(passed for axiom, _, passed in records if axiom.startswith("hypothesis_"))
    by_axiom = lambda name: [(w, ok) for axiom, w, ok in records if axiom == name]
    assert by_axiom("counit_kills_delta") == kills_delta
    assert by_axiom("counit_kills_a_delta_b") == kills_a_delta_b

