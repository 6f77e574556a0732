import random
from fractions import Fraction
from pathlib import Path

import pytest

from lemmas import (FieldMismatch, axiom_passed, basis_element, counit_value,
                    counital_matrices, dihedral, function_algebra, identity, tensor_product,
                    weak_counit_identities)
from oracles import dense_associativity_failures, dense_tensor_mul
from test_integer_view import GF5, QQ_TRANSPORT, SPECS, _perturbed, _spec_path
from weakhopf.bialgebra import (WeakBialgebra, WeakHopfAlgebra, algebra_report, base_subalgebras,
                                check_antipode, check_weak_bialgebra, coalgebra_report,
                                convolution)
from weakhopf.errors import (AxiomFailure, CounitFails, DimensionMismatch, NotAssociative,
                             UnitFails, ValidationError)
from weakhopf.fields import Field, QQ
from weakhopf.groupoid import GroupPresentation, group_algebra
from weakhopf.grouplike import is_weak_grouplike
from weakhopf.linalg import Matrix
from weakhopf.ore import make_ore
from weakhopf.panov import groupoid_character
from weakhopf.report import AxiomReport
from weakhopf.specfile import parse_spec

DATA = Path(__file__).parent / "data"


def _vec(field, values):
    return {i: field(v) for i, v in enumerate(values) if v}


# -- construction-time validation --------------------------------------------


def test_make_algebra_unit_fails():
    # e*e = f, f*f = e, ef = fe = 0, with e declared as unit
    f = QQ
    mult = {(0, 0): _vec(f, [0, 1]), (1, 1): _vec(f, [1, 0]), (0, 1): {}, (1, 0): {}}
    with pytest.raises(UnitFails):
        WeakBialgebra(f, 2, mult, {0: f.one()}, {}, {})


def test_make_algebra_not_associative():
    f = QQ
    one = {0: f.one()}
    mult = {(0, 0): one, (0, 1): {1: f.one()}, (0, 2): {2: f.one()},
            (1, 0): {1: f.one()}, (2, 0): {2: f.one()},
            (1, 1): {2: f.one()}, (1, 2): one,
            (2, 1): {}, (2, 2): {}}
    with pytest.raises(NotAssociative) as exc:
        WeakBialgebra(f, 3, mult, one, {}, {})
    assert exc.value.witness == (1, 1, 1)


def test_coalgebra_counit_fails():
    f = QQ
    mult, unit, _, _ = _sweedler_parts()
    comult = {0: {(0, 0): f.one()}, 1: {(1, 1): f.one()}}
    with pytest.raises(CounitFails):
        WeakBialgebra(f, 2, mult, unit, comult, {0: f.one()})


def test_weak_bialgebra_rejects_invalid(M2):
    bad_counit = {0: Fraction(1), 3: Fraction(1)}
    with pytest.raises(CounitFails):
        WeakBialgebra(QQ, 4, M2.mult, M2.unit, M2.comult, bad_counit, validate=True)
    # kZ_2's product with the coalgebra of functions on Z_2, on the same basis
    mult, unit, _, _ = _sweedler_parts()
    functions = function_algebra(GroupPresentation.cyclic(2))
    with pytest.raises(AxiomFailure, match="coproduct_multiplicative"):
        WeakBialgebra(QQ, 2, mult, unit, functions.comult, functions.counit_vector)


def test_zero_dimensional_rejected():
    with pytest.raises(Exception):
        WeakBialgebra(QQ, 0, {}, {}, {}, {})


def test_label_count_must_match_dimension():
    mult, unit, comult, counit = _sweedler_parts()
    with pytest.raises(ValidationError, match="label count does not match dimension"):
        WeakBialgebra(QQ, 2, mult, unit, comult, counit, labels=["1"])


# -- element dicts at the constructors -----------------------------------------


def _sweedler_parts(field=QQ):
    """The structure constants of kZ_2 as the constructors take them."""
    one = field.one()
    return ({(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {0: one}},
            {0: one}, {0: {(0, 0): one}, 1: {(1, 1): one}}, {0: one, 1: one})


@pytest.mark.parametrize("where", ["mult value", "mult key", "unit"])
def test_algebra_refuses_index_out_of_range(where):
    mult, unit, comult, counit = _sweedler_parts()
    if where == "mult value":
        mult[(1, 1)] = {2: QQ.one()}
    elif where == "mult key":
        mult[(1, 2)] = {0: QQ.one()}
    else:
        unit = {0: QQ.one(), -1: QQ.one()}
    with pytest.raises(DimensionMismatch):
        WeakBialgebra(QQ, 2, mult, unit, comult, counit, validate=False)


@pytest.mark.parametrize("where", ["comult pair", "comult key", "counit"])
def test_coalgebra_refuses_index_out_of_range(where):
    mult, unit, comult, counit = _sweedler_parts()
    if where == "comult pair":
        comult[1] = {(1, 2): QQ.one()}
    elif where == "comult key":
        comult[2] = {(0, 0): QQ.one()}
    else:
        counit = {0: QQ.one(), 5: QQ.one()}
    with pytest.raises(DimensionMismatch):
        WeakBialgebra(QQ, 2, mult, unit, comult, counit, validate=False)


@pytest.mark.parametrize("bad", [0.5, True, "1", Field.prime(5).one()])
@pytest.mark.parametrize("where", ["mult", "unit", "comult", "counit"])
def test_constructors_refuse_foreign_scalars(where, bad):
    mult, unit, comult, counit = _sweedler_parts()
    if where == "mult":
        mult[(1, 1)] = {0: bad}
    elif where == "unit":
        unit = {0: bad}
    elif where == "comult":
        comult[1] = {(1, 1): bad}
    else:
        counit = {0: QQ.one(), 1: bad}
    with pytest.raises(ValidationError):
        WeakBialgebra(QQ, 2, mult, unit, comult, counit, validate=False)


@pytest.mark.parametrize("bad", [0.5, True, "1", Field.prime(5).one()])
def test_matrix_refuses_foreign_scalars(sweedler, bad):
    """Every Matrix entry goes through Field.coerce, so a float sigma is refused
    before make_ore's algebra-map check reaches the elimination."""
    with pytest.raises(ValidationError):
        Matrix(QQ, 2, 2, {(0, 0): 1, (1, 1): bad})
    with pytest.raises(ValidationError):
        Matrix(Field.prime(3), 2, 2, {(0, 1): bad})
    with pytest.raises(ValidationError):
        make_ore(sweedler.R, Matrix(QQ, 2, 2, {(0, 0): 1.0, (1, 1): -1.0}), sweedler.delta)


@pytest.mark.parametrize("field", [QQ, Field.prime(3)])
def test_matrix_takes_ints_and_drops_zeros(field):
    m = Matrix(field, 2, 2, {(0, 0): 1, (0, 1): 3, (1, 1): field(-1)})
    assert m.data == ({(0, 0): field(1), (0, 1): field(3), (1, 1): field(-1)} if field == QQ
                      else {(0, 0): field(1), (1, 1): field(2)})
    assert all(type(c) is type(field.one()) for c in m.data.values())


@pytest.mark.parametrize("validate", [True, False])
@pytest.mark.parametrize("shape", [(3, 2), (2, 3)])
def test_antipode_shape_is_checked_first(shape, validate):
    """The shape is compared before the basis view reads the antipode, with or
    without validation, so a wrong shape on kZ_3 is never an IndexError."""
    R = group_algebra(GroupPresentation.cyclic(3))
    S = Matrix(R.field, *shape, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(DimensionMismatch, match="antipode matrix has wrong shape"):
        WeakHopfAlgebra(R.field, R.dim, R.mult, R.unit, R.comult, R.counit_vector, S,
                        validate=validate)


@pytest.mark.parametrize("field", [QQ, Field.prime(3)])
def test_constructors_take_ints_and_drop_zeros(field):
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1, 1: 0}}
    wb = WeakBialgebra(field, 2, mult, {0: 1, 1: 0},
                       {0: {(0, 0): 1, (0, 1): 0}, 1: {(1, 1): 1}}, {0: 1, 1: 1})
    parts = _sweedler_parts(field)
    assert (wb.mult, wb.unit, wb.comult, wb.counit_vector) == parts
    scalars = [*wb.unit.values(), *wb.counit_vector.values()]
    assert all(type(c) is type(field.one()) for c in scalars)
    assert wb.unit == {0: field.one()}


# -- axiom sweeps -------------------------------------------------------------


def test_fixtures_pass_weak_bialgebra_checks(M2, QZ2, M2Z2):
    for wb in (M2, QZ2, M2Z2):
        assert check_weak_bialgebra(wb).passed
        assert check_antipode(wb).passed


@pytest.mark.parametrize("source", ["M2Z2", "m2qz2-bad-mult.json"])
def test_associative_witnesses_match_dense_oracle(request, source):
    if source.endswith(".json"):
        wb = parse_spec(str(DATA / source), validate=False).wb
    else:
        wb = request.getfixturevalue(source)
    expected = dense_associativity_failures(wb)
    assert bool(expected) == source.endswith(".json")  # a bad oracle would pass vacuously
    report = algebra_report(wb)
    assert axiom_passed(report, "unital")
    assert [f.witness for f in report.failures("associative")] == expected


def test_corrupted_counit_fails_weak_multiplicativity(M2):
    bad_counit = {0: Fraction(1), 3: Fraction(1)}
    wb = WeakBialgebra(QQ, 4, M2.mult, M2.unit, M2.comult, bad_counit, M2.labels, validate=False)
    report = check_weak_bialgebra(wb)
    assert not report.passed
    assert axiom_passed(report, "coproduct_multiplicative")
    assert axiom_passed(report, "coproduct_unit_compatibility")
    fails = report.failures("counit_weak_multiplicative")
    assert fails
    # first failing triple in basis order: (E11, E12, E21)
    assert fails[0].witness == (0, 1, 2)


def test_counital_maps_matrix_units(M2):
    e12 = basis_element(M2, 0, 0, 1)
    et, es, etp, esp = M2.eps_t(e12), M2.eps_s(e12), M2.eps_t_prime(e12), M2.eps_s_prime(e12)
    assert et == basis_element(M2, 0, 0, 0)
    assert es == basis_element(M2, 0, 1, 1)
    assert etp == basis_element(M2, 0, 1, 1)
    assert esp == basis_element(M2, 0, 0, 0)


def test_counital_maps_group_algebra(QZ2):
    t = QZ2.basis_vector(1)
    et, es = QZ2.eps_t(t), QZ2.eps_s(t)
    assert et == QZ2.unit
    assert es == QZ2.unit


def test_counital_maps_permutation(M2):
    g = basis_element(M2, 0, 0, 1) | basis_element(M2, 0, 1, 0)
    assert M2.eps_t(g) == M2.unit
    assert M2.eps_s(g) == M2.unit


def test_counital_projections_idempotent(M2, QZ3, M2Z2):
    for wb in (M2, QZ3, M2Z2):
        for m in counital_matrices(wb):
            assert m * m == m


def _qq_transport(seed, count=3, tables=("mult", "comult", "counit", "antipode")):
    wb = parse_spec(QQ_TRANSPORT, validate=False).wb
    return _perturbed(wb, random.Random(seed), count,
                      lambda r: Fraction(r.randrange(1, 50), r.randrange(2, 50)), tables)


def _gf5_kd4(seed, count=4, tables=("mult", "comult", "counit", "antipode")):
    return _perturbed(function_algebra(dihedral(4), GF5), random.Random(seed), count,
                      lambda r: GF5(r.randrange(1, 5)), tables)


TABLES = (("mult", "comult", "counit", "antipode"), ("antipode",), ("mult",))
# Unvalidated instances: every spec file, and the QQ-transported and GF(5) instances
# that test_integer_view perturbs, perturbed as there.
COUNITAL_CASES = {
    **{name: lambda name=name: parse_spec(_spec_path(name), validate=False).wb
       for name in SPECS},
    **{f"m3qz2-QQ-{seed}": lambda seed=seed: _qq_transport(seed) for seed in range(6)},
    **{f"kD4-GF5-{seed}": lambda seed=seed: _gf5_kd4(seed) for seed in range(4)},
    **{f"m3qz2-QQ-{'-'.join(tables)}-{seed}": lambda t=tables, s=seed: _qq_transport(s, 3, t)
       for seed in range(2) for tables in TABLES},
    **{f"kD4-GF5-{'-'.join(tables)}-{seed}": lambda t=tables, s=seed: _gf5_kd4(s, 4, t)
       for seed in range(2) for tables in TABLES},
    "kD4-GF5": lambda: function_algebra(dihedral(4), GF5),
}
NOT_IDEMPOTENT = ("m2qz2-bad-comult.json", "m3qz2-bad-counit.json")


@pytest.mark.parametrize("name", COUNITAL_CASES)
def test_r_s_sweeps_imply_idempotent_counital_maps(name):
    """The lemma in the WeakBialgebra docstring, which spares the constructor a check:
    wherever the algebra, coalgebra and weak-bialgebra sweeps that validate R pass, all
    four counital maps are idempotent.  Both controls fail those sweeps and have a
    counital map that is not idempotent, so the sweeps are what the lemma needs."""
    wb = COUNITAL_CASES[name]()
    swept = all(check(wb).passed
                for check in (algebra_report, coalgebra_report, check_weak_bialgebra))
    idempotent = all(m * m == m for m in counital_matrices(wb))
    assert idempotent or not swept
    if name in NOT_IDEMPOTENT:
        assert not swept and not idempotent
    elif name in SPECS and "bad" not in name or name == "kD4-GF5":
        assert swept  # the implication is not vacuous


def test_base_subalgebras_matrix(M2):
    basis_t, basis_s = base_subalgebras(M2)
    diag = {tuple(sorted(basis_element(M2, 0, i, i).items())) for i in range(2)}
    assert {tuple(sorted(v.items())) for v in basis_t} == diag
    assert {tuple(sorted(v.items())) for v in basis_s} == diag


def test_base_subalgebras_hopf_case(QZ3):
    basis_t, basis_s = base_subalgebras(QZ3)
    assert [v for v in basis_t] == [QZ3.unit]
    assert [v for v in basis_s] == [QZ3.unit]


def test_base_subalgebras_groupoid(M2Z2):
    basis_t, basis_s = base_subalgebras(M2Z2)
    diag = {tuple(sorted(basis_element(M2Z2, 0, i, i).items())) for i in range(2)}
    assert {tuple(sorted(v.items())) for v in basis_t} == diag
    assert {tuple(sorted(v.items())) for v in basis_s} == diag


# -- counit identities ---------------------------------------------------------


def test_weak_counit_identities_matrix(M2):
    a, b = basis_element(M2, 0, 0, 1), basis_element(M2, 0, 1, 0)
    report = weak_counit_identities(M2, a, b)
    assert report.passed
    assert counit_value(M2, M2.multiply(a, b)) == Fraction(1)


def test_weak_counit_identities_exhaustive(M2, QZ2, QZ4, M2Z2):
    for wb in (M2, QZ2, QZ4, M2Z2):
        for i in range(wb.dim):
            for j in range(wb.dim):
                assert weak_counit_identities(wb, wb.basis_vector(i), wb.basis_vector(j)).passed


def test_weak_counit_identity_with_unit(M2):
    for i in range(M2.dim):
        a = M2.basis_vector(i)
        report = weak_counit_identities(M2, a, M2.unit)
        assert report.passed


# -- convolution ---------------------------------------------------------------


def _random_functional(rng, wb):
    return {i: c for i in range(wb.dim) if (c := Fraction(rng.randint(-3, 3)))}


def test_convolution_identity_is_counit(M2, M2Z2):
    rng = random.Random(3)
    for wb in (M2, M2Z2):
        eps = wb.counit_vector
        for _ in range(5):
            f = _random_functional(rng, wb)
            assert convolution(eps, f, wb) == f
            assert convolution(f, eps, wb) == f


def test_convolution_associative(M2Z2):
    rng = random.Random(5)
    for _ in range(5):
        f, g, h = (_random_functional(rng, M2Z2) for _ in range(3))
        lhs = convolution(convolution(f, g, M2Z2), h, M2Z2)
        rhs = convolution(f, convolution(g, h, M2Z2), M2Z2)
        assert lhs == rhs


def test_character_convolution_is_pointwise_on_matrix_algebra(M2):
    one = Fraction(1)
    chi_q = groupoid_character(M2, [one], [Fraction(1), Fraction(2)]).chi
    chi_r = groupoid_character(M2, [one], [Fraction(1), Fraction(3)]).chi
    expected = groupoid_character(M2, [one], [Fraction(1), Fraction(6)]).chi
    assert convolution(chi_q, chi_r, M2) == expected


# -- tensor products -------------------------------------------------------------


def test_tensor_product_field_mismatch(M2, F2Z2):
    with pytest.raises(FieldMismatch):
        tensor_product(M2, F2Z2)


def test_tensor_with_trivial_factor_is_isomorphic(M2):
    field = QQ
    one = {0: field.one()}
    trivial = WeakHopfAlgebra(field, 1, {(0, 0): one}, one, {0: {(0, 0): field.one()}}, one,
                              identity(field, 1), ["1"])
    prod = tensor_product(M2, trivial)
    assert prod.dim == M2.dim
    for i in range(M2.dim):
        for j in range(M2.dim):
            assert prod.product(i, j) == M2.product(i, j)
    for k in range(M2.dim):
        assert prod.coproduct(k) == M2.coproduct(k)
    assert isinstance(prod, WeakHopfAlgebra)


def test_tensor_product_passes_checks_and_has_antipode(M2, QZ2):
    prod = tensor_product(M2, QZ2)
    assert prod.dim == 8
    assert check_weak_bialgebra(prod).passed
    assert check_antipode(prod).passed


def test_tensor_of_weak_grouplikes_is_weak_grouplike(M2, QZ2):
    prod = tensor_product(M2, QZ2)
    g = basis_element(M2, 0, 0, 1)            # E12
    gp = QZ2.basis_vector(1)           # t
    tensor_elt = {}
    for i, ci in g.items():
        for j, cj in gp.items():
            tensor_elt = prod.add(tensor_elt, {i * 2 + j: ci * cj})
    assert is_weak_grouplike(prod, tensor_elt)


# -- the R (x) R product ----------------------------------------------------------------


def _random_tensor(field, dim, rng, terms=12):
    """A 2-tensor of ``terms`` random entries num/den with den in {2, 3, 5}, read in ``field``."""
    out = {}
    for _ in range(terms):
        c = field(rng.randint(-9, 9)) / field(rng.choice((2, 3, 5)))
        out[(rng.randrange(dim), rng.randrange(dim))] = c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("name", ["M2Z2", "S3/QQ", "S3/GF(7)"])
def test_tensor_mul_matches_dense_oracle(request, name):
    if name == "M2Z2":
        wb = request.getfixturevalue("M2Z2")
    else:
        field = QQ if name.endswith("QQ") else Field.prime(7)
        wb = function_algebra(GroupPresentation.symmetric(3), field)
    rng = random.Random(7)
    nonzero = 0
    for _ in range(6):
        s = _random_tensor(wb.field, wb.dim, rng)
        t = _random_tensor(wb.field, wb.dim, rng)
        expected = dense_tensor_mul(wb, s, t)
        assert wb.tensor_mul(s, t) == expected
        nonzero += bool(expected)
    assert nonzero >= 3  # a product that is always zero would pass vacuously


# -- report container -------------------------------------------------------------


def test_report_lines_format_and_witness_order():
    report = AxiomReport()
    report.record("alpha", True)
    report.record("beta", False, witness=(2, 1))
    report.record("beta", False, witness=(0, 3))
    assert report.lines() == ["AXIOM alpha PASS", "AXIOM beta FAIL witness=(0,3)"]
    assert not report.passed
    assert [f.witness for f in report.failures("beta")] == [(0, 3), (2, 1)]


def test_report_scope_reads_the_degree_bound_until_marked():
    """Each axiom of a report to a degree bound D reads "degree <= D" until it is marked
    decided in every degree; a merge carries the marks, and the lines never show them.
    record_passes, mark_all_degrees and merge return the report, so they chain."""
    report = AxiomReport(3)
    report.record("x", True)
    report.record("y", True)
    marked = AxiomReport()
    assert marked.record_passes("x", 1) is marked
    assert marked.mark_all_degrees("x") is marked
    assert report.merge(marked) is report
    assert (report.scope("x"), report.scope("y")) == ("all degrees", "degree <= 3")
    assert AxiomReport().scope("x") is None
    assert report.lines() == ["AXIOM x PASS", "AXIOM y PASS"]
    chained = AxiomReport(3).merge(marked).record_passes("y", 2).mark_all_degrees("y")
    assert (chained.scope("x"), chained.scope("y")) == ("all degrees", "all degrees")
    assert (marked.scope("y"), report.scope("y")) == (None, "degree <= 3")


def test_report_merge_is_order_independent():
    a = AxiomReport()
    a.record("x", False, witness=(5,))
    b = AxiomReport()
    b.record("x", False, witness=(1,))
    merged1 = AxiomReport().merge(a).merge(b)
    merged2 = AxiomReport().merge(b).merge(a)
    assert merged1.lines() == merged2.lines()
    c = AxiomReport().record_passes("y", 2).mark_all_degrees("y")
    at_once = AxiomReport(2).merge(a, b, c)
    one_by_one = AxiomReport(2).merge(a).merge(b).merge(c)
    assert at_once.lines() == one_by_one.lines() == ["AXIOM x FAIL witness=(1)", "AXIOM y PASS"]
    assert at_once.failures() == one_by_one.failures()
    scopes = ["degree <= 2", "all degrees"]
    assert [at_once.scope(n) for n in "xy"] == [one_by_one.scope(n) for n in "xy"] == scopes
    assert AxiomReport().merge().lines() == []
    assert [f.witness for r in (a, b) for f in r.failures()] == [(5,), (1,)]  # read, not changed
