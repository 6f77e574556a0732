"""The integer views of R and of H against the field views: the same sweeps, the same report.

``IntegerView`` holds a view's tables as ints (scaled by the lcm D of their
denominators over QQ, residues mod p over GF(p)); R itself and
H = R[x; sigma, delta], each its own basis view, hold field scalars.  Every sweep
of R, and every shared sweep of H at degree bounds 0 to 3, runs on both,
and the failures (axiom, witness, lhs and rhs text) and the pass counts per
axiom must agree.  H's integer view reads its entries on demand, from H's
int copy when every table it reads is integral and from H's own field
tables otherwise; every entry it reads must be H's own field entry.
"""

import json
import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from forced_ore import FORCED_SECTION5, forced_section5, sign_flipped_sweedler
from lemmas import axiom_names, dihedral, function_algebra
from oracles import (dense_associativity_failures, reference_antipode_sandwiches,
                     reference_unit_compatibility)
from weakhopf.bialgebra import (IntegerView, WeakHopfAlgebra,
                                algebra_report, check_weak_bialgebra, sweep_antipode,
                                sweep_associative, sweep_coassociative,
                                sweep_coproduct_multiplicative, sweep_counit_neutral,
                                sweep_counit_weak_multiplicative, sweep_unit_compatibility,
                                sweep_unital)
from weakhopf.cli import main
from weakhopf.fields import Field
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, build_groupoid_algebra
from weakhopf.linalg import Matrix
from weakhopf import ore
from weakhopf.errors import TooLarge
from weakhopf.ore import extend_antipode, make_ore, refuse_large_degree, verify_extension
from weakhopf.report import AxiomReport
from weakhopf.specfile import parse_spec

DATA = Path(__file__).parent / "data"
SPECS = sorted([*(p.name for p in (resources.files("weakhopf") / "data").iterdir()
                  if p.name.endswith(".json")),
                *(p.name for p in DATA.glob("*.json"))])


def _spec_path(name):
    bundled = resources.files("weakhopf") / "data" / name
    return str(bundled) if bundled.is_file() else str(DATA / name)


def _sweep_all(wb, view):
    report = AxiomReport()
    sweep_unital(view, report)
    sweep_associative(view, report)
    sweep_coassociative(view, report, "coassociative")
    sweep_counit_neutral(view, report, "left")
    sweep_counit_neutral(view, report, "right")
    sweep_coproduct_multiplicative(view, report)
    sweep_unit_compatibility(view, report)
    sweep_counit_weak_multiplicative(view, report)
    if isinstance(wb, WeakHopfAlgebra):
        sweep_antipode(view, report)
    return report


def _summary(report):
    failures = [(f.axiom, f.witness, f.lhs, f.rhs) for f in report.failures()]
    return failures, {name: report._pass_counts[name] for name in axiom_names(report)}


def _assert_views_agree(wb):
    assert type(wb.integer_view) is IntegerView
    ints = _summary(_sweep_all(wb, wb.integer_view))
    assert ints == _summary(_sweep_all(wb, wb))
    return ints


def _perturbed(wb, rng, count, scalar, tables=("mult", "comult", "counit", "antipode")):
    """wb with ``count`` entries of its ``tables`` moved by scalar(rng), built
    without validation."""
    field, dim = wb.field, wb.dim
    mult = {ij: dict(v) for ij, v in wb.mult.items()}
    comult = {k: dict(t) for k, t in wb.comult.items()}
    counit, antipode = dict(wb.counit_vector), dict(wb.antipode_matrix.data)
    for _ in range(count):
        table = rng.choice(tables)
        i, j, k = (rng.randrange(dim) for _ in range(3))
        slot, key = {"mult": (mult.setdefault((i, j), {}), k),
                     "comult": (comult.setdefault(k, {}), (i, j)),
                     "counit": (counit, k),
                     "antipode": (antipode, (i, j))}[table]
        slot[key] = slot.get(key, field.zero()) + scalar(rng)
    return WeakHopfAlgebra(field, dim, mult, wb.unit, comult, counit,
                           Matrix(field, dim, dim, antipode), wb.labels, validate=False)


@pytest.mark.parametrize("build", [
    lambda: parse_spec(_spec_path("m2q.json")),
    lambda: main(["check", _spec_path("m2q.json")]),
    lambda: build_groupoid_algebra(GroupPresentation.cyclic(2), 2),
], ids=["parse_spec", "check", "build_groupoid_algebra"])
def test_r_is_read_into_one_integer_view(count_calls, capsys, build):
    """Validating R, or checking a spec file, sweeps every axiom of R on one
    integer view of all its tables."""
    calls = count_calls("IntegerView.__init__")
    build()
    assert calls["IntegerView.__init__"] == 1


@pytest.mark.parametrize("antipode", [True, False], ids=["hopf", "bialgebra"])
@pytest.mark.parametrize("name", SPECS)
def test_view_tables_read_the_public_entries_of_r(name, antipode):
    """On every spec file, bundled or under tests/data (over QQ and over GF(5)), with
    its antipode and without, R and R.integer_view read R's public entries on every
    key and key pair, the integer view's read back at its scale: product(a, b) is
    mult's entry or {}, coproduct(k) comult's or {}, counit(k) counit_vector's or 0,
    and antipode(k) column k of antipode_matrix."""
    doc = json.loads(Path(_spec_path(name)).read_text())
    if not antipode:
        del doc["antipode"]
    wb = parse_spec(doc, validate=False).wb
    for view in (wb, wb.integer_view):
        read = lambda entry: view.field_side(entry, 1)
        for k in wb.keys:
            assert all(read(view.product(k, b)) == wb.mult.get((k, b), {}) for b in wb.keys)
            assert read(view.coproduct(k)) == wb.comult.get(k, {})
            assert read(view.counit(k)) == wb.counit_vector.get(k, 0)
            if antipode:
                assert read(view.antipode(k)) == wb.antipode_matrix.column_dicts()[k]


@pytest.mark.parametrize("name", SPECS)
def test_integer_view_matches_field_view_on_spec_files(name):
    wb = parse_spec(_spec_path(name), validate=False).wb
    failures, _ = _assert_views_agree(wb)
    assert bool(failures) == ("bad" in name)
    if name.startswith("m2qz2-bad-"):
        assert wb.integer_view.scale > 1


def test_transported_m3qz2_has_d_36():
    wb = parse_spec(str(DATA / "m3qz2-transported.json"), validate=False).wb
    assert wb.integer_view.scale == 36 and wb.integer_view.modulus is None
    ints = wb.integer_view
    assert all(type(c) is int for a in wb.keys for b in wb.keys for c in ints.product(a, b).values())


@pytest.mark.parametrize("seed", range(6))
def test_integer_view_matches_field_view_on_perturbed_qq_transport(seed):
    """Rationals with new denominators make D the lcm of 36 and theirs."""
    wb = parse_spec(str(DATA / "m3qz2-transported.json"), validate=False).wb
    rng = random.Random(seed)
    bad = _perturbed(wb, rng, 3, lambda r: Fraction(r.randrange(1, 50), r.randrange(2, 50)))
    assert bad.integer_view.scale % 36 == 0
    failures, _ = _assert_views_agree(bad)
    assert failures


@pytest.mark.parametrize("p, seed", [(p, seed) for p in (3, 5, 7) for seed in range(4)])
def test_integer_view_matches_field_view_on_perturbed_gfp_kd4(p, seed):
    field = Field.prime(p)
    wb = _perturbed(function_algebra(dihedral(4), field), random.Random(seed), 4,
                    lambda r: field(r.randrange(1, p)))
    assert wb.integer_view.scale == 1 and wb.integer_view.modulus == p
    failures, _ = _assert_views_agree(wb)
    assert failures


@pytest.mark.parametrize("build", [
    lambda: _perturbed(function_algebra(dihedral(4), Field.prime(5)), random.Random(1), 3,
                       lambda r: Field.prime(5)(r.randrange(1, 5)), ("mult",)),
    lambda: _perturbed(parse_spec(str(DATA / "m3qz2-transported.json"), validate=False).wb,
                       random.Random(2), 2, lambda r: Fraction(r.randrange(1, 9), 7), ("mult",)),
], ids=["kD4-GF5", "m3qz2-QQ"])
def test_integer_associativity_failures_match_dense_oracle(build):
    wb = build()
    expected = dense_associativity_failures(wb)
    assert expected  # a bad oracle would pass vacuously
    assert [f.witness for f in algebra_report(wb).failures("associative")] == expected


def _compared_sides(view, sweep, weights):
    """The (lhs, rhs) pairs the sweep compares through view.agree at those weights,
    in order, zero entries dropped."""
    seen, agree = [], IntegerView.agree
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IntegerView, "agree",
                      lambda self, lhs, rhs, w: seen.append((lhs, rhs, w)) or agree(self, lhs, rhs, w))
        sweep(view, AxiomReport())
    nonzero = lambda side: {k: c for k, c in side.items() if c}
    return [(nonzero(lhs), nonzero(rhs)) for lhs, rhs, w in seen if w == weights]


def _assert_factored_sums_match_oracles(view):
    """The sandwich of sweep_antipode (sides of weight 6/1) and the product side of
    sweep_unit_compatibility (3/9) equal the former term-by-term sums exactly."""
    sandwiches = reference_antipode_sandwiches(view)
    assert sandwiches and any(sandwiches.values())
    compared = _compared_sides(view, sweep_antipode, (6, 1))
    assert [lhs for lhs, _ in compared] == [sandwiches[k] for k in view.keys]
    sides = reference_unit_compatibility(view)
    assert sides["left"] and sides["right"]
    compared = _compared_sides(view, sweep_unit_compatibility, (3, 9))
    assert [rhs for _, rhs in compared] == [sides["left"], sides["right"]]


QQ_TRANSPORT = str(DATA / "m3qz2-transported.json")
GF5 = Field.prime(5)
FACTORED_SUM_CASES = {
    **{f"m3qz2-QQ-{tables}-{seed}": (lambda tables=tables, seed=seed: _perturbed(
        parse_spec(QQ_TRANSPORT, validate=False).wb, random.Random(seed), 3,
        lambda r: Fraction(r.randrange(1, 50), r.randrange(2, 50)), tables).integer_view)
       for seed in range(2)
       for tables in (("mult", "comult", "counit", "antipode"), ("antipode",), ("mult",))},
    **{f"kD4-GF5-{tables}-{seed}": (lambda tables=tables, seed=seed: _perturbed(
        function_algebra(dihedral(4), GF5), random.Random(seed), 4,
        lambda r: GF5(r.randrange(1, 5)), tables).integer_view)
       for seed in range(2)
       for tables in (("mult", "comult", "counit", "antipode"), ("antipode",), ("mult",))},
    **{f"sign-flipped-S(x)-D{B}": (lambda B=B: sign_flipped_sweedler().integer_view(B))
       for B in range(4)},
}


@pytest.mark.parametrize("name", FACTORED_SUM_CASES)
def test_factored_sums_match_the_term_by_term_oracles(name):
    """The antipode sandwich, summed as c right(i) S(j) over Delta(k), and the
    unit-coproduct sides, summed per middle key, are the same ints as the sums
    over triples and over pairs of terms of Delta(1) in tests/oracles.py: on
    perturbed QQ and GF(5) algebras, antipode- and mult-perturbed among them,
    and on the forced H with S(x) = +S(g) x at degree bounds 0 to 3."""
    _assert_factored_sums_match_oracles(FACTORED_SUM_CASES[name]())


@pytest.mark.parametrize("name", ["m3qz2-transported.json", "m3qz2-bad-counit.json"])
def test_pass_counts_add_up_to_tuples_swept(name):
    """Rows that agree are counted in bulk; each axiom still counts every tuple once."""
    wb = parse_spec(str(DATA / name), validate=False).wb
    dim = wb.dim
    assoc = algebra_report(wb)
    weak = check_weak_bialgebra(wb)
    assert assoc._pass_counts["associative"] == dim ** 3
    counit = "counit_weak_multiplicative"
    assert weak._pass_counts[counit] + len(weak.failures(counit)) == 2 * dim ** 3
    assert bool(weak.failures(counit)) == ("bad" in name)


def _extended(data):
    return extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))


def _section5(group, n, rho, q, field=None):
    return lambda: _extended(twisted_derivation_data(GroupPresentation.cyclic(group), n,
                                                     rho=rho, q=q, field=field))


def _transported_unit_g():
    """R = m3qz2-transported (dim 18, integer-view scale 36), sigma = id, delta = 0, g = 1."""
    R = parse_spec(str(DATA / "m3qz2-transported.json")).wb
    one, dim = R.field.one(), R.dim
    identity = Matrix(R.field, dim, dim, {(k, k): one for k in R.keys})
    return extend_antipode(make_ore(R, identity, Matrix.zero(R.field, dim, dim), R.unit))


F3 = Field.prime(3)
ORE_CASES = {
    "sweedler": lambda: _extended(sweedler_data()),
    "section5-Z2-n1": _section5(2, 1, [1, -1], [Fraction(3, 5)]),
    "section5-Z2-n2": _section5(2, 2, [1, -1], [Fraction(3, 5), Fraction(-7, 2)]),
    "section5-Z4-n1": _section5(4, 1, [1, -1, 1, -1], [Fraction(5, 3)]),
    "section5-Z2-n1-GF3": _section5(2, 1, [F3(1), F3(-1)], [F3(1)], F3),
    "m3qz2-transported-unit-g": _transported_unit_g,
    "forced-sweedler-sign-flipped-S(x)": sign_flipped_sweedler,
    **{f"forced-section5-{which}": (lambda w=which: forced_section5(w))
       for which in FORCED_SECTION5},
}


def _sweep_shared(H, view):
    """The sweeps verify_extension shares with R, in its order."""
    report = AxiomReport()
    sweep_coproduct_multiplicative(view, report)
    sweep_coassociative(view, report, "coproduct_coassociative")
    sweep_counit_neutral(view, report, "right")
    sweep_counit_neutral(view, report, "left")
    sweep_counit_weak_multiplicative(view, report)
    sweep_unit_compatibility(view, report)
    if H.antipode_extended:
        sweep_antipode(view, report)
    return report


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("name", ORE_CASES)
def test_integer_view_of_h_matches_monomial_view(name, degree):
    """Every shared sweep agrees on H's integer view and on H's own monomial view, and
    reads only products that ore.refuse_large_degree counts: left factors of degree
    <= max(2D, D + 1), right factors of degree <= D.  Beyond them the source computes
    only the products of left degree <= 1 that build the antipodes S(x) S(b x^(n-1))
    and the coproducts Delta(b) X^n, n <= 2D, whose right factors reach degree 2D."""
    H = ORE_CASES[name]()
    ints = H.integer_view(degree)
    reads, product = set(), ints.product
    ints.product = lambda a, b: reads.add((a, b)) or product(a, b)
    view = ORE_CASES[name]()  # a fresh H, no cache shared, swept over the same monomials
    view.keys = ints.keys
    assert type(ints) is IntegerView
    failures, counts = _summary(_sweep_shared(H, ints))
    assert (failures, counts) == _summary(_sweep_shared(H, view))
    assert bool(failures) == (name.startswith("forced") and degree > 0)
    top = max(2 * degree, degree + 1)
    assert reads and all(a[1] <= top and b[1] <= degree for a, b in reads)
    assert all(a[1] <= 1 and b[1] <= 2 * degree for a, b in H._integers._products.keys() - reads)
    if degree and name in ("section5-Z2-n2", "forced-section5-delta"):
        assert ints.scale == 1  # sigma's -35/6 and -6/35 are read as H's own Fractions


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("name", ORE_CASES)
def test_integer_view_of_h_matches_field_tables(name, degree):
    """Every entry H's integer view reads at degree bound D, on every monomial the
    sweeps reach with nothing certified, is H's own field entry: equal to it at
    scale 1 where H has an int copy (integral data), and that very entry otherwise.
    The sweeps reach products on (degree <= L) x (degree <= D), L = max(2D, D + 1),
    coproducts on degree <= 2D, the counit on degree <= L + D and antipodes, when
    extended, on degree <= D."""
    H = ORE_CASES[name]()
    ints, integral = H.integer_view(degree), H._integers is not H
    top, keys = max(2 * degree, degree + 1), H.monomials(degree)
    assert ints.scale == 1 and ints.field_side(ints.unit, 0) == H.unit
    reads = [*((ints.product, H.product, (a, b)) for a in H.monomials(top) for b in keys),
             *((ints.coproduct, H.coproduct, (k,)) for k in H.monomials(2 * degree)),
             *((ints.counit, H.counit, (k,)) for k in H.monomials(top + degree)),
             *((ints.antipode, H.antipode, (k,)) for k in keys if H.antipode_extended)]
    for read, field_read, key in reads:
        entry, expected = read(*key), field_read(*key)
        assert ints.field_side(entry, 1) == expected if integral else entry is expected


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("name", ORE_CASES)
def test_verify_extension_leaves_only_the_products_the_guard_counts(monkeypatch, name, degree):
    """After verify_extension at degree bound D, the product tables of H and of its
    int copy hold only products refuse_large_degree counts: left degree <= L =
    max(2D, D + 1) times right degree <= D, or left degree <= 1 times right degree
    <= max(2D, 1) (the coproducts Delta(b) X^n, and the generator clauses on H), and
    no more than the guard's count ((L + 1)(D + 1) + 2 max(D, 1)) dim^2, which is
    pinned by the guard admitting it and refusing one less.  The integer view reads
    the int copy's own table, not a second cache of it."""
    H = ORE_CASES[name]()
    verify_extension(H, degree)
    top, right = max(2 * degree, degree + 1), max(2 * degree, 1)
    count = ((top + 1) * (degree + 1) + 2 * max(degree, 1)) * H.R.dim ** 2
    monkeypatch.setattr(ore, "PRODUCT_TABLE_LIMIT", count)
    refuse_large_degree(H.R, degree)
    monkeypatch.setattr(ore, "PRODUCT_TABLE_LIMIT", count - 1)
    with pytest.raises(TooLarge):
        refuse_large_degree(H.R, degree)
    for table in (H._products, H._integers._products):
        assert all(a[1] <= top and (b[1] <= degree or a[1] <= 1 and b[1] <= right)
                   for a, b in table)
        assert len(table) <= count
    assert H.integer_view(degree)._products is H._integers._products


@pytest.mark.parametrize("name", ORE_CASES)
def test_int_copy_of_h_exists_exactly_on_integral_data(name):
    """H keeps an int copy for its integer view exactly when R's integer view has
    scale 1 and sigma, delta, g and S(x) have no denominator; every entry the
    copy caches is then an int, and verify_extension leaves nothing above
    degree 1 in H's own caches.  Otherwise H is the source of the tables."""
    H = ORE_CASES[name]()
    scalars = [*H.sigma.data.values(), *H.delta.data.values(), *(H.g or {}).values(),
               *(H._s_x or {}).values()]
    integral = H.R.integer_view.scale == 1 and (
        H.field.p is not None or all(c.denominator == 1 for c in scalars))
    Z = H._integers
    assert (Z is not H) == integral
    if not integral:
        return
    verify_extension(H, 2)
    tables = ("_x_table", "_products", "_skew_powers", "_coproducts", "_antipodes")
    assert all(type(c) is int for table in tables for t in getattr(Z, table).values()
               for c in t.values())
    assert len(Z._x_table) > 2 * H.R.dim and Z._coproducts and Z._antipodes
    degrees = [*(i for i, _ in H._x_table), *(n for a, b in H._products for _, n in (a, b)),
               *H._skew_powers, *(n for _, n in H._coproducts), *(n for _, n in H._antipodes)]
    assert max(degrees) <= 1


@pytest.mark.parametrize("name", ORE_CASES)
def test_int_copy_of_h_is_built_once_and_shares_no_table(count_calls, name):
    """H._integers builds H's int copy on its first read, a copy.copy of H that
    _tabulate re-points at R's integer view, and every later read, verify_extension's
    among them, returns that copy; the copy keeps no _integers of its own and none
    of H's tables, so the int entries never reach H's field tables.  H's integer
    view reads the very four tables of H._integers, H itself when H is not integral."""
    H = ORE_CASES[name]()
    calls = count_calls("OreAlgebra._tabulate")
    Z, view = H._integers, H.integer_view(2)
    assert all(getattr(view, table) is getattr(Z, table)
               for table in ("_products", "_coproducts", "_counit", "_antipodes"))
    if Z is H:
        assert not calls
        return
    verify_extension(H, 2)
    assert calls["OreAlgebra._tabulate"] == 1
    assert all(H._integers is Z for _ in range(2)) and H.integer_view(2)._products is Z._products
    assert "_integers" not in vars(Z)
    tables = ("_x_table", "_products", "_skew_powers", "_coproducts", "_counit", "_antipodes",
              "_eps", "_eps_rows")
    assert all(getattr(Z, table) is not getattr(H, table) for table in tables)


@pytest.mark.parametrize("name", [name for name in ORE_CASES
                                  if not name.startswith("forced-section5")])
def test_antipode_of_h_is_a_power_of_s_x_times_s_b(name):
    """S(b x^n) = S(x)^n S(b) for n <= 4, the power built by repeated H.multiply
    in field scalars from S(x) = -S(g) x, or +S(g) x on the sign-flipped Sweedler."""
    H = ORE_CASES[name]()
    R = H.R
    assert H.antipode_extended
    sign = 1 if "sign-flipped" in name else -1
    s_x = H.monomial({k: c * sign for k, c in R.antipode_matrix.apply(H.g).items()}, 1)
    power = H.unit
    for n in range(5):
        for b in R.keys:
            assert H.antipode((b, n)) == H.multiply(power, H.embed(R.antipode(b)))
        power = H.multiply(power, s_x)


GFP_SPECS = [path.name for path in sorted(DATA.glob("*.json"))
             if json.loads(path.read_text())["field"]["kind"] == "prime"]


def _assert_eps_values_are_residues(view):
    """Over GF(p) every eps(ab) the view caches lies in 0..p-1, and every entry of an
    eps row, which the weak counit sweep hands to linalg.pivot_columns, is nonzero mod p."""
    p, keys = view.modulus, view.keys
    assert p is not None
    assert all(0 <= view.eps_pair(a, b) < p for a in keys for b in keys)
    assert all(e % p for a in keys for e in view.eps_row(a).values())


@pytest.mark.parametrize("name", GFP_SPECS)
def test_eps_values_of_r_are_residues_over_gfp(name):
    _assert_eps_values_are_residues(parse_spec(str(DATA / name), validate=False).wb.integer_view)


@pytest.mark.parametrize("degree", range(3))
def test_eps_values_of_h_are_residues_over_gfp(degree):
    _assert_eps_values_are_residues(ORE_CASES["section5-Z2-n1-GF3"]().integer_view(degree))
