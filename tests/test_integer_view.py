"""The integer views of R and of H against the field views: the same sweeps, the same report.

``IntegerView`` holds a view's tables as ints (scaled by the lcm D of their
denominators over QQ, residues mod p over GF(p)); R itself and
H = R[x; sigma, delta], each its own basis view, hold field scalars.  Every sweep
of R, and every shared sweep of H at degree bounds 0 to 3, runs on both,
and the failures (axiom, witness, lhs and rhs text) and the pass counts per
axiom must agree.
"""

import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from forced_ore import FORCED_SECTION5, forced_section5, sign_flipped_sweedler
from lemmas import axiom_names, dihedral, function_algebra
from oracles import dense_associativity_failures
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
from weakhopf.ore import extend_antipode, make_ore
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
    assert all(type(c) is int for v in wb.integer_view._products.values() for c in v.values())


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


F3 = Field.prime(3)
ORE_CASES = {
    "sweedler": lambda: _extended(sweedler_data()),
    "section5-Z2-n1": _section5(2, 1, [1, -1], [Fraction(3, 5)]),
    "section5-Z2-n2": _section5(2, 2, [1, -1], [Fraction(3, 5), Fraction(-7, 2)]),
    "section5-Z4-n1": _section5(4, 1, [1, -1, 1, -1], [Fraction(5, 3)]),
    "section5-Z2-n1-GF3": _section5(2, 1, [F3(1), F3(-1)], [F3(1)], F3),
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
    H = ORE_CASES[name]()
    ints = H.integer_view(degree)
    view = ORE_CASES[name]()  # a fresh H, no cache shared, swept over the same monomials
    view.keys = ints.keys
    assert type(ints) is IntegerView
    failures, counts = _summary(_sweep_shared(H, ints))
    assert (failures, counts) == _summary(_sweep_shared(H, view))
    assert bool(failures) == (name.startswith("forced") and degree > 0)
    if degree and name in ("section5-Z2-n2", "forced-section5-delta"):
        assert ints.scale > 1  # sigma's -35/6 and -6/35 enter from degree 1


def test_integer_view_of_h_refuses_reads_outside_its_tables():
    """At degree bound 2: products on (<= 4) x (<= 2), coproducts on <= 4, the
    counit on <= 6, antipodes on <= 2; nothing outside is computed on demand."""
    H = ORE_CASES["sweedler"]()
    ints = H.integer_view(2)
    assert ints.product((1, 4), (1, 2)) and ints.coproduct((1, 4)) and ints.antipode((1, 2))
    assert ints.counit((0, 6)) == 0
    cached = len(H._products), len(H._antipodes), len(H._coproducts)
    for read, key in ((ints.product, ((1, 5), (0, 0))), (ints.product, ((0, 0), (1, 3))),
                      (ints.coproduct, ((1, 5),)), (ints.counit, ((0, 7),)),
                      (ints.antipode, ((1, 3),))):
        with pytest.raises(KeyError):
            read(*key)
    assert (len(H._products), len(H._antipodes), len(H._coproducts)) == cached
