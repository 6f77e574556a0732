"""The integer view of R against the field view: the same sweeps, the same report.

``IntegerView`` holds the structure constants as ints (scaled by the lcm D
of their denominators over QQ, residues mod p over GF(p)); ``wb.view`` holds
field scalars.  Every sweep of R runs on both, and the failures (axiom,
witness, lhs and rhs text) and the pass counts per axiom must agree.
"""

import random
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from oracles import dense_associativity_failures
from weakhopf.bialgebra import (Algebra, Coalgebra, IntegerView, WeakHopfAlgebra,
                                algebra_report, check_weak_bialgebra, sweep_antipode,
                                sweep_associative, sweep_coassociative,
                                sweep_coproduct_multiplicative, sweep_counit_neutral,
                                sweep_counit_weak_multiplicative, sweep_unit_compatibility,
                                sweep_unital)
from weakhopf.fields import Field
from weakhopf.fixtures import function_algebra
from weakhopf.groupoid import GroupPresentation
from weakhopf.linalg import Matrix
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
    return failures, {name: report._pass_counts[name] for name in report.axiom_names()}


def _assert_views_agree(wb):
    assert type(wb.integer_view) is IntegerView
    ints = _summary(_sweep_all(wb, wb.integer_view))
    assert ints == _summary(_sweep_all(wb, wb.view))
    return ints


def _dihedral4():
    """D_4 as r^i s^j at index i + 4j: r^a s^b r^c s^d = r^(a + (-1)^b c) s^(b + d)."""
    idx = lambda i, j: i % 4 + 4 * (j % 2)
    elements = [(i, j) for j in range(2) for i in range(4)]
    table = [[idx(a + (-1) ** b * c, b + d) for c, d in elements] for a, b in elements]
    return GroupPresentation(table, name="D4")


def _perturbed(wb, rng, count, scalar, tables=("mult", "comult", "counit", "antipode")):
    """wb with ``count`` entries of its ``tables`` moved by scalar(rng), built
    without validation."""
    field, dim = wb.field, wb.dim
    mult = {ij: dict(v) for ij, v in wb.algebra.mult.items()}
    comult = {k: dict(t) for k, t in wb.coalgebra.comult.items()}
    counit, antipode = dict(wb.counit), dict(wb.antipode.data)
    for _ in range(count):
        table = rng.choice(tables)
        i, j, k = (rng.randrange(dim) for _ in range(3))
        slot, key = {"mult": (mult.setdefault((i, j), {}), k),
                     "comult": (comult.setdefault(k, {}), (i, j)),
                     "counit": (counit, k),
                     "antipode": (antipode, (i, j))}[table]
        slot[key] = slot.get(key, field.zero()) + scalar(rng)
    return WeakHopfAlgebra(Algebra(field, dim, mult, wb.unit, wb.labels, validate=False),
                           Coalgebra(field, dim, comult, counit, validate=False),
                           Matrix(field, dim, dim, antipode), validate=False)


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
    assert all(type(c) is int for v in wb.integer_view._mult.values() for c in v.values())


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
    wb = _perturbed(function_algebra(_dihedral4(), field), random.Random(seed), 4,
                    lambda r: field(r.randrange(1, p)))
    assert wb.integer_view.scale == 1 and wb.integer_view.modulus == p
    failures, _ = _assert_views_agree(wb)
    assert failures


@pytest.mark.parametrize("build", [
    lambda: _perturbed(function_algebra(_dihedral4(), Field.prime(5)), random.Random(1), 3,
                       lambda r: Field.prime(5)(r.randrange(1, 5)), ("mult",)),
    lambda: _perturbed(parse_spec(str(DATA / "m3qz2-transported.json"), validate=False).wb,
                       random.Random(2), 2, lambda r: Fraction(r.randrange(1, 9), 7), ("mult",)),
], ids=["kD4-GF5", "m3qz2-QQ"])
def test_integer_associativity_failures_match_dense_oracle(build):
    wb = build()
    expected = dense_associativity_failures(wb.algebra)
    assert expected  # a bad oracle would pass vacuously
    assert [f.witness for f in algebra_report(wb.algebra).failures("associative")] == expected


@pytest.mark.parametrize("name", ["m3qz2-transported.json", "m3qz2-bad-counit.json"])
def test_pass_counts_add_up_to_tuples_swept(name):
    """Rows that agree are counted in bulk; each axiom still counts every tuple once."""
    wb = parse_spec(str(DATA / name), validate=False).wb
    dim = wb.dim
    assoc = algebra_report(wb.algebra)
    weak = check_weak_bialgebra(wb)
    assert assoc._pass_counts["associative"] == dim ** 3
    counit = "counit_weak_multiplicative"
    assert weak._pass_counts[counit] + len(weak.failures(counit)) == 2 * dim ** 3
    assert bool(weak.failures(counit)) == ("bad" in name)
