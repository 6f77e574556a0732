"""Golden-output tests: exact stdout and exit codes of the report commands.

The expected texts in ``tests/golden/`` were recorded before the axiom sweeps
for R and for R[x; sigma, delta] were merged into one implementation, so any
change of verdict, witness, axiom name or line order shows up here.

``tests/data/m2qz2-bad-*.json`` carry real denominators.  Both are M_2(QZ_2)
transported through the basis change b_0 -> b_0 + (3/5) b_5 (E11 -> E11 +
3/5 tE12): mult becomes P^-1 m(P., P.), comult (P^-1 (x) P^-1) Delta P, unit
P^-1 1, counit eps P and antipode P^-1 S P.  Then one entry is perturbed:
``bad-antipode`` adds 1/2 to the b_0 coefficient of S(b_6),
``bad-comult`` adds 2/7 to the b_5 (x) b_5 coefficient of Delta(b_0), and
``bad-mult`` adds 2/7 to the b_5 coefficient of b_1 b_2.  Neither b_1 nor b_2
is in the support of the unit, so ``unital`` passes and ``associative`` fails.

``check-bad-mult`` and ``ore-bad-mult-error`` were recorded before the unit
and associativity sweeps of R moved onto the basis view; the error line
carries the labelled, fractional sides of ``NotAssociative``.

The ``ore-section5-*-q`` texts were recorded before products in
R[x; sigma, delta] were routed through the cached x^i b_u table.  With
n = 2 the scales q = 3/5, -7/2 put -35/6 and -6/35 into sigma; with
n = 1 the scale 5/3 cancels, and delta is nonzero.

The ``panov-section5-*`` texts and ``ore-qz2-unit-as-g`` were recorded before
elements of H (x) H moved from maps (i, j) -> R (x) R onto the flat dicts of
the monomial view.  ``panov-section5-z2-n2-q`` passes every clause with real
denominators in chi; swapping sigma and delta fails all three sections with
witnesses.  ``ore-qz2-unit-as-g`` forces the coalgebra extension of the
section-5 QZ_2 data with g := 1, so the tensors that fail are exactly the
Ore-layer products of H (x) H.

``panov-necessary-perturbed`` was recorded while Delta(b_k) was still a
``TensorElement`` with products of its own, before every R (x) R product
moved onto the basis view.  It adds 3/5 to one entry of sigma or of delta
in the Sweedler data and in the section-5 M_2(QZ_2) data with
q = 3/5, -7/2, so that each coproduct clause of ``panov_necessary`` fails
on some input, and it records the first witness of ``eps_a_delta_b_zero``.
``tests/data/sweedler-cancelling-comult.json`` is the bundled Sweedler spec
with two more comult rows for Delta(b_0) at (0, 1), 3/5 and -3/5, which sum
to zero: the parsed coalgebra must hold no zero coefficient.
``tests/data/sweedler-cancelling-mult.json`` is the same spec with two more
mult rows for b_1 b_1 at index 1, 3/5 and -3/5: the parsed algebra must hold
no zero coefficient either, or ``emit_spec`` would write a "0" mult row.

The ``grouplikes-*`` and ``characters-*`` texts pin the CLI outputs that
print elements of R, recorded while elements were still ``Vector`` objects:
``grouplikes-matrix2`` and ``grouplikes-matrix2-gf3`` are
``grouplikes --matrix 2`` over QQ and with ``--prime 3``;
``grouplikes-brute-m2f2`` is ``grouplikes --brute`` on M_2(GF(2)) written by
``write_spec``, whose scan prints the zero element as ``0``;
``grouplikes-brute-kz3-f7`` is ``grouplikes --brute`` on the function algebra
k^Z3 over GF(7) written by ``write_spec``: 343 candidates, ``COUNT 4``, the
zero element and the three characters Z3 -> GF(7)*, whose values 2 and 4 are
the cube roots of unity mod 7;
``characters-m2q-chi`` is ``characters --verify chi`` on the bundled
``m2q.json``, with 1/2 and 2 in the inverse and in chi; and
``characters-section5-z2-n1-alpha`` is ``characters --verify alpha`` on the
spec of ``example section5 --group Z2 --n 1 --rho 1,-1 --q 1``, where alpha
is no character (exit 1) and its ``CHI`` line reads the missing
coefficient of ``1`` as 0; ``characters-m2z2-gf5-eps`` is ``characters
--verify eps`` on ``tests/data/m2z2-gf5-transported.json`` with its counit
added as the functional ``eps``, whose two-sided inverse, eps itself, is
printed as residues mod 5.

``tests/data/m3qz2-transported.json`` is M_3(QZ_2) in the basis
b_10 -> b_10 + (5/6) b_0 (g1E12 -> g1E12 + 5/6 g0E11), transported as above:
its structure constants have denominators 6 and 36.
``tests/data/m3qz2-bad-counit.json`` is the same spec with 1/6 added to
eps(b_4), so both counit axioms, the weak multiplicativity of the counit and
the two counital antipode axioms fail; ``failures-m3qz2-bad-counit`` records
the first failure of each, with its sides and the number of failing tuples.
``tests/data/m2z2-gf5-transported.json`` is M_2(GF(5)Z_2) in the basis
b_5 -> b_5 + 3 b_0 (g1E12 -> g1E12 + 3 g0E11), the integer transport
reduced mod 5; ``errors-m2z2-gf5-transported`` holds the full
``NotAssociative`` and ``UnitFails`` messages after one mult entry is
perturbed.  These checks were recorded while the sweeps of R still ran on
field scalars.

``ore-failure-sides`` lists every failure of ``verify_extension``, with
witness and sides, on the forced extensions of ``forced_ore.py``: the
sign-flipped S(x) on Sweedler's algebra at degree 2, and the section-5
M_2(QZ_2) data with q = 3/5, -7/2 and a perturbed delta or g at degree 1,
whose shared sweeps fail with fractional sides.  It was recorded while the
sweeps of H still ran on field scalars.

``ore-sweedler-coalgebra`` is ``ore build --verify-degree 3`` on the bundled
Sweedler spec with its antipode removed, the one CLI path through
``extend_coalgebra``: the H it builds has no antipode, so its report has no
antipode lines.  It was recorded while the monomial tables of H were still
held by a separate view object.
"""

import contextlib
import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from weakhopf.bialgebra import (WeakBialgebra, check_antipode, check_weak_bialgebra,
                                coalgebra_report)
from weakhopf.cli import main
from weakhopf.errors import NotAssociative, UnitFails
from weakhopf.fields import Field
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, matrix_algebra
from weakhopf.linalg import Matrix
from weakhopf.ore import OreAlgebra, verify_extension
from weakhopf.panov import eps_a_delta_b_zero, panov_necessary
from weakhopf.report import _fmt_witness
from weakhopf.specfile import SpecBundle, emit_spec, parse_spec, write_spec

from forced_ore import FORCED_SECTION5, forced_section5, sign_flipped_sweedler
from lemmas import axiom_names, function_algebra

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"


def _bundled(name):
    return str(resources.files("weakhopf") / "data" / name)


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def _expected(name):
    return (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name, argv, code", [
    ("check-m2q", ["check", _bundled("m2q.json")], 0),
    ("check-sweedler", ["check", _bundled("sweedler-data.json")], 0),
    ("check-bad-antipode", ["check", str(HERE / "data" / "m2qz2-bad-antipode.json")], 1),
    ("check-bad-comult", ["check", str(HERE / "data" / "m2qz2-bad-comult.json")], 1),
    ("ore-sweedler", ["ore", "build", _bundled("sweedler-data.json"), "--verify-degree", "3"], 0),
    ("check-bad-mult", ["check", str(HERE / "data" / "m2qz2-bad-mult.json")], 1),
    ("check-m3qz2-transported", ["check", str(HERE / "data" / "m3qz2-transported.json")], 0),
    ("check-m3qz2-bad-counit", ["check", str(HERE / "data" / "m3qz2-bad-counit.json")], 1),
])
def test_cli_golden(name, argv, code):
    assert _run(argv) == (code, _expected(name))


def test_bad_counit_failure_sides_golden():
    wb = parse_spec(str(HERE / "data" / "m3qz2-bad-counit.json"), validate=False).wb
    lines = []
    for report in (coalgebra_report(wb), check_weak_bialgebra(wb), check_antipode(wb)):
        for name in axiom_names(report):
            fails = report.failures(name)
            if fails:
                f = fails[0]
                lines.append(f"FAILURE {name} {_fmt_witness(f.witness)} count={len(fails)} "
                             f"lhs={f.lhs} rhs={f.rhs}")
    assert "\n".join(lines) + "\n" == _expected("failures-m3qz2-bad-counit")


def test_transported_gfp_algebra_errors_golden():
    """b_i b_j += c b_k in the GF(5) transport: neither b_1 nor b_2 is in the
    support of the unit, so associativity fails; b_0 is, so the unit fails."""
    wb = parse_spec(str(HERE / "data" / "m2z2-gf5-transported.json"), validate=False).wb
    lines = []
    for i, j, k, c in ((1, 2, 5, 2), (0, 1, 6, 3)):
        mult = {ij: dict(v) for ij, v in wb.mult.items()}
        vec = mult.setdefault((i, j), {})
        vec[k] = vec.get(k, wb.field.zero()) + c
        with pytest.raises((NotAssociative, UnitFails)) as exc:
            WeakBialgebra(wb.field, wb.dim, mult, wb.unit, wb.comult, wb.counit_vector, wb.labels)
        lines.append(f"{type(exc.value).__name__}: {exc.value}")
    assert "\n".join(lines) + "\n" == _expected("errors-m2z2-gf5-transported")


def _written_spec(wb, path):
    write_spec(SpecBundle(field=wb.field, wb=wb), path)
    return str(path)


def _gf5_spec_with_counit_as_eps(path):
    doc = json.loads((HERE / "data" / "m2z2-gf5-transported.json").read_text())
    path.write_text(json.dumps(doc | {"functionals": {"eps": doc["counit"]}}))
    return str(path)


def _section5_z2_n1_spec(path):
    argv = ["example", "section5", "--group", "Z2", "--n", "1", "--rho", "1,-1", "--q", "1",
            "-o", str(path)]
    assert _run(argv)[0] == 0
    return str(path)


@pytest.mark.parametrize("name, argv, code", [
    ("grouplikes-matrix2", lambda tmp: ["grouplikes", "--matrix", "2"], 0),
    ("grouplikes-matrix2-gf3", lambda tmp: ["grouplikes", "--matrix", "2", "--prime", "3"], 0),
    ("grouplikes-brute-m2f2",
     lambda tmp: ["grouplikes", "--brute",
                  _written_spec(matrix_algebra(2, Field.prime(2)), tmp / "m2f2.json")], 0),
    ("grouplikes-brute-kz3-f7",
     lambda tmp: ["grouplikes", "--brute",
                  _written_spec(function_algebra(GroupPresentation.cyclic(3), Field.prime(7)),
                                tmp / "kz3f7.json")], 0),
    ("characters-m2q-chi", lambda tmp: ["characters", _bundled("m2q.json"), "--verify", "chi"], 0),
    ("characters-section5-z2-n1-alpha",
     lambda tmp: ["characters", _section5_z2_n1_spec(tmp / "s5.json"), "--verify", "alpha"], 1),
    ("characters-m2z2-gf5-eps",
     lambda tmp: ["characters", _gf5_spec_with_counit_as_eps(tmp / "gf5.json"), "--verify", "eps"],
     0),
])
def test_cli_element_output_golden(tmp_path, name, argv, code):
    assert _run(argv(tmp_path)) == (code, _expected(name))


def test_ore_build_bad_mult_error_golden():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc, out = _run(["ore", "build", str(HERE / "data" / "m2qz2-bad-mult.json")])
    assert (rc, out, err.getvalue()) == (2, "", _expected("ore-bad-mult-error"))


def test_ore_build_section5_golden(tmp_path):
    spec = tmp_path / "s5.json"
    argv = ["example", "section5", "--group", "Z2", "--n", "2", "--q", "1,1", "-o", str(spec)]
    assert _run(argv)[0] == 0
    assert _run(["ore", "build", str(spec), "--verify-degree", "3"]) == \
        (0, _expected("ore-section5-z2-n2"))


@pytest.mark.parametrize("name, example", [
    ("ore-section5-z2-n2-q", ["--group", "Z2", "--n", "2", "--q", "3/5,-7/2"]),
    ("ore-section5-z4-n1-q", ["--group", "Z4", "--n", "1", "--rho=1,-1,1,-1", "--q=5/3"]),
])
def test_ore_build_section5_denominators_golden(tmp_path, name, example):
    spec = tmp_path / "s5.json"
    assert _run(["example", "section5", *example, "-o", str(spec)])[0] == 0
    assert _run(["ore", "build", str(spec), "--verify-degree", "4"]) == (0, _expected(name))


def test_ore_build_coalgebra_only_golden(tmp_path):
    doc = json.loads(Path(_bundled("sweedler-data.json")).read_text())
    del doc["antipode"]
    spec = tmp_path / "sweedler-no-antipode.json"
    spec.write_text(json.dumps(doc))
    assert _run(["ore", "build", str(spec), "--verify-degree", "3"]) == \
        (0, _expected("ore-sweedler-coalgebra"))


def test_sign_flipped_antipode_of_x_golden():
    text = "\n".join(verify_extension(sign_flipped_sweedler(), 2).lines()) + "\n"
    assert text == _expected("ore-sweedler-bad-antipode-of-x")


SHARED_SWEEPS = ("coproduct_multiplicative", "coproduct_coassociative", "counit_right_neutral",
                 "counit_left_neutral", "counit_weak_multiplicative",
                 "coproduct_unit_compatibility")


def test_forced_extension_failure_sides_golden():
    """Every failure of verify_extension, with its sides, on three forced extensions;
    on the section-5 data some shared sweep fails with denominators in a side."""
    cases = [("sweedler, S(x) = +S(g) x", sign_flipped_sweedler(), 2)]
    cases += [(f"section5 M_2(QZ_2) q=3/5,-7/2, {which} perturbed", forced_section5(which), 1)
              for which in FORCED_SECTION5]
    lines = []
    for title, H, degree in cases:
        failures = verify_extension(H, degree).failures()
        if title.startswith("section5"):
            assert any("/" in f.lhs + f.rhs for f in failures if f.axiom in SHARED_SWEEPS)
        lines.append(f"# {title}, degree {degree}")
        lines += [f"FAILURE {f.axiom} {'-' if f.witness is None else _fmt_witness(f.witness)} "
                  f"lhs={f.lhs} rhs={f.rhs}" for f in failures]
    assert "\n".join(lines) + "\n" == _expected("ore-failure-sides")


@pytest.mark.parametrize("name, names, code", [
    ("panov-section5-z2-n2-q", [], 0),
])
def test_panov_hopf_section5_denominators_golden(tmp_path, name, names, code):
    spec = tmp_path / "s5.json"
    argv = ["example", "section5", "--group", "Z2", "--n", "2", "--rho=1,-1", "--q=3/5,-7/2",
            "-o", str(spec)]
    assert _run(argv)[0] == 0
    assert _run(["panov", str(spec), "--hopf", *names]) == (code, _expected(name))


def test_forced_coalgebra_with_unit_as_g_golden():
    data = twisted_derivation_data(GroupPresentation.cyclic(2), 1, rho=[1, -1], q=[1])
    bad = OreAlgebra(data.R, data.sigma, data.delta, data.R.unit, _coalgebra_extended=True)
    report = verify_extension(bad, 2)
    failures = [f"FAILURE {f.axiom} {_fmt_witness(f.witness)}" for f in report.failures()]
    assert "\n".join(report.lines() + failures) + "\n" == _expected("ore-qz2-unit-as-g")


def _assert_reads_as_bundled_sweedler(spec):
    assert _run(["check", spec]) == (0, _expected("check-sweedler"))
    assert emit_spec(parse_spec(spec)) == emit_spec(parse_spec(_bundled("sweedler-data.json")))


def test_cancelling_comult_rows_golden():
    _assert_reads_as_bundled_sweedler(str(HERE / "data" / "sweedler-cancelling-comult.json"))


def test_cancelling_mult_rows_golden():
    _assert_reads_as_bundled_sweedler(str(HERE / "data" / "sweedler-cancelling-mult.json"))


def _bumped(m, entry):
    """m with 3/5 added to its entry (row, col)."""
    data = dict(m.data)
    data[entry] = data.get(entry, m.field.zero()) + Fraction(3, 5)
    return Matrix(m.field, m.rows, m.cols, data)


_PERTURBED = (
    ("sweedler", None, None), ("sweedler", "sigma", (0, 1)), ("sweedler", "delta", (1, 0)),
    ("sweedler", "delta", (1, 1)),
    ("m2qz2", None, None), ("m2qz2", "sigma", (0, 0)), ("m2qz2", "sigma", (0, 1)),
    ("m2qz2", "sigma", (6, 3)), ("m2qz2", "delta", (0, 0)), ("m2qz2", "delta", (2, 5)),
    ("m2qz2", "delta", (7, 6)),
)


def test_panov_necessary_perturbed_golden():
    instances = {
        "sweedler": sweedler_data(),
        "m2qz2": twisted_derivation_data(GroupPresentation.cyclic(2), 2, rho=[1, -1],
                                         q=[Fraction(3, 5), Fraction(-7, 2)]),
    }
    lines = []
    for name, which, entry in _PERTURBED:
        data = instances[name]
        R, sigma, delta = data.R, data.sigma, data.delta
        if which == "sigma":
            sigma = _bumped(sigma, entry)
        elif which == "delta":
            delta = _bumped(delta, entry)
        lines.append(f"# {name}" + (f" {which}{_fmt_witness(entry)} += 3/5" if which else ""))
        verdict = panov_necessary(R, sigma, delta, data.g)
        lines += verdict.lines()
        chi = verdict.chi
        lines.append("CHI none" if chi is None else
                     "CHI " + " ".join(f"{R.labels[i]}={R.field.format(chi.get(i))}"
                                       for i in range(R.dim)))
        witness = eps_a_delta_b_zero(R, delta)
        lines.append("EPS_A_DELTA_B " + ("PASS" if witness is None else
                                         f"FAIL witness={_fmt_witness(witness)}"))
    assert "\n".join(lines) + "\n" == _expected("panov-necessary-perturbed")
