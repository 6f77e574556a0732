"""Exit-code fuzz: mutated spec files through ``check``, ``characters --verify``,
``grouplikes --brute``, ``panov --hopf`` and ``ore build``.

A mutation swaps two indices of a mult or comult row (or an index and the
scalar, which the parser must refuse), or writes a random scalar into a
table: over QQ a rational with a large denominator, so the scale D of the
integer view varies from example to example.  Whatever the spec, ``check``
exits 0, 1 or 2; exit 1 comes only after an ``AXIOM ... FAIL`` line, exit 2
prints one error line, and nothing prints a traceback.  ``characters
--verify eps`` gets the same mutated specs with the original counit added
as the functional ``eps``, and exits 1 only after a ``CHARACTER ... FAIL``
line.  ``grouplikes --brute`` gets mutated GF(p) specs of dim at most 4 and
exits 0 with only ``WEAK-GROUPLIKE`` and ``COUNT`` lines, or 2.  ``panov
--hopf`` and ``ore build`` get the section-5 spec (Z2, n = 1) with random
rationals written into sigma, delta and g, and keep the same
contract, where exit 1 follows a ``CLAUSE ... FAIL`` or ``VERDICT FAIL``
line (or, for ``ore build``, an ``AXIOM ... FAIL`` line).  No argument is
ignored: ``grouplikes --brute`` with ``--prime`` exits 2 whatever the
prime, and ``example`` exits 2 when it gets more positional parameters than
its kind takes.  The profile is fixed (derandomized, no example database).
"""

import contextlib
import functools
import io
import json
import re
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import given, settings, strategies as st

from weakhopf.cli import main
from weakhopf.fields import Field
from weakhopf.groupoid import GroupPresentation, group_algebra, matrix_algebra
from weakhopf.specfile import SpecBundle, emit_spec

SOURCES = (resources.files("weakhopf") / "data" / "m2q.json",
           resources.files("weakhopf") / "data" / "sweedler-data.json",
           Path(__file__).parent / "data" / "m2z2-gf5-transported.json")
AXIOM_LINE = re.compile(r"AXIOM \S+ (PASS|FAIL)( witness=\S+)?$")

index = st.integers(0, 10 ** 6)
swap = st.tuples(st.just("swap"), st.sampled_from(("mult", "comult")), index,
                 st.sampled_from(((0, 1), (0, 2), (1, 2), (2, 3))))
scalar = st.tuples(st.just("scalar"),
                   st.sampled_from(("mult", "comult", "unit", "counit", "antipode")),
                   index, index,
                   st.fractions(max_denominator=10 ** 12).filter(lambda q: abs(q) < 10 ** 6))


def _mutate(doc, mutation):
    rational = doc["field"]["kind"] == "rationals"
    if mutation[0] == "swap":
        _, section, r, (a, b) = mutation
        row = doc[section][r % len(doc[section])]
        row[a], row[b] = row[b], row[a]
        return
    _, section, r, c, q = mutation
    text = str(q) if rational else str(q.numerator)
    if section in ("mult", "comult"):
        doc[section][r % len(doc[section])][3] = text
    elif section == "antipode":
        column = doc[section][r % doc["dim"]]
        column[c % doc["dim"]] = text
    else:
        doc[section][r % doc["dim"]] = text


def _main(argv):
    """main(argv); (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _run(doc, argv):
    """main(argv(path)) on doc written to a spec file; (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        return _main(argv(str(path)))


def _assert_exit_contract(rc, out, err, line):
    """Exit 2 prints one error line and nothing else; exit 0 or 1 prints only
    lines matching ``line``, and exit 1 only with an ``AXIOM``, ``CLAUSE`` or
    ``VERDICT`` line that reads FAIL."""
    assert "Traceback" not in out + err
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        return
    lines = out.splitlines()
    assert rc in (0, 1) and err == ""
    assert lines and all(line.match(text) for text in lines)
    assert any("FAIL" in text.split()[1:3] for text in lines) == (rc == 1)


@settings(max_examples=40)
@given(st.sampled_from(SOURCES), st.lists(st.one_of(swap, scalar), min_size=1, max_size=3))
def test_mutated_spec_exit_codes(source, mutations):
    doc = json.loads(source.read_text())
    for mutation in mutations:
        _mutate(doc, mutation)
    rc, out, err = _run(doc, lambda path: ["check", path])
    _assert_exit_contract(rc, out, err, AXIOM_LINE)


CHARACTER_LINE = re.compile(r"CHARACTER (left|right) (PASS|FAIL)$|CHI( \S+)+$"
                            r"|INVERSE (two-sided( \S+)+|left=(yes|no) right=(yes|no))$")


@settings(max_examples=40)
@given(st.sampled_from(SOURCES), st.lists(st.one_of(swap, scalar), max_size=2))
def test_mutated_spec_characters_exit_codes(source, mutations):
    doc = json.loads(source.read_text())
    doc["functionals"] = {"eps": list(doc["counit"])}
    for mutation in mutations:
        _mutate(doc, mutation)
    rc, out, err = _run(doc, lambda path: ["characters", path, "--verify", "eps"])
    _assert_exit_contract(rc, out, err, CHARACTER_LINE)


GROUPLIKES_LINE = re.compile(r"WEAK-GROUPLIKE \S.*$|COUNT \d+ \(including zero if present\)$")
SMALL_GFP = (matrix_algebra(2, Field.prime(3)),
             group_algebra(GroupPresentation.cyclic(3), Field.prime(5)))


@settings(max_examples=40)
@given(st.sampled_from(SMALL_GFP), st.lists(st.one_of(swap, scalar), min_size=1, max_size=2))
def test_mutated_gfp_spec_grouplikes_brute_exit_codes(wb, mutations):
    doc = emit_spec(SpecBundle(field=wb.field, wb=wb))
    for mutation in mutations:
        _mutate(doc, mutation)
    rc, out, err = _run(doc, lambda path: ["grouplikes", "--brute", path])
    assert rc in (0, 2)
    _assert_exit_contract(rc, out, err, GROUPLIKES_LINE)


@settings(max_examples=20)
@given(st.sampled_from(SOURCES[1:]), st.integers(-1, 12))
def test_grouplikes_brute_refuses_prime(source, prime):
    """--prime sets the field of --matrix only; with --brute, on a QQ or a GF(p)
    spec and whatever the prime, it is refused before the spec is read."""
    rc, out, err = _run(json.loads(source.read_text()),
                        lambda path: ["grouplikes", "--brute", path, "--prime", str(prime)])
    assert rc == 2
    _assert_exit_contract(rc, out, err, GROUPLIKES_LINE)


# The most positional parameters each example kind takes.
EXAMPLE_PARAMS = {"sweedler": 0, "matrix": 1, "groupoid": 2, "section5": 0}


@settings(max_examples=40)
@given(st.sampled_from(sorted(EXAMPLE_PARAMS)),
       st.lists(st.sampled_from(("1", "2", "Z2", "S3", "trivial", "x")), max_size=4))
def test_example_parameter_exit_codes(kind, params):
    """``example`` prints one spec document (exit 0) or one error line (exit 2),
    and exits 2 whenever it gets more parameters than its kind takes."""
    rc, out, err = _main(["example", kind, *params])
    assert "Traceback" not in out + err
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert rc == 0 and err == "" and json.loads(out)["dim"] >= 1
    if len(params) > EXAMPLE_PARAMS[kind]:
        assert rc == 2


# clause witnesses name elements, so they may hold spaces
CLAUSE_LINES = r"VERDICT (PASS|FAIL)$|CLAUSE \S+ (PASS|FAIL)( witness=\(.*\))?$"
ORE_LINE = re.compile(r"BUILT OreAlgebra\(.*\)$|AXIOM \S+ (PASS|FAIL)( witness=\S+)?$|"
                      + CLAUSE_LINES)
PANOV_LINE = re.compile(r"# (necessary|sufficient|antipode) conditions$|CHI( \S+)+$|"
                        + CLAUSE_LINES)
ore_scalar = st.tuples(st.sampled_from(("g", "delta", "sigma")), index, index,
                       st.fractions(max_denominator=10 ** 12).filter(lambda q: abs(q) < 10 ** 6))


@functools.cache
def _section5_text():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["example", "section5", "--group", "Z2", "--n", "1", "--rho=1,-1"]) == 0
    return out.getvalue()


def _mutated_section5(mutations):
    doc = json.loads(_section5_text())
    dim = doc["dim"]
    for name, i, j, q in mutations:
        if name == "g":
            doc["elements"]["g"][i % dim] = str(q)
        else:
            doc["maps"][name][i % dim][j % dim] = str(q)
    return doc


@settings(max_examples=40)
@given(st.lists(ore_scalar, max_size=2))
def test_mutated_ore_data_exit_codes(mutations):
    rc, out, err = _run(_mutated_section5(mutations),
                        lambda path: ["ore", "build", path, "--verify-degree", "2"])
    _assert_exit_contract(rc, out, err, ORE_LINE)


@settings(max_examples=40)
@given(st.lists(ore_scalar, max_size=2))
def test_mutated_panov_data_exit_codes(mutations):
    rc, out, err = _run(_mutated_section5(mutations), lambda path: ["panov", path, "--hopf"])
    _assert_exit_contract(rc, out, err, PANOV_LINE)
