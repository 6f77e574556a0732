import contextlib
import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from weakhopf.cli import main
from weakhopf.bialgebra import DIM_LIMIT
from weakhopf.errors import NotAssociative, ParseError, TooLarge
from weakhopf.fields import GF, PRIME_LIMIT, Field, is_prime
from weakhopf.fixtures import sweedler_data
from weakhopf.groupoid import GroupPresentation, build_groupoid_algebra, group_algebra
from weakhopf.linalg import Matrix
from weakhopf.specfile import SpecBundle, emit_spec, parse_spec, write_spec

from lemmas import ad_map, basis_element


def _data_path(name):
    return Path(resources.files("weakhopf") / "data" / name)


def _sweedler_doc():
    data = sweedler_data()
    bundle = SpecBundle(field=data.R.field, wb=data.R,
                        elements={"g": data.g}, functionals={"chi": data.chi},
                        maps={"sigma": data.sigma, "delta": data.delta},
                        name="sweedler-data")
    return emit_spec(bundle)


# -- round trips -----------------------------------------------------------------


def test_roundtrip_sweedler():
    doc = _sweedler_doc()
    bundle = parse_spec(doc)
    assert emit_spec(bundle) == doc
    assert bundle.has_antipode
    assert bundle.elements["g"] == sweedler_data().g


def test_roundtrip_groupoid():
    ga = build_groupoid_algebra(GroupPresentation.cyclic(2), 2)
    bundle = SpecBundle(field=ga.field, wb=ga, name="m2qz2")
    doc = emit_spec(bundle)
    again = emit_spec(parse_spec(doc))
    assert doc == again


def test_roundtrip_prime_field():
    from weakhopf.fields import Field
    wb = group_algebra(GroupPresentation.cyclic(2), Field.prime(2))
    doc = emit_spec(SpecBundle(field=wb.field, wb=wb))
    bundle = parse_spec(doc)
    assert bundle.field.p == 2
    assert emit_spec(bundle) == doc


def test_bundled_files_match_generators():
    assert json.loads(_data_path("sweedler-data.json").read_text()) == _sweedler_doc()
    from weakhopf.cli import _matrix_bundle
    assert json.loads(_data_path("m2q.json").read_text()) == emit_spec(_matrix_bundle(2))


def test_bundled_files_parse_and_validate():
    for name in ("sweedler-data.json", "m2q.json"):
        bundle = parse_spec(str(_data_path(name)))
        assert bundle.has_antipode


# -- parse errors ------------------------------------------------------------------


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_spec(str(p))


def test_parse_rejects_missing_keys():
    with pytest.raises(ParseError):
        parse_spec({"field": {"kind": "rationals"}, "dim": 1})


def test_parse_rejects_bad_scalar():
    doc = _sweedler_doc()
    doc["unit"] = ["1/0", "0"]
    with pytest.raises(ParseError):
        parse_spec(doc)


def test_parse_rejects_out_of_range_index():
    doc = _sweedler_doc()
    doc["mult"] = doc["mult"] + [[5, 0, 0, "1"]]
    with pytest.raises(ParseError):
        parse_spec(doc)


def test_parse_validates_axioms():
    doc = _sweedler_doc()
    # corrupt t*t from 1 to t: no longer a group, unit checks still fine but
    # associativity of the coproduct-compatible structure breaks weak axioms
    doc["mult"] = [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 1, "1"]]
    with pytest.raises(Exception) as exc:
        parse_spec(doc)
    assert not isinstance(exc.value, ParseError)


def test_parse_not_associative():
    from weakhopf.fields import QQ
    doc = {
        "field": {"kind": "rationals"}, "dim": 3, "basis": ["1", "a", "b"],
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"],
                 [1, 0, 1, "1"], [2, 0, 2, "1"],
                 [1, 1, 2, "1"], [1, 2, 0, "1"]],
        "unit": ["1", "0", "0"],
        "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"], [2, 2, 2, "1"]],
        "counit": ["1", "1", "1"],
    }
    with pytest.raises(NotAssociative):
        parse_spec(doc)


def test_lenient_parse_allows_diagnosis():
    doc = _sweedler_doc()
    doc["counit"] = ["1", "0"]  # breaks the counit axiom
    bundle = parse_spec(doc, validate=False)
    from weakhopf.bialgebra import coalgebra_report
    assert not coalgebra_report(bundle.wb).passed


# -- CLI ---------------------------------------------------------------------------


def test_cli_check_passes(capsys):
    code = main(["check", str(_data_path("m2q.json"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "AXIOM counit_weak_multiplicative PASS" in out
    assert "FAIL" not in out


def test_cli_check_reports_failures(tmp_path, capsys):
    doc = _sweedler_doc()
    doc["counit"] = ["1", "0"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code = main(["check", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_check_stable_output(capsys):
    main(["check", str(_data_path("sweedler-data.json"))])
    first = capsys.readouterr().out
    main(["check", str(_data_path("sweedler-data.json"))])
    assert capsys.readouterr().out == first


def test_cli_check_missing_file(capsys):
    assert main(["check", "/nonexistent.json"]) == 2


def test_cli_usage_error(capsys):
    """argparse refuses an unknown command, `ore` subcommand or example kind with
    exit 2 before any command runs."""
    spec = str(_data_path("sweedler-data.json"))
    for argv in (["frobnicate"], ["ore", "frob", spec], ["example", "frob"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice" in captured.err


def test_cli_grouplikes_matrix(capsys):
    code = main(["grouplikes", "--matrix", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "COUNT 6 INVERTIBLE 2" in out


def test_cli_grouplikes_brute(tmp_path, capsys):
    from weakhopf.fields import Field
    from weakhopf.groupoid import matrix_algebra
    wb = matrix_algebra(2, Field.prime(2))
    p = tmp_path / "m2f2.json"
    write_spec(SpecBundle(field=wb.field, wb=wb), p)
    code = main(["grouplikes", "--brute", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "COUNT 7" in out


def test_cli_characters(capsys):
    code = main(["characters", str(_data_path("m2q.json")), "--verify", "chi"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CHARACTER left PASS" in out
    assert "CHARACTER right PASS" in out
    assert "INVERSE two-sided" in out


def test_cli_characters_unknown_name(capsys):
    assert main(["characters", str(_data_path("m2q.json")), "--verify", "nope"]) == 2


def test_cli_panov_hopf(capsys):
    code = main(["panov", str(_data_path("sweedler-data.json")), "--hopf"])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERDICT PASS" in out
    assert "CHI 1=1 t=-1" in out


def test_cli_panov_failing(tmp_path, capsys):
    doc = _sweedler_doc()
    # the inner sigma-derivation r -> r - sigma(r), so t -> 2t: valid Ore data whose
    # delta is not a (t,1)-coderivation
    doc["maps"]["delta"] = [["0", "0"], ["0", "2"]]
    p = tmp_path / "bad-ore.json"
    p.write_text(json.dumps(doc))
    code = main(["panov", str(p), "--hopf"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_ore_build(capsys):
    code = main(["ore", "build", str(_data_path("sweedler-data.json")),
                 "--verify-degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "AXIOM antipode_composition PASS" in out


def test_cli_ore_build_rejected(tmp_path, capsys):
    # conjugation by the swap matrix is not a winding map: conditions fail
    from weakhopf.fields import QQ
    from weakhopf.groupoid import matrix_algebra
    from weakhopf.linalg import Matrix
    R = matrix_algebra(2)
    swap = basis_element(R, 0, 0, 1) | basis_element(R, 0, 1, 0)
    bundle = SpecBundle(field=QQ, wb=R, elements={"g": swap},
                        maps={"sigma": ad_map(R, swap), "delta": Matrix.zero(QQ, 4, 4)})
    p = tmp_path / "rejected.json"
    write_spec(bundle, p)
    code = main(["ore", "build", str(p)])
    out = capsys.readouterr().out
    assert code == 1
    assert "CLAUSE sigma_is_left_winding FAIL" in out


def test_cli_example_roundtrips(tmp_path, capsys):
    for argv in (["example", "sweedler"], ["example", "matrix", "3"],
                 ["example", "groupoid", "Z2", "2"],
                 ["example", "section5", "--group", "Z2", "--n", "1",
                  "--rho", "1,-1", "--q", "1"]):
        out_file = tmp_path / ("-".join(argv[1:]).replace("/", "_").replace(",", "_") + ".json")
        code = main(argv + ["-o", str(out_file)])
        capsys.readouterr()
        assert code == 0
        bundle = parse_spec(str(out_file))
        assert emit_spec(parse_spec(emit_spec(bundle))) == emit_spec(bundle)


def test_cli_example_section5_emits_extension_data(capsys):
    code = main(["example", "section5", "--group", "Z2", "--n", "1",
                 "--rho", "1,-1", "--q", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert set(doc["maps"]) == {"sigma", "delta"}
    assert "alpha" in doc["functionals"]
    bundle = parse_spec(doc)
    assert bundle.maps["delta"].apply(bundle.wb.basis_vector(1)) == \
        {0: Fraction(-1), 1: Fraction(1)}  # t - 1


def _spec_file(tmp_path, **keys):
    doc = _sweedler_doc()
    doc.update(keys)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _spec_file_without(tmp_path, key):
    """The bundled Sweedler spec with ``key`` removed."""
    doc = json.loads(_data_path("sweedler-data.json").read_text())
    del doc[key]
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _bool_index_mult(doc):
    return [[bool(i), bool(j), k, c] for i, j, k, c in doc["mult"]]


def _raw_spec_file(tmp_path, key, raw):
    """The Sweedler spec with the value of ``key`` replaced by the JSON text ``raw``."""
    text = json.dumps(_sweedler_doc() | {key: None})
    p = tmp_path / "spec.json"
    p.write_text(text.replace(f'"{key}": null', f'"{key}": {raw}', 1))
    return str(p)


def _raw_file(tmp_path, data):
    p = tmp_path / "spec.json"
    p.write_bytes(data)
    return str(p)


def _section5_spec_file(tmp_path):
    """`weakhopf example section5` on M_2(QZ_2), rho = (1,-1), q = (3/5,-7/2), without its stdout."""
    p = tmp_path / "s5.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["example", "section5", "--group", "Z2", "--n", "2", "--rho=1,-1",
                     "--q=3/5,-7/2", "-o", str(p)]) == 0
    return str(p)


def _nonassociative_m2q_file(tmp_path, broken):
    """m2q.json made non-associative (E12 E21 = E12) and malformed in one more place:
    ``broken`` is one of BROKEN_M2Q."""
    doc = json.loads(_data_path("m2q.json").read_text())
    doc["mult"] = [[1, 2, 1, "1"] if row[:2] == [1, 2] else row for row in doc["mult"]]
    if broken == "comult-index":
        doc["comult"].append([0, 5, 0, "1"])
    elif broken == "counit-short":
        doc["counit"] = doc["counit"][:3]
    elif broken == "antipode-columns":
        doc["antipode"] = doc["antipode"][:3]
    else:
        doc["maps"] = ["sigma"]
    p = tmp_path / f"{broken}.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _spec_commands(spec):
    return (["check", spec], ["panov", spec], ["characters", spec, "--verify", "chi"],
            ["ore", "build", spec])


SPEC_COMMANDS = ("check", "panov", "characters", "ore-build")  # the ids of _spec_commands


BROKEN_M2Q = ("comult-index", "counit-short", "antipode-columns", "maps-list")


def _kz19_gf2_spec_file(tmp_path):
    wb = group_algebra(GroupPresentation.cyclic(19), Field.prime(2))
    p = tmp_path / "kz19.json"
    write_spec(SpecBundle(field=wb.field, wb=wb), p)
    return str(p)


GF3 = {"kind": "prime", "p": 3}


def _kz2_collapsing_sigma_file(tmp_path):
    """kZ_2 with sigma: 1 -> 1, t -> 1, a unital algebra map of rank 1, delta = 0 and g = 1."""
    wb = group_algebra(GroupPresentation.cyclic(2))
    one = Fraction(1)
    sigma = Matrix(wb.field, 2, 2, {(0, 0): one, (0, 1): one})
    p = tmp_path / "kz2.json"
    write_spec(SpecBundle(field=wb.field, wb=wb, elements={"g": {0: one}},
                          maps={"sigma": sigma, "delta": Matrix.zero(wb.field, 2, 2)}), p)
    return str(p)


def _sweedler_spec():
    return str(_data_path("sweedler-data.json"))


# Input checks with the one error line each prints: (id, argv, message).
INPUT_CHECKS = [
    # an empty entry reaches Field.parse; it is not dropped
    ("section5-rho-empty-middle", lambda tmp: ["example", "section5", "--rho", "1,,-1"],
     "bad rational scalar ''"),
    ("section5-rho-empty-first", lambda tmp: ["example", "section5", "--rho", ",1,-1"],
     "bad rational scalar ''"),
    ("section5-q-empty-last", lambda tmp: ["example", "section5", "--q", "3/5,"],
     "bad rational scalar ''"),
    ("section5-rho-empty", lambda tmp: ["example", "section5", "--rho", ""],
     "bad rational scalar ''"),
    ("section5-rho-short", lambda tmp: ["example", "section5", "--rho", "1"],
     "rho must list 2 values"),
    ("section5-rho-identity-2", lambda tmp: ["example", "section5", "--rho", "2,2"],
     "rho(identity) must be 1"),
    ("section5-rho-zero", lambda tmp: ["example", "section5", "--rho", "1,0"], "rho(t) = 0"),
    ("section5-q-short", lambda tmp: ["example", "section5", "--n", "2", "--q", "1"],
     "q must list 2 values"),
    ("section5-s3-not-central",
     lambda tmp: ["example", "section5", "--group", "S3", "--rho", "1,1,1,1,1,1"],
     "group element (23) is not central"),
    ("section5-trivial-group",
     lambda tmp: ["example", "section5", "--group", "trivial", "--rho", "1"],
     "group has no element of index 1"),
    ("section5-n-zero", lambda tmp: ["example", "section5", "--n", "0"],
     "matrix size must be at least 1"),
    ("matrix-zero", lambda tmp: ["example", "matrix", "0"], "matrix size must be at least 1"),
    ("grouplikes-matrix-zero", lambda tmp: ["grouplikes", "--matrix", "0"],
     "matrix size must be at least 1"),
    ("groupoid-z0", lambda tmp: ["example", "groupoid", "Z0", "2"],
     "cyclic group order must be positive"),
    ("panov-no-such-sigma", lambda tmp: ["panov", _sweedler_spec(), "--sigma", "nosuch"],
     "no map named 'nosuch' in the spec file"),
    ("ore-build-no-such-delta", lambda tmp: ["ore", "build", _sweedler_spec(), "--delta", "nosuch"],
     "no map named 'nosuch' in the spec file"),
    ("panov-no-such-g", lambda tmp: ["panov", _sweedler_spec(), "--g", "nosuch"],
     "no element named 'nosuch' in the spec file"),
    ("panov-sigma-not-bijective", lambda tmp: ["panov", _kz2_collapsing_sigma_file(tmp)],
     "sigma is not bijective"),
    ("field-kind-complex", lambda tmp: ["check", _spec_file(tmp, field={"kind": "complex"})],
     "unknown field kind 'complex'"),
    ("field-not-an-object", lambda tmp: ["check", _spec_file(tmp, field=5)],
     "bad field descriptor 5"),
]
INPUT_CHECK_MESSAGES = {argv: message for _, argv, message in INPUT_CHECKS}


@pytest.mark.parametrize("argv", [
    lambda tmp: ["example", "matrix", "abc"],
    lambda tmp: ["example", "groupoid", "Z2", "two"],
    lambda tmp: ["check", _spec_file(tmp, field={"kind": "prime", "p": "5"})],
    lambda tmp: ["check", _spec_file(tmp, field={"kind": "prime", "p": 2.0})],
    # dim 1 and indices 0/1 would be valid as ints; bools must not pass for them
    lambda tmp: ["check", _spec_file(tmp, dim=True, basis=["1"], mult=[[0, 0, 0, "1"]],
                                     unit=["1"], comult=[[0, 0, 0, "1"]], counit=["1"],
                                     antipode=[["1"]], elements={}, functionals={}, maps={})],
    lambda tmp: ["check", _spec_file(tmp, mult=_bool_index_mult(_sweedler_doc()))],
    lambda tmp: ["ore", "build", str(_data_path("sweedler-data.json")), "--verify-degree", "-1"],
    # delta(t) = 2t fails the Panov conditions; the bound is refused before they are read
    lambda tmp: ["ore", "build", _spec_file(tmp, maps=_sweedler_doc()["maps"] | {
        "delta": [["0", "0"], ["0", "2"]]}), "--verify-degree", "-1"],
    # refused before any monomial table is built; never built here
    lambda tmp: ["ore", "build", str(_data_path("sweedler-data.json")), "--verify-degree", "50"],
    lambda tmp: ["grouplikes", "--matrix", "2", "--prime", "4"],
    lambda tmp: ["grouplikes", "--matrix", "2", "--prime", "0"],
    # refused by the count guard before M_n(k) is built; never enumerated here
    lambda tmp: ["grouplikes", "--matrix", "8"],
    lambda tmp: ["grouplikes", "--matrix", "10"],
    # 2^19 candidates are admitted; the work they take is refused before the scan
    lambda tmp: ["grouplikes", "--brute", _kz19_gf2_spec_file(tmp)],
    lambda tmp: ["check", _raw_spec_file(tmp, "field", "[" * 50_000 + "]" * 50_000)],
    # the Sweedler spec passes check over QQ and over GF(3) with unit ["1", "0"]
    lambda tmp: ["check", _spec_file(tmp, unit=[True, False])],
    lambda tmp: ["check", _spec_file(tmp, field=GF3, unit=[True, False])],
    lambda tmp: ["check", _spec_file(tmp, field=GF3, unit=["1", "\u00b2"])],
    lambda tmp: ["check", _spec_file(tmp, field=GF3, unit=["--1", "0"])],
    # Fraction() reads both; "1e99999999" would become a 10^8-digit integer
    lambda tmp: ["check", _spec_file(tmp, unit=["1e99999999", "0"])],
    lambda tmp: ["check", _spec_file(tmp, unit=["1.5", "0"])],
    lambda tmp: ["check", _spec_file(tmp, basis=["a", "a"])],
    # past the 4,300-digit limit of int(), json.loads raises a plain ValueError
    lambda tmp: ["check", _raw_spec_file(tmp, "dim", "9" * 4_400)],
    # swapped, sigma is the zero map: `panov` refuses it as `ore build` does
    lambda tmp: ["panov", _section5_spec_file(tmp), "--hopf", "--sigma", "delta", "--delta", "sigma"],
    lambda tmp: ["panov", _spec_file_without(tmp, "antipode"), "--hopf"],
    lambda tmp: ["characters", str(_data_path("sweedler-data.json")), "--verify", "nope"],
    # refused before any row is read, and before trial division up to 2^30.5
    lambda tmp: ["check", _spec_file(tmp, dim=DIM_LIMIT + 1)],
    lambda tmp: ["check", _spec_file(tmp, field={"kind": "prime", "p": 2 ** 61 - 1})],
    lambda tmp: ["grouplikes", "--matrix", "2", "--prime", str(2 ** 61 - 1)],
    lambda tmp: ["check", _spec_file(tmp, unit=["1"])],
    lambda tmp: ["check", _spec_file(tmp, antipode=[["1"], ["0"]])],
    lambda tmp: ["check", _spec_file(tmp, mult={"0": [0, 0, "1"]})],
    lambda tmp: ["check", _spec_file(tmp, mult=[[0, 0, 0]])],
    lambda tmp: ["check", _raw_file(tmp, json.dumps([_sweedler_doc()]).encode())],
    lambda tmp: ["ore", "build", _spec_file(tmp, maps=["sigma", "delta"])],
    # a present section that is not an object is refused, however falsy
    *(lambda tmp, s=section, v=value: ["check", _spec_file(tmp, **{s: v})]
      for section, value in (("functionals", False), ("elements", []), ("maps", 0),
                             ("functionals", ""), ("elements", None))),
    lambda tmp: ["example", "groupoid", "Z2"],
    lambda tmp: ["example", "groupoid", "Q8", "1"],
    # --prime names the field of --matrix only; --brute scans the spec's own field
    lambda tmp: ["grouplikes", "--brute", _spec_file(tmp, field=GF3), "--prime", "7"],
    lambda tmp: ["grouplikes", "--brute", _spec_file(tmp), "--prime", "7"],
    # positional parameters that the example kind does not take
    lambda tmp: ["example", "sweedler", "3", "5"],
    lambda tmp: ["example", "matrix", "2", "9"],
    lambda tmp: ["example", "section5", "Z2"],
    # a present antipode is parsed whatever its value; a null one is no table
    lambda tmp: ["check", _spec_file(tmp, antipode=None)],
    # a spec argument is always a path, never JSON text
    lambda tmp: ["check", '{"dim": 1}'],
    *(lambda tmp, b=broken, c=command: _spec_commands(_nonassociative_m2q_file(tmp, b))[c]
      for broken in BROKEN_M2Q for command in range(4)),
    # -o names a path that cannot be opened for writing
    lambda tmp: ["example", "sweedler", "-o", str(tmp / "missing" / "sweedler.json")],
    lambda tmp: ["example", "sweedler", "-o", str(tmp)],
    # a spec file whose bytes are not UTF-8
    *(lambda tmp, c=command: _spec_commands(_raw_file(tmp, b"\xff\xfe{}"))[c]
      for command in range(4)),
    *(argv for _, argv, _ in INPUT_CHECKS),
], ids=["matrix-size-text", "groupoid-size-text", "prime-as-string", "prime-as-float",
        "dim-as-bool", "index-as-bool", "negative-degree-bound",
        "negative-degree-bound-failing-conditions", "degree-bound-too-large",
        "grouplikes-prime-not-prime",
        "grouplikes-prime-zero", "grouplikes-matrix-8", "grouplikes-matrix-10",
        "grouplikes-brute-kz19-gf2",
        "deeply-nested-json", "scalar-as-bool", "gf-scalar-as-bool",
        "gf-scalar-superscript-digit", "gf-scalar-double-minus", "scalar-exponent",
        "scalar-decimal", "repeated-basis-labels", "oversized-json-integer",
        "panov-sigma-not-automorphism", "panov-hopf-without-antipode",
        "characters-unknown-functional", "spec-dim-too-large", "field-prime-too-large",
        "grouplikes-prime-too-large", "unit-wrong-length", "antipode-wrong-columns",
        "mult-not-a-list", "mult-row-of-3", "spec-document-is-array", "maps-not-an-object",
        "functionals-false", "elements-empty-list", "maps-zero", "functionals-empty-string",
        "elements-null",
        "groupoid-one-parameter", "groupoid-unknown-group",
        "grouplikes-brute-gf3-with-prime", "grouplikes-brute-qq-with-prime",
        "sweedler-two-parameters", "matrix-two-parameters", "section5-one-parameter",
        "antipode-null", "spec-path-is-json-text",
        *(f"nonassociative-{broken}-{command}" for broken in BROKEN_M2Q
          for command in SPEC_COMMANDS),
        "example-output-missing-directory", "example-output-is-a-directory",
        *(f"not-utf8-{command}" for command in SPEC_COMMANDS),
        *(name for name, _, _ in INPUT_CHECKS)])
def test_cli_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    code = main(argv(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    if argv in INPUT_CHECK_MESSAGES:
        assert captured.err == f"error: {INPUT_CHECK_MESSAGES[argv]}\n"


@pytest.mark.parametrize("broken, error", [
    ("comult-index", "index 5 out of range (at comult[4])"),
    ("counit-short", "expected a dense list of 4 scalars (at counit)"),
    ("antipode-columns", "expected 4 columns (at antipode)"),
    ("maps-list", "expected a name -> value object (at maps)"),
])
def test_parse_error_precedes_axiom_failure_in_every_command(tmp_path, capsys, broken, error):
    """Every table and named section is parsed before R is validated, so `check`
    (which does not validate) and the validating commands name the same fault:
    the parse error, not the broken associativity."""
    spec = _nonassociative_m2q_file(tmp_path, broken)
    for argv in _spec_commands(spec):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("group, n, dim", [("S3", "1", 6), ("trivial", "2", 4)])
def test_example_groupoid_takes_symmetric_and_trivial_groups(capsys, group, n, dim):
    assert main(["example", "groupoid", group, n]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == dim


@pytest.mark.parametrize("change, error", [
    ({"unit": [1, True]}, "bad rational scalar True (at unit[1])"),
    ({"counit": ["x", "x"]}, "bad rational scalar 'x' (at counit[0])"),
    ({"mult": [[0, 0, 0, "1"], [0, 1, 1, "1/0"]]}, "bad rational scalar '1/0' (at mult[1])"),
])
def test_a_scalar_read_before_keeps_its_error_and_location(change, error):
    """parse_spec reads each distinct string scalar once per call, and every error keeps
    its message and location: a JSON true after 1 (equal to it, and of equal hash) is
    refused at its own slot, and a bad string at its first slot."""
    with pytest.raises(ParseError) as raised:
        parse_spec(_sweedler_doc() | change)
    assert str(raised.value) == error


def test_scalars_are_read_afresh_by_each_parse():
    """The same strings parse to QQ scalars in one call and to GF(3) ones in the next."""
    doc = _sweedler_doc()
    qq, gf3 = parse_spec(doc), parse_spec(doc | {"field": {"kind": "prime", "p": 3}},
                                          validate=False)
    assert {type(c) for c in qq.maps["sigma"].data.values()} == {Fraction}
    assert {type(c) for c in gf3.maps["sigma"].data.values()} == {GF(3)}
    assert gf3.maps["sigma"] == Matrix(Field.prime(3), 2, 2, {(0, 0): 1, (1, 1): -1})


def test_spec_dim_guard_refuses_before_any_row(count_calls):
    """A spec's dim above DIM_LIMIT is refused before a row, vector or map is read; at
    DIM_LIMIT the Sweedler spec passes the guard and fails on its two basis labels."""
    calls = count_calls("_parse_triples", "_parse_vector")
    with pytest.raises(TooLarge):
        parse_spec(_sweedler_doc() | {"dim": DIM_LIMIT + 1})
    assert not calls
    with pytest.raises(ParseError, match="basis"):
        parse_spec(_sweedler_doc() | {"dim": DIM_LIMIT})


def test_prime_guard_refuses_before_the_primality_test():
    """2^31 + 11, the least prime above PRIME_LIMIT, is refused by is_prime and by a
    field descriptor; 2^31 - 1 is still tested and admitted."""
    assert PRIME_LIMIT == 2 ** 31 and is_prime(2 ** 31 - 1)
    assert Field.from_json({"kind": "prime", "p": 2 ** 31 - 1}).order == 2 ** 31 - 1
    for refuse in (is_prime, lambda p: Field.from_json({"kind": "prime", "p": p})):
        with pytest.raises(TooLarge):
            refuse(2 ** 31 + 11)


def test_degree_guard_refuses_before_any_monomial_table(count_calls):
    """Sweedler and M_2(QZ_2) are admitted up to B = 48 and 11, past the 8 and 6 the
    tests and the benchmark use; past them `ore build` exits 2 before the builders of
    H's tables compute one row x^i b_u or one monomial product."""
    from weakhopf.errors import TooLarge
    from weakhopf.ore import refuse_large_degree
    m2qz2 = build_groupoid_algebra(GroupPresentation.cyclic(2), 2)
    for R, degree in ((sweedler_data().R, 48), (m2qz2, 11)):
        refuse_large_degree(R, degree)
        with pytest.raises(TooLarge):
            refuse_large_degree(R, degree + 1)
    calls = count_calls("OreAlgebra.mono_mul", "OreAlgebra._x_row")
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["ore", "build", str(_data_path("sweedler-data.json")), "--verify-degree",
                     "50"]) == 2
    assert calls["OreAlgebra.mono_mul"] == calls["OreAlgebra._x_row"] == 0


def test_verify_extension_refuses_negative_degree_bound():
    from weakhopf.errors import ValidationError
    from weakhopf.ore import extend_antipode, make_ore, verify_extension
    data = sweedler_data()
    H = extend_antipode(make_ore(data.R, data.sigma, data.delta, data.g))
    with pytest.raises(ValidationError):
        verify_extension(H, -1)
    assert verify_extension(H, 0).passed
