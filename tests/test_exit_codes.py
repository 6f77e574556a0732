"""Exit-code fuzz: mutated spec files through ``weakhopf check``.

A mutation swaps two indices of a mult or comult row (or an index and the
scalar, which the parser must refuse), or writes a random scalar into a
table: over QQ a rational with a large denominator, so the scale D of the
integer view varies from example to example.  Whatever the spec, ``check``
exits 0, 1 or 2; exit 1 comes only after an ``AXIOM ... FAIL`` line, exit 2
prints one error line, and nothing prints a traceback.  The profile is fixed
(derandomized, no example database).
"""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from importlib import resources
from pathlib import Path

from hypothesis import given, settings, strategies as st

from weakhopf.cli import main

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


def _check(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["check", str(path)])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(SOURCES), st.lists(st.one_of(swap, scalar), min_size=1, max_size=3))
def test_mutated_spec_exit_codes(source, mutations):
    doc = json.loads(source.read_text())
    for mutation in mutations:
        _mutate(doc, mutation)
    rc, out, err = _check(doc)
    assert "Traceback" not in out + err
    lines = out.splitlines()
    if rc == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        return
    assert rc in (0, 1) and err == ""
    assert lines and all(AXIOM_LINE.match(line) for line in lines)
    assert any(line.split()[2] == "FAIL" for line in lines) == (rc == 1)
