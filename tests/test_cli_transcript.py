"""The CLI transcript golden: argv, exit code, stdout and stderr of a fixed
set of commands, compared byte for byte with ``tests/golden/cli-transcript.txt``.

The commands are ``check`` on the bundled specs, on ``tests/data`` and on four
``example section5`` specs; ``panov``, ``panov --hopf``,
``ore build --verify-degree 0..2`` and ``characters --verify chi`` on the
specs that carry Ore data; and ``grouplikes --brute`` on small GF(p) specs
written by ``write_spec``, three of which the scan refuses, two with their
term counts.  The scan of ``tests/data/m2z2-gf5-transported.json`` (5^8
candidates, about 4 s) is left out for time.  Spec paths are printed by name
(``<bundled>/``, ``<data>/``, ``<tmp>/``), so the transcript does not depend
on where the files live.  Regenerate it only for an intended change of
output::

    PYTHONPATH=src:tests python tests/test_cli_transcript.py --write
"""

import contextlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

from weakhopf.cli import main
from weakhopf.fields import Field
from weakhopf.groupoid import (GroupPresentation, build_groupoid_algebra, group_algebra,
                               matrix_algebra)
from weakhopf.specfile import SpecBundle, write_spec

from lemmas import function_algebra

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "cli-transcript.txt"

BUNDLED = ("m2q", "sweedler-data")
DATA = ("m2qz2-bad-antipode", "m2qz2-bad-comult", "m2qz2-bad-mult", "m2z2-gf5-transported",
        "m3qz2-bad-counit", "m3qz2-transported", "sweedler-cancelling-comult",
        "sweedler-cancelling-mult")
SECTION5 = {
    "section5-z2-n1": ["--group", "Z2", "--n", "1"],
    "section5-z2-n2-q": ["--group", "Z2", "--n", "2", "--q=3/5,-7/2"],
    "section5-z4-n1-q": ["--group", "Z4", "--n", "1", "--rho=1,-1,1,-1", "--q=5/3"],
    "section5-z3-n2": ["--group", "Z3", "--n", "2", "--rho=1,1,1", "--q=1,2"],
}
GFP = {
    "m2-gf2": lambda: matrix_algebra(2, Field.prime(2)),
    "kz3-gf3": lambda: group_algebra(GroupPresentation.cyclic(3), Field.prime(3)),
    "fun-z3-gf7": lambda: function_algebra(GroupPresentation.cyclic(3), Field.prime(7)),
    "fun-s3-gf2": lambda: function_algebra(GroupPresentation.symmetric(3), Field.prime(2)),
    "fun-s3-gf5": lambda: function_algebra(GroupPresentation.symmetric(3), Field.prime(5)),
    "m2z2-gf3": lambda: build_groupoid_algebra(GroupPresentation.cyclic(2), 2, Field.prime(3)),
    "kz19-gf2": lambda: group_algebra(GroupPresentation.cyclic(19), Field.prime(2)),
    "fun-z17-gf2": lambda: function_algebra(GroupPresentation.cyclic(17), Field.prime(2)),
    "fun-s3-gf11": lambda: function_algebra(GroupPresentation.symmetric(3), Field.prime(11)),
}
ORE = ("<bundled>/sweedler-data", *(f"<tmp>/{name}" for name in SECTION5))


def commands():
    """The argv of every command, spec paths as <dir>/name."""
    out = [["check", f"<bundled>/{name}"] for name in BUNDLED]
    out += [["check", f"<data>/{name}"] for name in DATA]
    out += [["check", f"<tmp>/{name}"] for name in SECTION5]
    for spec in ORE:
        out += [["panov", spec], ["panov", spec, "--hopf"]]
        out += [["ore", "build", spec, "--verify-degree", str(d)] for d in range(3)]
    out += [["characters", spec, "--verify", "chi"] for spec in ("<bundled>/m2q", *ORE)]
    out += [["grouplikes", "--brute", f"<tmp>/{name}"] for name in GFP]
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def transcript(tmp: Path) -> str:
    """Write the generated specs into tmp, run every command and return the transcript."""
    dirs = {"<bundled>": str(resources.files("weakhopf") / "data"),
            "<data>": str(HERE / "data"), "<tmp>": str(tmp)}
    for name, example in SECTION5.items():
        assert _run(["example", "section5", *example, "-o", str(tmp / f"{name}.json")])[0] == 0
    for name, build in GFP.items():
        wb = build()
        write_spec(SpecBundle(field=wb.field, wb=wb), str(tmp / f"{name}.json"))
    blocks = []
    for argv in commands():
        real = [f"{dirs[a.partition('/')[0]]}/{a.partition('/')[2]}.json" if a[0] == "<" else a
                for a in argv]
        rc, out, err = _run(real)
        blocks.append(f"$ weakhopf {' '.join(argv)}\nexit {rc}\n"
                      f"--- stdout\n{out}--- stderr\n{err}")
    return "".join(blocks)


def test_cli_transcript(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_transcript.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)))
    print(f"WROTE {GOLDEN}")
