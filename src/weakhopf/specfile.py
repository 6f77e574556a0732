"""Bit-exact JSON interchange for algebra instances and named extension data.

Scalars are strings "num/den" over the rationals and plain integers over a
prime field; elements and functionals are dense lists, read into dicts
index -> nonzero scalar; matrices are column-major dense lists; 3-index
structure constants are sparse [i, j, k, scalar] rows.  Emission is deterministic
(sorted rows), so emit(parse(f)) re-parses to structurally equal objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .bialgebra import DIM_LIMIT, WeakBialgebra, WeakHopfAlgebra
from .errors import ParseError, TooLarge
from .fields import Field
from .linalg import Matrix


@dataclass
class SpecBundle:
    """A parsed instance plus its named elements, functionals and maps."""

    field: Field
    wb: WeakBialgebra
    elements: dict = dc_field(default_factory=dict)
    functionals: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)
    name: str | None = None

    @property
    def has_antipode(self):
        return isinstance(self.wb, WeakHopfAlgebra)


class _Scalars:
    """The scalar reader of one :func:`parse_spec` call over ``field``.

    Each distinct string scalar is parsed once and kept for the rest of the call;
    the memo is keyed by str values only, so a JSON true, which is no str (and
    equal to 1), still reaches :meth:`Field.parse` and is refused.  The location
    of an error, ``where`` or ``where[pos]``, is formatted only when one is raised.
    """

    def __init__(self, field):
        self.field, self._memo = field, {}

    def read(self, value, where, pos=None):
        hit = self._memo.get(value) if type(value) is str else None
        if hit is None:
            try:
                hit = self.field.parse(value)
            except ParseError as exc:
                raise ParseError(str(exc), where if pos is None else f"{where}[{pos}]") from exc
            if type(value) is str:
                self._memo[value] = hit
        return hit


def _parse_vector(scalars, values, dim, where):
    if not isinstance(values, list) or len(values) != dim:
        raise ParseError(f"expected a dense list of {dim} scalars", where)
    read, out = scalars.read, {}
    for i, v in enumerate(values):
        if c := read(v, where, i):
            out[i] = c
    return out


def _parse_matrix(scalars, columns, dim, where):
    if not isinstance(columns, list) or len(columns) != dim:
        raise ParseError(f"expected {dim} columns", where)
    cols = [_parse_vector(scalars, col, dim, f"{where}[{j}]") for j, col in enumerate(columns)]
    return Matrix.from_columns(scalars.field, dim, cols)


def _parse_triples(scalars, rows, dim, where):
    out = []
    if not isinstance(rows, list):
        raise ParseError("expected a list of [i, j, k, scalar] rows", where)
    for pos, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 4):
            raise ParseError("expected [i, j, k, scalar]", f"{where}[{pos}]")
        i, j, k, c = row
        for idx in (i, j, k):
            if type(idx) is not int or not 0 <= idx < dim:
                raise ParseError(f"index {idx} out of range", f"{where}[{pos}]")
        out.append((i, j, k, scalars.read(c, where, pos)))
    return out


def parse_spec(source, validate=True) -> SpecBundle:
    """Parse a spec file (path or dict) into validated objects.

    Every table and named section is parsed before R is built, so a parse
    error is reported ahead of any axiom failure, with or without
    validation.  With validate=False R is built without axiom checks, so
    deliberately broken files can be diagnosed by the report functions.  A
    dim above DIM_LIMIT raises TooLarge before any row is read.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            raise ParseError(f"cannot read spec file {source!r}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"spec file {source!r} is not UTF-8",
                             f"byte {exc.start}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", f"offset {exc.pos}") from exc
        except RecursionError:
            raise ParseError("invalid JSON: nested too deeply") from None
        except ValueError:  # an integer past the int-to-string digit limit
            raise ParseError("invalid JSON: a number has too many digits") from None
    if not isinstance(doc, dict):
        raise ParseError("spec document must be a JSON object")

    for key in ("field", "dim", "basis", "mult", "unit", "comult", "counit"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    field = Field.from_json(doc["field"])
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:
        raise ParseError("dim must be a positive integer", "dim")
    if dim > DIM_LIMIT:
        raise TooLarge(f"dim {dim} exceeds the limit {DIM_LIMIT}")
    basis = doc["basis"]
    if not (isinstance(basis, list) and len(basis) == dim
            and all(isinstance(b, str) for b in basis)):
        raise ParseError(f"basis must list {dim} labels", "basis")
    if len(set(basis)) != dim:
        raise ParseError("basis labels must be distinct", "basis")

    scalars = _Scalars(field)
    mult = {}
    for (i, j, k, c) in _parse_triples(scalars, doc["mult"], dim, "mult"):
        vec = mult.setdefault((i, j), {})
        vec[k] = vec[k] + c if k in vec else c
    unit = _parse_vector(scalars, doc["unit"], dim, "unit")
    comult = {}
    for (i, j, k, c) in _parse_triples(scalars, doc["comult"], dim, "comult"):
        slot = comult.setdefault(k, {})
        slot[i, j] = slot[i, j] + c if (i, j) in slot else c
    counit = _parse_vector(scalars, doc["counit"], dim, "counit")
    antipode = None
    if "antipode" in doc:
        antipode = _parse_matrix(scalars, doc["antipode"], dim, "antipode")

    def named(section, parser):
        out = {}
        d = doc.get(section, {})
        if not isinstance(d, dict):
            raise ParseError("expected a name -> value object", section)
        for name, value in d.items():
            out[name] = parser(scalars, value, dim, f"{section}.{name}")
        return out

    sections = {"elements": named("elements", _parse_vector),
                "functionals": named("functionals", _parse_vector),
                "maps": named("maps", _parse_matrix)}
    tables = (field, dim, mult, unit, comult, counit)
    if antipode is not None:
        wb = WeakHopfAlgebra(*tables, antipode, basis, validate=validate)
    else:
        wb = WeakBialgebra(*tables, basis, validate=validate)
    return SpecBundle(field=field, wb=wb, name=doc.get("name"), **sections)


def _emit_vector(field, v, dim):
    zero = field.zero()
    return [field.format(v.get(i, zero)) for i in range(dim)]


def _emit_matrix(field, m: Matrix):
    return [_emit_vector(field, col, m.rows) for col in m.column_dicts()]


def emit_spec(bundle: SpecBundle) -> dict:
    """Serialize a bundle to a JSON-ready dict (deterministic row order)."""
    field = bundle.field
    wb = bundle.wb
    mult_rows = []
    for (i, j), vec in sorted(wb.mult.items()):
        for k, c in sorted(vec.items()):
            mult_rows.append([i, j, k, field.format(c)])
    comult_rows = []
    for k in range(wb.dim):
        for (i, j), c in sorted(wb.coproduct(k).items()):
            comult_rows.append([i, j, k, field.format(c)])
    doc = {
        "name": bundle.name,
        "field": field.to_json(),
        "dim": wb.dim,
        "basis": list(wb.labels),
        "mult": mult_rows,
        "unit": _emit_vector(field, wb.unit, wb.dim),
        "comult": comult_rows,
        "counit": _emit_vector(field, wb.counit_vector, wb.dim),
    }
    if isinstance(wb, WeakHopfAlgebra):
        doc["antipode"] = _emit_matrix(field, wb.antipode_matrix)
    if bundle.elements:
        doc["elements"] = {k: _emit_vector(field, v, wb.dim)
                           for k, v in sorted(bundle.elements.items())}
    if bundle.functionals:
        doc["functionals"] = {k: _emit_vector(field, v, wb.dim)
                              for k, v in sorted(bundle.functionals.items())}
    if bundle.maps:
        doc["maps"] = {k: _emit_matrix(field, m) for k, m in sorted(bundle.maps.items())}
    if doc["name"] is None:
        del doc["name"]
    return doc


def write_spec(bundle: SpecBundle, path):
    """Write the bundle's spec to path; a path that cannot be opened for
    writing raises ParseError, as an unreadable one does in parse_spec."""
    text = spec_text(bundle) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError:
        raise ParseError(f"cannot write spec file {str(path)!r}") from None


def spec_text(bundle: SpecBundle) -> str:
    return json.dumps(emit_spec(bundle), indent=2)
