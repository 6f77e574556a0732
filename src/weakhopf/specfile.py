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


def _parse_scalar(field, value, where):
    try:
        return field.parse(value)
    except ParseError as exc:
        raise ParseError(str(exc), where) from exc


def _parse_vector(field, values, dim, where):
    if not isinstance(values, list) or len(values) != dim:
        raise ParseError(f"expected a dense list of {dim} scalars", where)
    scalars = [_parse_scalar(field, v, f"{where}[{i}]") for i, v in enumerate(values)]
    return {i: c for i, c in enumerate(scalars) if c}


def _parse_matrix(field, columns, dim, where):
    if not isinstance(columns, list) or len(columns) != dim:
        raise ParseError(f"expected {dim} columns", where)
    cols = [_parse_vector(field, col, dim, f"{where}[{j}]") for j, col in enumerate(columns)]
    return Matrix.from_columns(field, dim, cols)


def _parse_triples(field, rows, dim, where):
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
        out.append((i, j, k, _parse_scalar(field, c, f"{where}[{pos}]")))
    return out


def parse_spec(source, validate=True) -> SpecBundle:
    """Parse a spec file (path, JSON text, or dict) into validated objects.

    Every table and named section is parsed before R is built, so a parse
    error is reported ahead of any axiom failure, with or without
    validation.  With validate=False R is built without axiom checks, so
    deliberately broken files can be diagnosed by the report functions.  A
    dim above DIM_LIMIT raises TooLarge before any row is read.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                text = source
            else:
                raise ParseError(f"cannot read spec file {source!r}")
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

    mult = {}
    for (i, j, k, c) in _parse_triples(field, doc["mult"], dim, "mult"):
        vec = mult.setdefault((i, j), {})
        vec[k] = vec.get(k, field.zero()) + c
    unit = _parse_vector(field, doc["unit"], dim, "unit")
    comult = {}
    for (i, j, k, c) in _parse_triples(field, doc["comult"], dim, "comult"):
        slot = comult.setdefault(k, {})
        slot[(i, j)] = slot.get((i, j), field.zero()) + c
    counit = _parse_vector(field, doc["counit"], dim, "counit")
    antipode = doc.get("antipode")
    if antipode is not None:
        antipode = _parse_matrix(field, antipode, dim, "antipode")

    def named(section, parser):
        out = {}
        d = doc.get(section) or {}
        if not isinstance(d, dict):
            raise ParseError("expected a name -> value object", section)
        for name, value in d.items():
            out[name] = parser(field, value, dim, f"{section}.{name}")
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(emit_spec(bundle), fh, indent=2)
        fh.write("\n")


def spec_text(bundle: SpecBundle) -> str:
    return json.dumps(emit_spec(bundle), indent=2)
