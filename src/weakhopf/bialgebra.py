"""Finite-dimensional algebras, coalgebras, weak bialgebras and weak Hopf algebras.

Everything is basis-indexed structure constants over an exact field.  An
element of R, or a functional on R, is a dict index -> nonzero scalar:

* multiplication:   mult[(i,j)] is b_i * b_j as such a dict,
* comultiplication: comult[k] is Delta(b_k) as a dict (i, j) -> scalar,
* unit and counit:  dicts index -> scalar.

The constructors drop zero coefficients, check every index against the
dimension and pass every scalar through :meth:`Field.coerce`, so elements
can be compared with ``==``.

Axiom sweeps are exhaustive over basis tuples, never sampled, and results
are collected in an :class:`~weakhopf.report.AxiomReport`.  All instances
are immutable after construction.

The sweeps run on an :class:`IntegerView`: the tables of a field-valued
basis view read once, on the keys the sweeps reach, and held as ints.  Over
QQ every table (products, unit, coproducts, counit, antipode) is multiplied
by one integer D, the lcm of all their denominators, and over GF(p) the
tables hold the residues, D = 1, compared mod p.  A value a sweep sums is
then D^w times its field value, where the weight w is the number of table
entries in each of its terms, and the side of lower weight is lifted by
D^(difference) before two sides are compared.  The weights (lhs/rhs) are:
associative and coassociative 2/2; unital and counit_*_neutral 2/0;
coproduct_multiplicative 2/4; counit_weak_multiplicative 3/5;
coproduct_unit_compatibility 3/9; antipode_vs_*_counital 3/4;
antipode_composition 6/1.  Only a failing side is converted back (to
Fraction(v, D^w), or to the residue's field element) to be formatted, so
witnesses and sides read as they do on field scalars.

The sweeps of R (:func:`algebra_report`, :func:`coalgebra_report`,
:func:`check_weak_bialgebra`, :func:`check_antipode`) read R's structure
constants on every basis key and key pair.  The Ore layer's
``verify_extension`` reads H = R[x; sigma, delta] at a degree bound B over
the monomials: products on (degree <= 2B) x (degree <= B), coproducts on
degree <= 2B, the counit on degree <= 3B and antipodes on degree <= B, since
the sweeps reach degree 2B through f m in ``eps_row``, through Delta(ab) and
through the antipode sandwich S(a) b S(d); a read outside the tables raises.
``wb.view`` and H itself keep field scalars for every other caller.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (AxiomFailure, CounitFails, DimensionMismatch, FieldMismatch,
                     NotAssociative, NotCoassociative, UnitFails, ValidationError)
from .linalg import Matrix, column_space_basis
from .report import AxiomReport

DIM_LIMIT = 128  # the largest dim of a spec file or M_n(kG): R is validated on dim^3 triples


def _format_terms(label, items, tensor=False):
    if not items:
        return "0"
    parts = []
    for key, c in items:
        name = "(x)".join(label(k) for k in key) if tensor else label(key)
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    return " + ".join(parts).replace("+ -", "- ")


class Algebra:
    """Associative unital algebra given by structure constants."""

    __slots__ = ("field", "dim", "labels", "mult", "unit")

    def __init__(self, field, dim, mult, unit, labels=None, validate=True):
        if dim < 1:
            raise ValidationError("algebra dimension must be at least 1")
        self.field = field
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValidationError("label count does not match dimension")
        self.mult = {ij: d for ij, vec in mult.items()
                     if (d := _element(field, dim, vec, ij, "mult"))}
        self.unit = _element(field, dim, unit, (), "unit")
        if validate:
            report = algebra_report(self)
            if not report.passed:
                fail = report.failures()[0]
                if fail.axiom == "associative":
                    raise NotAssociative(*fail.witness, fail.lhs, fail.rhs)
                raise UnitFails(fail.witness[0], fail.witness[1], fail.lhs)

    def basis_vector(self, i):
        return {i: self.field.one()}

    def left_mult_matrix(self, a: dict) -> Matrix:
        """The matrix of r -> a r."""
        return self._mult_matrix(a, lambda i, k: (i, k))

    def right_mult_matrix(self, a: dict) -> Matrix:
        """The matrix of r -> r a."""
        return self._mult_matrix(a, lambda i, k: (k, i))

    def _mult_matrix(self, a, pair):
        zero, data = self.field.zero(), {}
        for i, c in a.items():
            for k in range(self.dim):
                for r, x in self.mult.get(pair(i, k), _EMPTY).items():
                    data[(r, k)] = data.get((r, k), zero) + c * x
        return Matrix(self.field, self.dim, self.dim, data)

    def format_element(self, v: dict) -> str:
        return _format_terms(self.labels.__getitem__, sorted(v.items()))


def algebra_report(alg: Algebra) -> AxiomReport:
    """Exhaustive unit and associativity checks."""
    report = AxiomReport()
    view = ConstantsView(algebra=alg).integer_view()
    sweep_unital(view, report)
    sweep_associative(view, report)
    return report


class Coalgebra:
    """Coassociative counital coalgebra given by structure constants."""

    __slots__ = ("field", "dim", "comult", "counit")

    def __init__(self, field, dim, comult, counit, validate=True):
        if dim < 1:
            raise ValidationError("coalgebra dimension must be at least 1")
        self.field = field
        self.dim = dim
        self.comult = {k: d for k, t in comult.items()
                       if (d := _element(field, dim, t, (k,), "comult", pairs=True))}
        self.counit = _element(field, dim, counit, (), "counit")
        if validate:
            report = coalgebra_report(self)
            if not report.passed:
                fail = report.failures()[0]
                if fail.axiom == "coassociative":
                    raise NotCoassociative(fail.witness[0])
                raise CounitFails(fail.witness[0], fail.axiom)


def coalgebra_report(coalg: Coalgebra) -> AxiomReport:
    report = AxiomReport()
    view = ConstantsView(coalgebra=coalg).integer_view()
    sweep_coassociative(view, report, "coassociative")
    sweep_counit_neutral(view, report, "left")
    sweep_counit_neutral(view, report, "right")
    return report


# -- basis views and the shared axiom sweeps ----------------------------------


_EMPTY = {}


def _element(field, dim, d, keys, what, pairs=False):
    """A caller's element dict (or 2-tensor dict if pairs), checked and without zeros.

    ``keys`` are indices that name the entry (a mult pair, a comult key) and
    are range-checked with it; every scalar goes through Field.coerce.
    """
    out = {}
    for key, c in d.items():
        for i in (*keys, *(key if pairs else (key,))):
            if type(i) is not int or not 0 <= i < dim:
                raise DimensionMismatch(f"{what} index {i!r} out of range for dim {dim}")
        c = field.coerce(c)
        if c:
            out[key] = c
    return out


def _nonzero(d):
    return {k: c for k, c in d.items() if c}


def _scaled(side, n):
    """n times a side: a dict or a scalar."""
    return {k: c * n for k, c in side.items()} if type(side) is dict else side * n


def _split_row(row):
    """A dict keyed (c, r) as the dict c -> {r: value}."""
    out = {}
    for (c, r), x in row.items():
        out.setdefault(c, {})[r] = x
    return out


def _axpy(out, c, v, zero):
    """out += c * v for sparse dicts."""
    for k, x in v.items():
        out[k] = out.get(k, zero) + c * x


def _add_pure(out, c, legs, zero):
    """out += c * legs[0] (x) legs[1] (x) ... for element dicts legs."""
    terms = {(): c}
    for leg in legs:
        terms = {key + (k,): x * y for key, x in terms.items() for k, y in leg.items()}
    for key, x in terms.items():
        out[key] = out.get(key, zero) + x


class BasisView:
    """A structure seen basis element by basis element, as the axiom sweeps see it.

    ``keys`` are the basis keys a sweep runs over, in order, and ``unit`` is
    1 as a dict key -> scalar.  Subclasses supply ``product(a, b)``,
    ``coproduct(k)`` (keyed by key pairs) and ``antipode(k)``, each a plain
    dict without zero entries that callers must not modify, plus the scalar
    ``counit(k)``, ``label(k)`` and ``witness(keys)``.  The methods here
    derive from those; elements are dicts key -> scalar, 2-tensors dicts
    (key, key) -> scalar, and the coassociativity sides dicts keyed by key
    triples.

    Every table entry is ``scale`` (D) times its field value, and values are
    compared mod ``modulus`` when it is set; both are trivial here and are
    set by :class:`IntegerView`.
    """

    scale = 1
    modulus = None

    def __init__(self, field, keys, unit):
        self.field = field
        self.zero = field.zero()
        self.one = field.one()
        self.keys = keys
        self.unit = unit
        self._delta_one = None
        self._eps = {}
        self._eps_rows = {}

    def multiply(self, u, v):
        out = {}
        for a, c in u.items():
            for b, e in v.items():
                _axpy(out, c * e, self.product(a, b), self.zero)
        return _nonzero(out)

    def add(self, u, v):
        """u + v for two elements, or two tensors with as many legs."""
        out = dict(u)
        _axpy(out, self.one, v, self.zero)
        return _nonzero(out)

    def pure(self, u, v):
        """u (x) v for element dicts."""
        return {(a, b): x * y for a, x in u.items() for b, y in v.items()}

    def apply(self, image, u):
        """The image of u under the linear map sending basis key k to image(k)."""
        out = {}
        for k, c in u.items():
            _axpy(out, c, image(k), self.zero)
        return _nonzero(out)

    def map_legs(self, t, left=None, right=None):
        """(left (x) right)(t) for a 2-tensor t, each leg map given as key -> dict
        like the image of :meth:`apply`; None is the identity."""
        zero, one, out = self.zero, self.one, {}
        for (a, b), c in t.items():
            for r, x in (left(a) if left else {a: one}).items():
                cx = c * x
                for w, y in (right(b) if right else {b: one}).items():
                    out[(r, w)] = out.get((r, w), zero) + cx * y
        return _nonzero(out)

    def comultiply(self, u):
        return self.apply(self.coproduct, u)

    def tensor_mul(self, s, t):
        """Legwise product (a (x) b)(c (x) d) = ac (x) bd of two 2-tensors."""
        zero, product, out = self.zero, self.product, {}
        for (a, b), c in s.items():
            for (x, y), e in t.items():
                left = product(a, x)
                if not left:
                    continue
                right = product(b, y)
                if not right:
                    continue
                ce = c * e
                for r, u in left.items():
                    cu = ce * u
                    for w, v in right.items():
                        key = (r, w)
                        out[key] = out.get(key, zero) + cu * v
        return _nonzero(out)

    def comultiply_leg(self, d, leg):
        """(Delta (x) id)(d) for leg 0, (id (x) Delta)(d) for leg 1, d a 2-tensor."""
        zero, out = self.zero, {}
        for (i, j), c in d.items():
            for (a, b), e in self.coproduct(j if leg else i).items():
                key = (i, a, b) if leg else (a, b, j)
                out[key] = out.get(key, zero) + c * e
        return _nonzero(out)

    def delta_one(self):
        if self._delta_one is None:
            self._delta_one = self.comultiply(self.unit)
        return self._delta_one

    def eps_pair(self, a, b):
        """eps(ab) for basis keys a, b (cached)."""
        hit = self._eps.get((a, b))
        if hit is None:
            hit = self.zero
            for k, c in self.product(a, b).items():
                e = self.counit(k)
                if e:
                    hit = hit + c * e
            self._eps[(a, b)] = hit
        return hit

    def eps_mul(self, a, v):
        """eps(b_a v) for a basis key a and an element v, from the cached eps_pair."""
        e = self.zero
        for k, c in v.items():
            e = e + c * self.eps_pair(a, k)
        return e

    def eps_row(self, a):
        """{h: eps(a h)} over the sweep keys h, zeros dropped (cached)."""
        hit = self._eps_rows.get(a)
        if hit is None:
            hit = {h: e for h in self.keys if (e := self.eps_pair(a, h))}
            self._eps_rows[a] = hit
        return hit

    def counital(self, r, leg, r_first):
        """The counital maps: sum over Delta(1) = 1_(0) (x) 1_(1) of eps(.) 1_(1-leg).

        The argument of eps is r 1_(leg) if r_first, else 1_(leg) r:
        eps_t = (0, False), eps_s = (1, True), eps_t' = (0, True),
        eps_s' = (1, False).
        """
        zero, out = self.zero, {}
        for pair, c in self.delta_one().items():
            a, kept = pair[leg], pair[1 - leg]
            e = zero
            for b, x in r.items():
                e = e + x * (self.eps_pair(b, a) if r_first else self.eps_pair(a, b))
            if e:
                out[kept] = out.get(kept, zero) + c * e
        return _nonzero(out)

    def agree(self, lhs, rhs, weights):
        """Whether two sides of an axiom hold the same field value.

        The sides are dicts (a missing key reads as 0) or scalars, and a side
        of weight w is D^w times its field value; the side of lower weight is
        lifted by D^(difference) before the comparison.
        """
        w_lhs, w_rhs = weights
        if w_lhs != w_rhs and self.scale != 1:
            lift = self.scale ** abs(w_lhs - w_rhs)
            if w_lhs < w_rhs:
                lhs = _scaled(lhs, lift)
            else:
                rhs = _scaled(rhs, lift)
        if lhs == rhs:
            return True
        if type(lhs) is dict:
            diffs = (lhs.get(k, 0) - rhs.get(k, 0) for k in lhs.keys() | rhs.keys())
        else:
            diffs = (lhs - rhs,)
        p = self.modulus
        return not any(d and (p is None or d % p) for d in diffs)

    def to_field(self, c, w):
        """The field value of a scalar of weight w."""
        return c

    def field_side(self, side, w):
        """A side of weight w in field scalars; a dict without its zero entries."""
        if type(side) is dict:
            return _nonzero({k: self.to_field(c, w) for k, c in side.items()})
        return self.to_field(side, w)

    def formatter(self, legs):
        tensor = legs > 1
        return lambda d: _format_terms(self.label, sorted(d.items()), tensor=tensor)


class ConstantsView(BasisView):
    """Integer basis keys over the structure constants of R (any part may be absent)."""

    def __init__(self, algebra=None, coalgebra=None, antipode=None):
        part = algebra or coalgebra
        super().__init__(part.field, range(part.dim), algebra.unit if algebra else None)
        self.labels = algebra.labels if algebra else tuple(f"b{i}" for i in range(part.dim))
        self._mult = algebra.mult if algebra else None
        self._comult = coalgebra.comult if coalgebra else None
        self._counit = coalgebra.counit if coalgebra else None
        self._antipode = antipode

    def product(self, a, b):
        return self._mult.get((a, b), _EMPTY)

    def coproduct(self, k):
        return self._comult.get(k, _EMPTY)

    def counit(self, k):
        return self._counit.get(k, self.zero)

    def antipode(self, k):
        return self._antipode.column_dicts()[k]

    def label(self, k):
        return self.labels[k]

    def witness(self, keys):
        return keys

    def integer_view(self) -> IntegerView:
        """This view's tables as ints, on every basis key and key pair of the parts it has."""
        keys = self.keys
        pairs = [(a, b) for a in keys for b in keys] if self._mult is not None else ()
        return IntegerView(self, keys, pairs, keys if self._comult is not None else (),
                           keys if self._counit is not None else (),
                           keys if self._antipode is not None else ())


class IntegerView(BasisView):
    """The tables of a field-valued basis view as Python ints, for the axiom sweeps.

    The sweeps run over ``keys``.  The tables are read once from ``source``,
    on the keys given: products on the key pairs ``products``, coproducts on
    ``coproducts``, the counit on ``counits`` and antipodes on ``antipodes``;
    a read outside them raises KeyError.  Over QQ every entry, and the unit,
    is multiplied by one integer D, the lcm of all their denominators; over
    GF(p) the tables hold the residues, D = 1, and sides are compared mod p.
    A basis vector {k: 1} is not scaled.  A value a sweep computes is D^w
    times its field value, w (its weight) being the number of table entries
    in each of its terms, and :meth:`agree` compares two sides of an axiom
    through their weights.  Only a failing side goes back to field scalars,
    to be formatted with the source's labels and witnesses.
    """

    def __init__(self, source, keys, products, coproducts, counits, antipodes):
        super().__init__(source.field, keys, None)
        self._source = source
        products = {ab: source.product(*ab) for ab in products}
        coproducts = {k: source.coproduct(k) for k in coproducts}
        antipodes = {k: source.antipode(k) for k in antipodes}
        counit = {k: source.counit(k) for k in counits}
        unit = source.unit or {}
        tables = [*products.values(), *coproducts.values(), *antipodes.values(), counit, unit]
        self.modulus = self.field.order
        if self.modulus is None:
            self.scale = D = math.lcm(*(c.denominator for t in tables for c in t.values()))
            ints = lambda t: {k: c.numerator * (D // c.denominator) for k, c in t.items()}
        else:
            ints = lambda t: {k: c.v for k, c in t.items()}
        self.zero, self.one = 0, 1
        self.unit = None if source.unit is None else ints(unit)
        self._products = {ab: ints(v) for ab, v in products.items()}
        self._coproducts = {k: ints(t) for k, t in coproducts.items()}
        self._antipodes = {k: ints(v) for k, v in antipodes.items()}
        self._counit = ints(counit)

    def product(self, a, b):
        return self._products[a, b]

    def coproduct(self, k):
        return self._coproducts[k]

    def counit(self, k):
        return self._counit[k]

    def antipode(self, k):
        return self._antipodes[k]

    def label(self, k):
        return self._source.label(k)

    def witness(self, keys):
        return self._source.witness(keys)

    def to_field(self, c, w):
        return self.field(c) if self.modulus else Fraction(c, self.scale ** w)


def _check(report, axiom, lhs, rhs, view, keys, weights, fmt=str):
    """Record lhs == rhs at the basis keys ``keys``, the sides of the given
    weights (see :meth:`BasisView.agree`); formats only failures."""
    if view.agree(lhs, rhs, weights):
        report.record(axiom, True)
    else:
        report.record(axiom, False, view.witness(keys), fmt(view.field_side(lhs, weights[0])),
                      fmt(view.field_side(rhs, weights[1])))


def sweep_unital(view, report):
    """1 k = k = k 1 for every sweep key k; witnesses (k, "left"|"right")."""
    one, unit, mul, fmt = view.one, view.unit, view.multiply, view.formatter(1)
    for k in view.keys:
        bk = {k: one}
        _check(report, "unital", mul(unit, bk), bk, view, (k, "left"), (2, 0), fmt)
        _check(report, "unital", mul(bk, unit), bk, view, (k, "right"), (2, 0), fmt)


def sweep_associative(view, report):
    """(ab)c = a(bc) on all key triples, both sides summed from the structure constants.

    Both sides of a row (a, b, .) are one dict keyed (c, r), summed from the
    nonzero products b_a b_c tabled once per sweep, and compared at once; a
    row that differs is checked again c by c.
    """
    zero, keys, agree, fmt = view.zero, view.keys, view.agree, view.formatter(1)
    rows = {a: {c: p.items() for c in keys if (p := view.product(a, c))} for a in keys}
    for a in keys:
        row_a = rows[a]
        for b in keys:
            lhs, rhs = {}, {}
            for k, x in row_a.get(b, ()):
                for c, kc in rows[k].items():
                    for r, y in kc:
                        lhs[c, r] = lhs.get((c, r), zero) + x * y
            for c, bc in rows[b].items():
                for k, x in bc:
                    for r, y in row_a.get(k, ()):
                        rhs[c, r] = rhs.get((c, r), zero) + x * y
            if agree(lhs, rhs, (2, 2)):
                report.record_passes("associative", len(keys))
                continue
            lhs, rhs = _split_row(lhs), _split_row(rhs)
            for c in keys:
                _check(report, "associative", lhs.get(c, _EMPTY), rhs.get(c, _EMPTY), view,
                       (a, b, c), (2, 2), fmt)


def sweep_coproduct_multiplicative(view, report):
    """Delta(ab) = Delta(a) Delta(b) on all pairs of sweep keys."""
    fmt = view.formatter(2)
    for a in view.keys:
        da = view.coproduct(a)
        for b in view.keys:
            lhs = view.comultiply(view.product(a, b))
            rhs = view.tensor_mul(da, view.coproduct(b))
            _check(report, "coproduct_multiplicative", lhs, rhs, view, (a, b), (2, 4), fmt)


def sweep_coassociative(view, report, axiom):
    """(Delta (x) id)Delta(k) = (id (x) Delta)Delta(k); the axiom name is the caller's."""
    fmt = view.formatter(3)
    for k in view.keys:
        dk = view.coproduct(k)
        _check(report, axiom, view.comultiply_leg(dk, 0), view.comultiply_leg(dk, 1),
               view, (k,), (2, 2), fmt)


def sweep_counit_neutral(view, report, side):
    """(eps (x) id)Delta(k) = k for side "left", (id (x) eps)Delta(k) = k for "right"."""
    zero, fmt = view.zero, view.formatter(1)
    for k in view.keys:
        out = {}
        for pair, c in view.coproduct(k).items():
            dropped, kept = pair if side == "left" else pair[::-1]
            e = view.counit(dropped)
            if e:
                out[kept] = out.get(kept, zero) + c * e
        _check(report, f"counit_{side}_neutral", out, {k: view.one}, view, (k,), (2, 0), fmt)


def sweep_counit_weak_multiplicative(view, report):
    """eps(fmh) = eps(f m_1) eps(m_2 h) = eps(f m_2) eps(m_1 h) on all key triples.

    For fixed (f, m) all three sides are rows over h, summed from the cached
    rows eps(a .) instead of one scalar sum per triple, and compared at once;
    a row that differs is checked again h by h.
    """
    zero, keys, row, eps, agree = view.zero, view.keys, view.eps_row, view.eps_pair, view.agree
    axiom, weights = "counit_weak_multiplicative", (3, 5)
    for f in keys:
        for m in keys:
            lhs, rhs1, rhs2 = {}, {}, {}
            for k, c in view.product(f, m).items():
                _axpy(lhs, c, row(k), zero)
            for (i, j), c in view.coproduct(m).items():
                e = eps(f, i)
                if e:
                    _axpy(rhs1, c * e, row(j), zero)
                e = eps(f, j)
                if e:
                    _axpy(rhs2, c * e, row(i), zero)
            if agree(lhs, rhs1, weights) and (rhs2 == rhs1 or agree(lhs, rhs2, weights)):
                report.record_passes(axiom, 2 * len(keys))
                continue
            for h in keys:
                value = lhs.get(h, zero)
                _check(report, axiom, value, rhs1.get(h, zero), view, (f, m, h), weights)
                _check(report, axiom, value, rhs2.get(h, zero), view, (f, m, h), weights)


def sweep_unit_compatibility(view, report):
    """(Delta (x) id)Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1)), and in the other order.

    The products run over pairs of terms of Delta(1), with 1 kept whole as
    an element: exact by bilinearity, and nothing is assumed of the unit.
    The terms are indexed by each leg, so only the pairs whose middle
    product (b c on the left, a d on the right) is nonzero are visited.
    """
    zero, one, unit, mul, product = view.zero, view.one, view.unit, view.multiply, view.product
    d1 = view.delta_one()
    lhs = view.comultiply_leg(d1, 0)
    times_unit = {k: mul({k: one}, unit) for pair in d1 for k in pair}
    unit_times = {k: mul(unit, {k: one}) for pair in d1 for k in pair}
    by_leg = ({}, {})  # by_leg[i][k]: the (other leg, scalar) of the terms with leg i = k
    for (a, b), x in d1.items():
        by_leg[0].setdefault(a, []).append((b, x))
        by_leg[1].setdefault(b, []).append((a, x))
    fmt = view.formatter(3)
    for side in ("left", "right"):
        out = {}
        # left: (a (x) b (x) 1)(1 (x) c (x) d), meeting at b c; right:
        # (1 (x) a (x) b)(c (x) d (x) 1), meeting at a d
        first, second = (by_leg[1], by_leg[0]) if side == "left" else (by_leg[0], by_leg[1])
        for m1, terms1 in first.items():
            for m2, terms2 in second.items():
                middle = product(m1, m2)
                if not middle:
                    continue
                for o1, x in terms1:
                    for o2, y in terms2:
                        if side == "left":
                            legs = (times_unit[o1], middle, unit_times[o2])
                        else:
                            legs = (unit_times[o2], middle, times_unit[o1])
                        if legs[0] and legs[2]:
                            _add_pure(out, x * y, legs, zero)
        ok = view.agree(lhs, out, (3, 9))
        report.record("coproduct_unit_compatibility", ok, (side,),
                      None if ok else fmt(view.field_side(lhs, 3)),
                      None if ok else fmt(view.field_side(out, 9)))


def sweep_antipode(view, report):
    """k_1 S(k_2) = eps_t(k), S(k_1) k_2 = eps_s(k), S(k_1) k_2 S(k_3) = S(k)."""
    zero, one, S, mul = view.zero, view.one, view.antipode, view.multiply
    fmt = view.formatter(1)
    for k in view.keys:
        dk = view.coproduct(k)
        left, right, sandwich = {}, {}, {}
        for (i, j), c in dk.items():
            _axpy(left, c, mul({i: one}, S(j)), zero)
            _axpy(right, c, mul(S(i), {j: one}), zero)
        for (a, b, d), c in view.comultiply_leg(dk, 0).items():
            _axpy(sandwich, c, mul(mul(S(a), {b: one}), S(d)), zero)
        _check(report, "antipode_vs_target_counital", left,
               view.counital({k: one}, 0, False), view, (k,), (3, 4), fmt)
        _check(report, "antipode_vs_source_counital", right,
               view.counital({k: one}, 1, True), view, (k,), (3, 4), fmt)
        _check(report, "antipode_composition", sandwich, S(k), view, (k,), (6, 1), fmt)


class WeakBialgebra:
    """Algebra + coalgebra on the same basis satisfying the weak bialgebra axioms.

    Construction validates the axioms exhaustively (and that the four
    counital maps are idempotent projections); pass ``validate=False`` only
    to build deliberately broken instances for diagnosis.
    """

    def __init__(self, algebra: Algebra, coalgebra: Coalgebra, validate=True):
        if algebra.field != coalgebra.field:
            raise FieldMismatch("algebra and coalgebra over different fields")
        if algebra.dim != coalgebra.dim:
            raise DimensionMismatch("algebra and coalgebra dimensions differ")
        self.algebra = algebra
        self.coalgebra = coalgebra
        self._counital_matrices = None
        self._view = None
        self._integer_view = None
        if validate:
            report = check_weak_bialgebra(self)
            if not report.passed:
                raise AxiomFailure("weak bialgebra", report)
            for name, m in zip(("eps_t", "eps_s", "eps_t_prime", "eps_s_prime"),
                               self.counital_matrices()):
                if m * m != m:
                    raise ValidationError(f"counital map {name} is not idempotent")

    # -- basic access -------------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @property
    def unit(self):
        return self.algebra.unit

    def basis_vector(self, i):
        return self.algebra.basis_vector(i)

    def multiply(self, u, v):
        return self.view.multiply(u, v)

    @property
    def counit(self):
        return self.coalgebra.counit

    @property
    def view(self) -> ConstantsView:
        """The basis view the axiom sweeps and the counital maps work on."""
        if self._view is None:
            antipode = getattr(self, "antipode", None)
            self._view = ConstantsView(self.algebra, self.coalgebra, antipode)
        return self._view

    @property
    def integer_view(self) -> IntegerView:
        """The integer view check_weak_bialgebra and check_antipode sweep."""
        if self._integer_view is None:
            view = self.view
            self._integer_view = view.integer_view()
        return self._integer_view

    def format_element(self, v):
        return self.algebra.format_element(v)

    # -- counital maps -------------------------------------------------

    def eps_t(self, r: dict) -> dict:
        """eps_t(r) = eps(1_1 r) 1_2."""
        return self.view.counital(r, 0, False)

    def eps_s(self, r: dict) -> dict:
        """eps_s(r) = eps(r 1_2) 1_1."""
        return self.view.counital(r, 1, True)

    def eps_t_prime(self, r: dict) -> dict:
        """eps_t'(r) = eps(r 1_1) 1_2."""
        return self.view.counital(r, 0, True)

    def eps_s_prime(self, r: dict) -> dict:
        """eps_s'(r) = eps(1_2 r) 1_1."""
        return self.view.counital(r, 1, False)

    def counital_matrices(self):
        """Matrices of (eps_t, eps_s, eps_t', eps_s') on the basis."""
        if self._counital_matrices is None:
            maps = (self.eps_t, self.eps_s, self.eps_t_prime, self.eps_s_prime)
            self._counital_matrices = tuple(
                Matrix.from_columns(self.field, self.dim,
                                    [f(self.basis_vector(k)) for k in range(self.dim)])
                for f in maps)
        return self._counital_matrices


class WeakHopfAlgebra(WeakBialgebra):
    """Weak bialgebra with an antipode matrix satisfying the three antipode axioms."""

    def __init__(self, algebra, coalgebra, antipode: Matrix, validate=True):
        if antipode.rows != algebra.dim or antipode.cols != algebra.dim:
            raise DimensionMismatch("antipode matrix has wrong shape")
        self.antipode = antipode  # set before the basis view reads it
        super().__init__(algebra, coalgebra, validate=validate)
        if validate:
            report = check_antipode(self)
            if not report.passed:
                raise AxiomFailure("antipode", report)


def check_weak_bialgebra(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive weak-bialgebra axiom sweep.

    Checks comultiplication multiplicativity on all basis pairs, the unit
    coproduct compatibility identity, and weak multiplicativity of the
    counit on all basis triples (both bracketings).
    """
    report, view = AxiomReport(), wb.integer_view
    sweep_coproduct_multiplicative(view, report)
    sweep_unit_compatibility(view, report)
    sweep_counit_weak_multiplicative(view, report)
    return report


def check_antipode(wha: WeakHopfAlgebra) -> AxiomReport:
    """Check the three antipode axioms on every basis element."""
    report = AxiomReport()
    sweep_antipode(wha.integer_view, report)
    return report


def base_subalgebras(wb: WeakBialgebra):
    """Bases of R_t = Im(eps_t) and R_s = Im(eps_s), membership re-verified.

    Each returned element a additionally satisfies the coproduct
    characterization (Delta(a) = 1_1 a (x) 1_2 for R_t, Delta(a) = 1_1 (x) a 1_2
    for R_s); a violation raises, since it would mean a broken instance.
    """
    m_t, m_s = wb.counital_matrices()[:2]
    basis_t = column_space_basis(m_t)
    basis_s = column_space_basis(m_s)
    view = wb.view
    d1, one = view.delta_one(), view.unit
    for a in basis_t:
        if view.comultiply(a) != view.tensor_mul(d1, view.pure(a, one)):
            raise ValidationError(f"R_t member fails coproduct characterization: {wb.format_element(a)}")
    for a in basis_s:
        if view.comultiply(a) != view.tensor_mul(view.pure(one, a), d1):
            raise ValidationError(f"R_s member fails coproduct characterization: {wb.format_element(a)}")
    return basis_t, basis_s


def convolution(f: dict, g: dict, wb: WeakBialgebra) -> dict:
    """Convolution product of functionals: (f*g)(b) = f(b_1) g(b_2)."""
    zero = wb.field.zero()
    out = {}
    for k in range(wb.dim):
        acc = zero
        for (i, j), c in wb.view.coproduct(k).items():
            fi = f.get(i)
            gj = g.get(j)
            if fi and gj:
                acc = acc + c * fi * gj
        if acc:
            out[k] = acc
    return out
