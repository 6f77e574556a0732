"""Finite-dimensional weak bialgebras and weak Hopf algebras.

R = (R, m, 1, Delta, eps) is one :class:`WeakBialgebra`: basis-indexed
structure constants over an exact field, and its own basis view over the
keys range(dim).  An element of R, or a functional on R, is a dict
index -> nonzero scalar:

* multiplication:   mult[(i,j)] is b_i * b_j as such a dict,
* comultiplication: comult[k] is Delta(b_k) as a dict (i, j) -> scalar,
* unit and counit:  unit and counit_vector, dicts index -> scalar.

The constructor drops zero coefficients, checks every index against the
dimension and passes every scalar through :meth:`Field.coerce`, so elements
can be compared with ``==``.

Axiom sweeps are exhaustive over basis tuples, never sampled, and results
are collected in an :class:`~weakhopf.report.AxiomReport`.  All instances
are immutable after construction.

The sweeps run on an :class:`IntegerView`: the tables of a field-valued
basis view on the keys the sweeps reach (products, unit, coproducts,
counit, antipode), held as ints at one scale D by :meth:`Field.to_ints`
and compared mod p over GF(p).  A value a sweep sums is
then D^w times its field value, where the weight w is the number of table
entries in each of its terms, and the side of lower weight is lifted by
D^(difference) before two sides are compared.  The weights (lhs/rhs) are:
associative and coassociative 2/2; unital and counit_*_neutral 2/0;
coproduct_multiplicative 2/4; counit_weak_multiplicative 3/5;
coproduct_unit_compatibility 3/9; antipode_vs_*_counital 3/4;
antipode_composition 6/1.  Only a failing side is read back, as the
field's quotient of v by D^w, to be formatted, so
witnesses and sides read as they do on field scalars.

The sweeps of R (:func:`algebra_report`, :func:`coalgebra_report`,
:func:`check_weak_bialgebra`, :func:`check_antipode`) read R's structure
constants on every basis key and key pair, read once into
:attr:`WeakBialgebra.integer_view`.  The Ore layer's ``verify_extension``
reads H = R[x; sigma, delta] at a degree bound B over the monomials:
products on (degree <= L) x (degree <= B) with L = max(2B, B + 1),
coproducts on degree <= 2B, the counit on degree <= L + B and antipodes on
degree <= B, since the sweeps reach degree 2B through f m in ``eps_row``,
through Delta(ab) and through the antipode sandwich S(a) b S(d), and degree
B + 1 through the x-sandwich eps((a x) h); a read outside the tables
raises.  ore.py builds those tables on ints, from R's integer view.  R
itself keeps field scalars for every other caller.
"""

from __future__ import annotations

from .errors import (AxiomFailure, CounitFails, DimensionMismatch, NotAssociative,
                     NotCoassociative, UnitFails, ValidationError)
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


class IntegerView(BasisView):
    """The tables of a field-valued basis view as Python ints, for the axiom sweeps.

    The sweeps run over ``keys``, and ``source`` labels keys and witnesses.
    The tables are given as ints, on the keys the sweeps read: ``products``
    keyed by key pairs, ``coproducts``, ``counit`` and ``antipodes`` keyed by
    keys; a read outside them raises KeyError.  Every entry, and the unit, is
    held at one ``scale`` D as :meth:`Field.to_ints` holds it, and over
    GF(p) sides are compared mod p.  A basis vector {k: 1} is not scaled.
    A value a sweep computes is D^w times its field value, w (its weight)
    being the number of table entries in each of its terms, and
    :meth:`agree` compares two sides of an axiom through their weights.
    Only a failing side goes back to field scalars, to be formatted with the
    source's labels and witnesses.  :attr:`WeakBialgebra.integer_view` and
    ``OreAlgebra.integer_view`` build the tables.
    """

    def __init__(self, source, keys, scale, unit, products, coproducts, counit, antipodes):
        super().__init__(source.field, keys, unit)
        self._source = source
        self.scale, self.modulus = scale, self.field.p
        self.zero, self.one = 0, 1
        self._products, self._coproducts = products, coproducts
        self._counit, self._antipodes = counit, antipodes

    def rescaled(self, E):
        """This view with every table multiplied by E // D, E a multiple of D."""
        f = E // self.scale
        if f == 1:
            return self
        lift = lambda t: {k: c * f for k, c in t.items()}
        return IntegerView(self._source, self.keys, E, lift(self.unit),
                           {ab: lift(v) for ab, v in self._products.items()},
                           {k: lift(t) for k, t in self._coproducts.items()},
                           lift(self._counit), {k: lift(v) for k, v in self._antipodes.items()})

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
        field, scale = self.field, self.scale ** w
        return field(c) if scale == 1 else field(c) / field(scale)


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


class WeakBialgebra(BasisView):
    """R = (R, m, 1, Delta, eps) on the basis range(dim), as its own basis view.

    ``mult[(i, j)]`` is b_i b_j, ``unit`` is 1, ``comult[k]`` is Delta(b_k)
    and ``counit_vector`` is eps, as element and 2-tensor dicts; the view's
    ``counit(k)`` reads eps(b_k).  The constructor range-checks and coerces
    every table, then validates the algebra, the coalgebra, the weak
    bialgebra axioms, that the four counital maps are idempotent and the
    antipode, if any, in that order, raising on the first failure; every
    sweep runs on one :attr:`integer_view`.  Pass ``validate=False`` only
    to build deliberately broken instances for diagnosis.
    """

    antipode_matrix = None

    def __init__(self, field, dim, mult, unit, comult, counit, labels=None, validate=True):
        if dim < 1:
            raise ValidationError("algebra dimension must be at least 1")
        self.labels = tuple(labels) if labels else tuple(f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise ValidationError("label count does not match dimension")
        self.dim = dim
        self.mult = {ij: d for ij, vec in mult.items()
                     if (d := _element(field, dim, vec, ij, "mult"))}
        unit = _element(field, dim, unit, (), "unit")
        self.comult = {k: d for k, t in comult.items()
                       if (d := _element(field, dim, t, (k,), "comult", pairs=True))}
        self.counit_vector = _element(field, dim, counit, (), "counit")
        super().__init__(field, range(dim), unit)
        self._counital_matrices = None
        self._base_subalgebras = None
        self._integer_view = None
        if not validate:
            return
        report = algebra_report(self)
        if not report.passed:
            fail = report.failures()[0]
            if fail.axiom == "associative":
                raise NotAssociative(*fail.witness, fail.lhs, fail.rhs)
            raise UnitFails(fail.witness[0], fail.witness[1], fail.lhs)
        report = coalgebra_report(self)
        if not report.passed:
            fail = report.failures()[0]
            if fail.axiom == "coassociative":
                raise NotCoassociative(fail.witness[0])
            raise CounitFails(fail.witness[0], fail.axiom)
        report = check_weak_bialgebra(self)
        if not report.passed:
            raise AxiomFailure("weak bialgebra", report)
        for name, m in zip(("eps_t", "eps_s", "eps_t_prime", "eps_s_prime"),
                           self.counital_matrices()):
            if m * m != m:
                raise ValidationError(f"counital map {name} is not idempotent")
        if self.antipode_matrix is not None:
            report = check_antipode(self)
            if not report.passed:
                raise AxiomFailure("antipode", report)

    # -- the basis view ------------------------------------------------

    def product(self, a, b):
        return self.mult.get((a, b), _EMPTY)

    def coproduct(self, k):
        return self.comult.get(k, _EMPTY)

    def counit(self, k):
        return self.counit_vector.get(k, self.zero)

    def label(self, k):
        return self.labels[k]

    def witness(self, keys):
        return keys

    @property
    def integer_view(self) -> IntegerView:
        """R's tables as ints on every key and key pair, built once for every sweep of R,
        all at one scale D by :meth:`Field.to_ints`."""
        if self._integer_view is None:
            keys = self.keys
            pairs = [(a, b) for a in keys for b in keys]
            anti = keys if self.antipode_matrix is not None else ()
            D, (unit, counit, *tables) = self.field.to_ints(
                [self.unit, self.counit_vector, *(self.product(a, b) for a, b in pairs),
                 *map(self.coproduct, keys), *(self.antipode(k) for k in anti)])
            n, dim = len(pairs), len(keys)
            self._integer_view = IntegerView(
                self, keys, D, unit, dict(zip(pairs, tables)), dict(zip(keys, tables[n:])),
                {k: counit.get(k, 0) for k in keys}, dict(zip(anti, tables[n + dim:])))
        return self._integer_view

    def basis_vector(self, i):
        return {i: self.one}

    def format_element(self, v: dict) -> str:
        return _format_terms(self.label, sorted(v.items()))

    def left_mult_matrix(self, a: dict) -> Matrix:
        """The matrix of r -> a r."""
        return self._mult_matrix(a, lambda i, k: (i, k))

    def right_mult_matrix(self, a: dict) -> Matrix:
        """The matrix of r -> r a."""
        return self._mult_matrix(a, lambda i, k: (k, i))

    def _mult_matrix(self, a, pair):
        zero, data = self.zero, {}
        for i, c in a.items():
            for k in self.keys:
                for r, x in self.mult.get(pair(i, k), _EMPTY).items():
                    data[(r, k)] = data.get((r, k), zero) + c * x
        return Matrix(self.field, self.dim, self.dim, data)

    # -- counital maps -------------------------------------------------

    def eps_t(self, r: dict) -> dict:
        """eps_t(r) = eps(1_1 r) 1_2."""
        return self.counital(r, 0, False)

    def eps_s(self, r: dict) -> dict:
        """eps_s(r) = eps(r 1_2) 1_1."""
        return self.counital(r, 1, True)

    def eps_t_prime(self, r: dict) -> dict:
        """eps_t'(r) = eps(r 1_1) 1_2."""
        return self.counital(r, 0, True)

    def eps_s_prime(self, r: dict) -> dict:
        """eps_s'(r) = eps(1_2 r) 1_1."""
        return self.counital(r, 1, False)

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
    """A weak bialgebra with an antipode satisfying the three antipode axioms.

    ``antipode_matrix`` is S; the view's ``antipode(k)`` is its column k.
    Its shape is checked before anything reads it.
    """

    def __init__(self, field, dim, mult, unit, comult, counit, antipode: Matrix, labels=None,
                 validate=True):
        if antipode.rows != dim or antipode.cols != dim:
            raise DimensionMismatch("antipode matrix has wrong shape")
        self.antipode_matrix = antipode
        super().__init__(field, dim, mult, unit, comult, counit, labels, validate)

    def antipode(self, k):
        return self.antipode_matrix.column_dicts()[k]


def algebra_report(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive unit and associativity checks of R."""
    report, view = AxiomReport(), wb.integer_view
    sweep_unital(view, report)
    sweep_associative(view, report)
    return report


def coalgebra_report(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive coassociativity and counit checks of R."""
    report, view = AxiomReport(), wb.integer_view
    sweep_coassociative(view, report, "coassociative")
    sweep_counit_neutral(view, report, "left")
    sweep_counit_neutral(view, report, "right")
    return report


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
    """Bases of R_t = Im(eps_t) and R_s = Im(eps_s), membership re-verified;
    computed once per R and cached on it, like its counital matrices.

    Each returned element a additionally satisfies the coproduct
    characterization (Delta(a) = 1_1 a (x) 1_2 for R_t, Delta(a) = 1_1 (x) a 1_2
    for R_s); a violation raises, since it would mean a broken instance.
    """
    if wb._base_subalgebras is None:
        m_t, m_s = wb.counital_matrices()[:2]
        basis_t = column_space_basis(m_t)
        basis_s = column_space_basis(m_s)
        d1, one = wb.delta_one(), wb.unit
        for a in basis_t:
            if wb.comultiply(a) != wb.tensor_mul(d1, wb.pure(a, one)):
                raise ValidationError(
                    f"R_t member fails coproduct characterization: {wb.format_element(a)}")
        for a in basis_s:
            if wb.comultiply(a) != wb.tensor_mul(wb.pure(one, a), d1):
                raise ValidationError(
                    f"R_s member fails coproduct characterization: {wb.format_element(a)}")
        wb._base_subalgebras = basis_t, basis_s
    return wb._base_subalgebras


def convolution(f: dict, g: dict, wb: WeakBialgebra) -> dict:
    """Convolution product of functionals: (f*g)(b) = f(b_1) g(b_2)."""
    zero = wb.field.zero()
    out = {}
    for k in range(wb.dim):
        acc = zero
        for (i, j), c in wb.coproduct(k).items():
            fi = f.get(i)
            gj = g.get(j)
            if fi and gj:
                acc = acc + c * fi * gj
        if acc:
            out[k] = acc
    return out
