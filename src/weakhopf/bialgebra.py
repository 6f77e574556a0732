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
basis view, R's converted once and H's read on demand, held as ints at one
scale D by :meth:`Field.to_ints` (an H that is not integral: its own exact
scalars at D = 1) and compared mod p over GF(p).  A value a sweep sums is
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
:attr:`WeakBialgebra.integer_view`, and each sweep's report is kept on R
(:meth:`WeakBialgebra.swept`), so validating R and every later reader
share one run.  Associativity, and Delta(ab) = Delta(a) Delta(b) on an
associative R, are decided on the left factors of a generating set of R
(:func:`_decided`) and swept over the others only where that sweep fails.
The Ore layer's ``verify_extension`` reads
H = R[x; sigma, delta] over the monomials of degree <= B through
``OreAlgebra.integer_view``, whose every read goes to H's cached tables,
so only the entries the sweeps that run read are computed.
R itself keeps field scalars for every other caller.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (AxiomFailure, CounitFails, DimensionMismatch, NotAssociative,
                     NotCoassociative, UnitFails, ValidationError)
from .linalg import Matrix, column_space_basis, generating_keys, pivot_columns
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


class _OnDemand(dict):
    """A table of what its owner derives (H's tables, R's sweep reports, clause results):
    each missing entry is built once by ``build(key)`` and kept, then a dict lookup."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


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
    set by :class:`IntegerView`, as is ``ints``, true when the entries are ints.
    """

    scale = 1
    modulus = None
    ints = False

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

    def product_rows(self):
        """{a: {c: the items of b_a b_c}} for every sweep key a, over the sweep keys c
        with a nonzero product."""
        keys = self.keys
        return {a: {c: p.items() for c in keys if (p := self.product(a, c))} for a in keys}

    def delta_one(self):
        if self._delta_one is None:
            self._delta_one = self.comultiply(self.unit)
        return self._delta_one

    def eps_pair(self, a, b):
        """eps(ab) for basis keys a, b (cached), a residue on a view with a ``modulus``."""
        hit = self._eps.get((a, b))
        if hit is None:
            hit = self.zero
            for k, c in self.product(a, b).items():
                e = self.counit(k)
                if e:
                    hit = hit + c * e
            if self.modulus:
                hit %= self.modulus
            self._eps[(a, b)] = hit
        return hit

    def eps_row(self, a):
        """{h: eps(a h)} over the sweep keys h, zeros (mod p over GF(p)) dropped (cached)."""
        hit = self._eps_rows.get(a)
        if hit is None:
            hit = {h: e for h in self.keys if (e := self.eps_pair(a, h))}
            self._eps_rows[a] = hit
        return hit

    def contract(self, t, f, leg):
        """The 2-tensor t read through the functional f on one leg: the element
        sum c f(pair[leg]) pair[1 - leg] over the terms c pair of t.  f maps a
        key to a scalar (None reads as 0, so a functional's ``get`` serves)."""
        zero, out = self.zero, {}
        for pair, c in t.items():
            e = f(pair[leg])
            if e:
                kept = pair[1 - leg]
                out[kept] = out.get(kept, zero) + c * e
        return _nonzero(out)

    def counital(self, r, leg, r_first):
        """The counital maps: Delta(1) = 1_(0) (x) 1_(1) contracted on its leg
        ``leg`` with a -> eps(r a) if r_first, else a -> eps(a r):
        eps_t = (0, False), eps_s = (1, True), eps_t' = (0, True),
        eps_s' = (1, False).
        """
        pair = self.eps_pair if r_first else lambda b, a: self.eps_pair(a, b)
        eps = lambda a: sum((x * pair(b, a) for b, x in r.items()), self.zero)
        return self.contract(self.delta_one(), eps, leg)

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
    """The tables of a field-valued basis view at one scale, for the axiom sweeps.

    The sweeps run over ``keys``, and ``source`` labels keys and witnesses.
    The tables are mappings: ``products`` keyed by key pairs, ``coproducts``,
    ``counit`` and ``antipodes`` keyed by keys.  R's view passes dicts
    converted once on every key, and H's view tables that read each entry on
    first use from the cached tables of H's int copy, or of H itself when H
    is not integral.  Every entry, and the unit, is held at one ``scale`` D
    as :meth:`Field.to_ints` holds it (D = 1 for H), except on an H that is
    not integral, whose entries are H's own exact Fractions at scale 1, not
    ints (``ints`` is then false); over GF(p) sides are compared mod p.  A
    basis vector {k: 1} is not scaled.  A value a sweep computes is D^w times
    its field value, w (its weight) being the number of table entries in each
    of its terms, and
    :meth:`agree` compares two sides of an axiom through their weights.
    Only a failing side goes back to field scalars, to be formatted with the
    source's labels and witnesses.  :attr:`WeakBialgebra.integer_view` and
    ``OreAlgebra.integer_view`` pass the tables.  :meth:`product_rows` is
    tabled once per view, for every sweep that reads it.
    """

    def __init__(self, source, keys, scale, unit, products, coproducts, counit, antipodes,
                 ints=True):
        super().__init__(source.field, keys, unit)
        self._source = source
        self.scale, self.modulus, self.ints = scale, self.field.p, ints
        self.zero, self.one = 0, 1
        self._products, self._coproducts = products, coproducts
        self._counit, self._antipodes = counit, antipodes
        self._product_rows = None

    def product_rows(self):
        if self._product_rows is None:
            self._product_rows = super().product_rows()
        return self._product_rows

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


def sweep_associative(view, report, lefts=None):
    """(ab)c = a(bc) on the key triples with a in ``lefts`` (default every sweep key),
    both sides summed from the structure constants.

    Both sides of a row (a, b, .) are one dict keyed (c, r), summed from the
    nonzero products b_a b_c (:meth:`BasisView.product_rows`, tabled once per
    integer view, so the sweeps over S and over the other keys share it), and
    compared at once; a row that differs is checked again c by c.
    """
    zero, keys, agree, fmt = view.zero, view.keys, view.agree, view.formatter(1)
    rows = view.product_rows()
    for a in keys if lefts is None else lefts:
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


def sweep_coproduct_multiplicative(view, report, lefts=None):
    """Delta(ab) = Delta(a) Delta(b) on the key pairs with a in ``lefts`` (default every
    sweep key)."""
    fmt = view.formatter(2)
    for a in view.keys if lefts is None else lefts:
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
    leg, fmt = 0 if side == "left" else 1, view.formatter(1)
    for k in view.keys:
        kept = view.contract(view.coproduct(k), view.counit, leg)
        _check(report, f"counit_{side}_neutral", kept, {k: view.one}, view, (k,), (2, 0), fmt)


def sweep_counit_weak_multiplicative(view, report):
    """eps(fmh) = eps(f m_1) eps(m_2 h) = eps(f m_2) eps(m_1 h) on all key triples.

    For fixed (f, m) all three sides are rows over h, summed from the cached
    rows eps(a .) instead of one scalar sum per triple.  Each side is a
    combination of the rows eps(k .) of the keys k in the products f m and in
    the legs of Delta(m), so it lies in their span V, as does its difference
    to another side, the lighter one lifted by a power of D; and the projection
    of V onto its pivot columns J (:func:`linalg.pivot_columns`) is injective.
    So two sides agree exactly where their entries on J do: they are summed and
    compared on J only, and a row that differs there is summed again in full
    and checked h by h.  The rows go to :func:`linalg.pivot_columns` as they
    are on a view of ints, and through :meth:`Field.to_ints` otherwise.
    """
    zero, keys, row, agree = view.zero, view.keys, view.eps_row, view.agree
    axiom, weights, passes = "counit_weak_multiplicative", (3, 5), 0

    def sides(f, m, rows):
        lhs, rhs1, rhs2 = {}, {}, {}
        for k, c in view.product(f, m).items():
            _axpy(lhs, c, rows(k), zero)
        eps_f = row(f)  # eps(f i), zeros dropped
        for (i, j), c in view.coproduct(m).items():
            if e := eps_f.get(i):
                _axpy(rhs1, c * e, rows(j), zero)
            if e := eps_f.get(j):
                _axpy(rhs2, c * e, rows(i), zero)
        return lhs, rhs1, rhs2

    read = {k for f in keys for m in keys for k in view.product(f, m)}
    read.update(k for m in keys for pair in view.coproduct(m) for k in pair)
    rows = [row(k) for k in read]
    if not view.ints:
        rows = view.field.to_ints(rows)[1]
    J = pivot_columns(rows, keys, view.field)
    projected = {k: {h: x for h, x in row(k).items() if h in J} for k in read}
    for f in keys:
        for m in keys:
            lhs, rhs1, rhs2 = sides(f, m, projected.__getitem__)
            if agree(lhs, rhs1, weights) and (rhs2 == rhs1 or agree(lhs, rhs2, weights)):
                passes += 2 * len(keys)
                continue
            lhs, rhs1, rhs2 = sides(f, m, row)
            for h in keys:
                value = lhs.get(h, zero)
                _check(report, axiom, value, rhs1.get(h, zero), view, (f, m, h), weights)
                _check(report, axiom, value, rhs2.get(h, zero), view, (f, m, h), weights)
    if passes:
        report.record_passes(axiom, passes)


def sweep_unit_compatibility(view, report):
    """(Delta (x) id)Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1)), and in the other order.

    With 1 kept whole as an element (exact by bilinearity, and nothing is
    assumed of the unit), the left product is the sum over pairs of terms
    x a (x) b and y c (x) d of Delta(1) of x y (a 1) (x) b c (x) (1 d), the
    right one of x y (1 c) (x) a d (x) (b 1).  Each side sums its outer legs
    once per middle key (sum x (a 1) per b and sum y (1 d) per c on the
    left, sum x (b 1) per a and sum y (1 c) per d on the right), then adds
    one pure tensor per nonzero middle product.
    """
    zero, one, unit, mul, product = view.zero, view.one, view.unit, view.multiply, view.product
    d1 = view.delta_one()
    lhs = view.comultiply_leg(d1, 0)
    legs = {k for pair in d1 for k in pair}
    times_unit = {k: mul({k: one}, unit) for k in legs}
    unit_times = {k: mul(unit, {k: one}) for k in legs}

    def outer(leg, images):
        """{m: sum x images[o]} over the terms x of Delta(1) whose leg ``leg`` is m,
        o being the other leg; zero sums dropped."""
        sums = {}
        for pair, x in d1.items():
            _axpy(sums.setdefault(pair[leg], {}), x, images[pair[1 - leg]], zero)
        return {m: s for m, v in sums.items() if (s := _nonzero(v))}

    fmt = view.formatter(3)
    # left: (a (x) b (x) 1)(1 (x) c (x) d), meeting at b c; right:
    # (1 (x) a (x) b)(c (x) d (x) 1), meeting at a d
    for side, first, second in (("left", outer(1, times_unit), outer(0, unit_times)),
                                ("right", outer(0, times_unit), outer(1, unit_times))):
        out = {}
        for m1, o1 in first.items():
            for m2, o2 in second.items():
                middle = product(m1, m2)
                if middle:
                    _add_pure(out, one, (o1, middle, o2) if side == "left" else (o2, middle, o1),
                              zero)
        ok = view.agree(lhs, out, (3, 9))
        report.record("coproduct_unit_compatibility", ok, (side,),
                      None if ok else fmt(view.field_side(lhs, 3)),
                      None if ok else fmt(view.field_side(out, 9)))


def sweep_antipode(view, report):
    """k_1 S(k_2) = eps_t(k), S(k_1) k_2 = eps_s(k), S(k_1) k_2 S(k_3) = S(k).

    The sandwich reads k_1 (x) k_2 (x) k_3 as (Delta (x) id)Delta(k), which
    the tables define as the sum of c Delta(i) (x) j over the terms c i (x) j
    of Delta(k); so it is the sum of c right(i) S(j), where right(i) =
    S(i_1) i_2 is the side of the source counital axiom at i, by
    distributivity the same ints as the sum over triples.  The right sides
    are built once per key, before the checks.
    """
    zero, one, S, mul = view.zero, view.one, view.antipode, view.multiply
    fmt = view.formatter(1)
    right = {}
    for k in view.keys:
        row = {}
        for (i, j), c in view.coproduct(k).items():
            _axpy(row, c, mul(S(i), {j: one}), zero)
        right[k] = _nonzero(row)
    for k in view.keys:
        left, sandwich = {}, {}
        for (i, j), c in view.coproduct(k).items():
            _axpy(left, c, mul({i: one}, S(j)), zero)
            _axpy(sandwich, c, mul(right[i], S(j)), zero)
        _check(report, "antipode_vs_target_counital", left,
               view.counital({k: one}, 0, False), view, (k,), (3, 4), fmt)
        _check(report, "antipode_vs_source_counital", right[k],
               view.counital({k: one}, 1, True), view, (k,), (3, 4), fmt)
        _check(report, "antipode_composition", sandwich, S(k), view, (k,), (6, 1), fmt)


class WeakBialgebra(BasisView):
    """R = (R, m, 1, Delta, eps) on the basis range(dim), as its own basis view.

    ``mult[(i, j)]`` is b_i b_j, ``unit`` is 1, ``comult[k]`` is Delta(b_k)
    and ``counit_vector`` is eps, as element and 2-tensor dicts; the view's
    ``counit(k)`` reads eps(b_k).  The constructor range-checks and coerces
    every table, then validates the algebra, the coalgebra, the weak
    bialgebra axioms and the antipode, if any, in that order, raising on the
    first failure; every sweep runs on one :attr:`integer_view`.  Pass
    ``validate=False`` only to build deliberately broken instances for diagnosis.
    R's own derived values are ``cached_property`` members and its sweep reports one
    :class:`_OnDemand` table, each built on first use and kept.

    The four counital maps of a validated R are then idempotent (Boehm, Nill and
    Szlachanyi, Weak Hopf algebras I, 1999): id (x) eps (x) id applied to the two
    unit compatibilities gives, by the counit axiom, Delta(1) = 1_1 (x) eps(1'_1 1_2) 1'_2
    and Delta(1) = 1_1 (x) eps(1_2 1'_1) 1'_2.  The first, read with eps(. x) on one
    leg or eps(x .) on the other, gives eps_t o eps_t = eps_t and eps_s o eps_s = eps_s;
    the second gives the same for eps_t' and eps_s'.
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
        self._sweeps = _OnDemand(self._sweep)
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

    @cached_property
    def integer_view(self) -> IntegerView:
        """R's tables as ints on every key and key pair, built once for every sweep of R,
        all at one scale D by :meth:`Field.to_ints`."""
        keys = self.keys
        pairs = [(a, b) for a in keys for b in keys]
        anti = keys if self.antipode_matrix is not None else ()
        D, (unit, counit, *tables) = self.field.to_ints(
            [self.unit, self.counit_vector, *(self.product(a, b) for a, b in pairs),
             *map(self.coproduct, keys), *(self.antipode(k) for k in anti)])
        n, dim = len(pairs), len(keys)
        return IntegerView(self, keys, D, unit, dict(zip(pairs, tables)),
                           dict(zip(keys, tables[n:])), {k: counit.get(k, 0) for k in keys},
                           dict(zip(anti, tables[n + dim:])))

    @cached_property
    def generators(self) -> tuple:
        """The greedy generating keys S of R (:func:`linalg.generating_keys`), found
        once on :attr:`integer_view`."""
        return generating_keys(self.dim, self.integer_view.product, self.field)

    @cached_property
    def cogenerators(self) -> tuple:
        """The greedy generating keys S* of the dual algebra R*, found once by
        :func:`linalg.generating_keys` on the coproducts of :attr:`integer_view`
        transposed: in the dual basis, phi_a phi_b is the sum of c phi_k over the
        terms c b_a (x) b_b of every Delta(b_k)."""
        products = {}
        for k in self.keys:
            for ab, c in self.integer_view.coproduct(k).items():
                products.setdefault(ab, {})[k] = c
        return generating_keys(self.dim, lambda a, b: products.get((a, b), _EMPTY), self.field)

    def swept(self, sweep, *args) -> AxiomReport:
        """The report of ``sweep(self.integer_view, report, *args)``, run on first use and
        kept in ``_sweeps`` (an :class:`_OnDemand` keyed by (sweep, args)): R is
        immutable, so its validation and every later reader (the report functions
        below, the certificates of ``ore.verify_extension``) share one run.
        Callers merge it into their own report and never modify it."""
        return self._sweeps[(sweep, args)]

    def _sweep(self, key):
        sweep, args = key
        report = AxiomReport()
        sweep(self.integer_view, report, *args)
        return report

    @cached_property
    def base_subalgebras(self) -> tuple:
        """Bases of R_t = Im(eps_t) and R_s = Im(eps_s), the column spaces of the
        matrices of eps_t and eps_s; each element a is checked, R_t first, against its
        coproduct characterization (Delta(a) = 1_1 a (x) 1_2 for R_t, Delta(a) =
        1_1 (x) a 1_2 for R_s), and a violation, a broken instance, raises."""
        basis_t, basis_s = (column_space_basis(Matrix.from_columns(
            self.field, self.dim, [f(self.basis_vector(k)) for k in self.keys]))
            for f in (self.eps_t, self.eps_s))
        d1, one = self.delta_one(), self.unit
        for a in basis_t:
            if self.comultiply(a) != self.tensor_mul(d1, self.pure(a, one)):
                raise ValidationError(
                    f"R_t member fails coproduct characterization: {self.format_element(a)}")
        for a in basis_s:
            if self.comultiply(a) != self.tensor_mul(self.pure(one, a), d1):
                raise ValidationError(
                    f"R_s member fails coproduct characterization: {self.format_element(a)}")
        return basis_t, basis_s

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


def _decided(wb, sweep, axiom, checks):
    """R's report of ``sweep`` over every left key, as a new report of its ``checks``
    checks of ``axiom``, decided on the left keys S = :attr:`WeakBialgebra.generators`
    when S is not every key.

    ``sweep(view, report, lefts)`` checks the axiom at the tuples whose first key is
    in ``lefts``.  Where it passes on S, the lemma below says the axiom holds at
    every tuple, and the report records its ``checks`` passes; otherwise the sweep
    over the other keys runs too, and the report holds both runs, as the sweep over
    every key would.  Each lemma shows that the left factors at which the axiom
    holds for all other arguments form a subspace closed under products, so one
    that holds S holds every right-nested word s_1 (s_2 (... s_k)) over S, and
    these span R (:func:`linalg.generating_keys`).

    L1 (associativity).  If s and t are in N = {a : (ab)c = a(bc) for all b, c},
    then (st)b = s(tb), so ((st)b)c = (s(tb))c = s((tb)c) = s(t(bc)) = (st)(bc).

    L2 (Delta(ab) = Delta(a) Delta(b), on an associative R).  If s and t are in
    M = {a : Delta(ab) = Delta(a) Delta(b) for all b}, then
    Delta((st)b) = Delta(s(tb)) = Delta(s) Delta(t) Delta(b) = Delta(st) Delta(b),
    R (x) R being associative with R.
    """
    S = wb.generators
    if len(S) == wb.dim:
        return AxiomReport().merge(wb.swept(sweep))
    head = wb.swept(sweep, S)
    if not head.passed:
        return AxiomReport().merge(head, wb.swept(sweep, tuple(k for k in wb.keys if k not in S)))
    return AxiomReport().record_passes(axiom, checks)


def algebra_report(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive unit and associativity checks of R, associativity decided on S (L1)."""
    return AxiomReport().merge(wb.swept(sweep_unital),
                               _decided(wb, sweep_associative, "associative", wb.dim ** 3))


def coalgebra_report(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive coassociativity and counit checks of R."""
    return AxiomReport().merge(wb.swept(sweep_coassociative, "coassociative"),
                               wb.swept(sweep_counit_neutral, "left"),
                               wb.swept(sweep_counit_neutral, "right"))


def coproduct_multiplicative_report(wb: WeakBialgebra) -> AxiomReport:
    """Delta(ab) = Delta(a) Delta(b) on all basis pairs of R, as a new report: decided on
    S (L2 of :func:`_decided`) when R is associative, else swept over every pair."""
    if _decided(wb, sweep_associative, "associative", wb.dim ** 3).passed:
        return _decided(wb, sweep_coproduct_multiplicative, "coproduct_multiplicative",
                        wb.dim ** 2)
    return AxiomReport().merge(wb.swept(sweep_coproduct_multiplicative))


def check_weak_bialgebra(wb: WeakBialgebra) -> AxiomReport:
    """Exhaustive weak-bialgebra axiom sweep.

    Checks comultiplication multiplicativity on all basis pairs
    (:func:`coproduct_multiplicative_report`), the unit coproduct
    compatibility identity, and weak multiplicativity of the counit on all
    basis triples (both bracketings).
    """
    return AxiomReport().merge(coproduct_multiplicative_report(wb),
                               wb.swept(sweep_unit_compatibility),
                               wb.swept(sweep_counit_weak_multiplicative))


def check_antipode(wha: WeakHopfAlgebra) -> AxiomReport:
    """Check the three antipode axioms on every basis element."""
    return AxiomReport().merge(wha.swept(sweep_antipode))


def base_subalgebras(wb: WeakBialgebra):
    """Bases of R_t and R_s, verified once per R: :attr:`WeakBialgebra.base_subalgebras`."""
    return wb.base_subalgebras


def convolution(f: dict, g: dict, wb: WeakBialgebra) -> dict:
    """Convolution product of functionals: (f*g)(b) = f(b_1) g(b_2), f summed
    against Delta(b) contracted with g on its right leg."""
    out = {}
    for k in wb.keys:
        half = wb.contract(wb.coproduct(k), g.get, 1)
        acc = sum((c * f[i] for i, c in half.items() if i in f), wb.zero)
        if acc:
            out[k] = acc
    return out
