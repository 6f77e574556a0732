"""Ore extensions H = R[x; sigma, delta] as computational objects.

Normal form: left coefficients, p = sum a_n x^n, with the rewrite
x a -> sigma(a) x + delta(a) applied recursively.  H is its own basis view
over the monomial keys (b, n), meaning b_b x^n: an element of H is the dict
(b, n) -> nonzero scalar of its coefficients, and an element of H (x) H a
dict ((r, i), (s, j)) -> scalar, read as sum c (b_r x^i) (x) (b_s x^j).
Every product in H is the inherited ``multiply`` and every product in
H (x) H the two-leg ``tensor_mul``, both over the cached monomial products;
the same methods multiply in R and R (x) R on R, its own basis view, so
all arithmetic is exact.

Once the extension conditions hold, the coproduct is
Delta(a x^n) = Delta(a) * (g (x) x + x (x) 1)^n, the counit reads the
degree-0 coefficient, and the antipode is the anti-homomorphism with
S(x) = -S(g) x.  :func:`verify_extension` runs the same weak-bialgebra axiom
sweeps on H as bialgebra.py runs on R, on the integer view of H's tables at
the degree bound (:meth:`OreAlgebra.integer_view`).  One recursion builds
the x-powers, products, skew powers, coproducts and antipodes: on field
scalars for H itself, which the element API and the degree <= 1 generator
clauses use, and on ints for the integer view, from R's integer view and
sigma, delta, g and S(x) held as ints at one scale E by
:meth:`Field.to_ints`; no sweep table is computed in field scalars.
"""

from __future__ import annotations

import copy
import math

from .bialgebra import (BasisView, IntegerView, WeakBialgebra, WeakHopfAlgebra, _check,
                        _nonzero, base_subalgebras, sweep_antipode,
                        sweep_coassociative, sweep_coproduct_multiplicative, sweep_counit_neutral,
                        sweep_counit_weak_multiplicative, sweep_unit_compatibility)
from .coderivations import skew_derivation
from .errors import ConditionsFailed, TooLarge, ValidationError
from .linalg import Matrix
from .panov import HOPF, SUFFICIENT, PanovClauses, panov_sufficient
from .report import AxiomReport

# The most monomial products verify_extension may tabulate at a degree bound
# B, (L + 1)(B + 1) dim^2 with L = max(2B, B + 1): Sweedler's algebra (dim 2)
# is admitted up to B = 49, where B = 24 (4,900 products) takes 0.62 s (median
# of 5, Python 3.11.7 on a shared 2-core Intel Xeon), and section-5 M_2(QZ_2)
# (dim 8) up to B = 11; at B = 0 the table holds 2 dim^2 products.
PRODUCT_TABLE_LIMIT = 20_000


class OreAlgebra(BasisView):
    """R[x; sigma, delta] over the monomial keys (b, n), meaning b_b x^n,
    optionally carrying the extended coproduct/antipode.

    Its own ``keys`` are the degree-0 monomials; :meth:`integer_view` takes
    the degree bound the sweeps run to.  Products, coproducts and antipodes
    of monomials are computed on first use and cached on the algebra.  The
    antipode is extended exactly when S(x), an element of H, is given as
    ``s_x``.  Instances are immutable; extension steps return new objects.
    Use :func:`make_ore` to validate the defining data.
    """

    def __init__(self, R: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict | None = None,
                 _coalgebra_extended=False, s_x: dict | None = None):
        self.R = R
        self.sigma = sigma
        self.delta = delta
        self.g = g
        self._coalgebra_extended = _coalgebra_extended
        self._s_x = s_x
        self._over_ints = None
        self._tabulate(R, sigma.column_dicts(), delta.column_dicts(), g, s_x)

    def _tabulate(self, r, sigma_cols, delta_cols, g, s_x):
        """Point the recursion at its scalar tables, with empty caches.

        ``r`` is a basis view of R: R itself, or its integer view at scale
        E (``r.scale``), each table E times its value, over GF(p) residues
        with E = 1.  The columns of sigma and delta, g and S(x) hold scalars
        of the same kind.  Over ints, x^i b_u is E^i times its value, a
        product whose left factor has degree i is E^(i+1) times its value,
        and every cached entry is kept as :meth:`Field.reduce` keeps it when
        ``modulus`` is set;
        :meth:`_weights` gives the power of E in each table.
        """
        super().__init__(r.field, self.monomials(0), self.embed(r.unit))
        self.zero, self.one, self.modulus, self._E = r.zero, r.one, r.modulus, r.scale
        self._r, self._sigma_cols, self._delta_cols, self._g = r, sigma_cols, delta_cols, g
        # S(x) with each term lifted to its top degree, so S(x) p has one weight
        self._s_x_degree = max((n for _, n in s_x or ()), default=0)
        self._s_x_lifted = s_x and self._lift(s_x, self._s_x_degree)
        self._x_table = {}
        self._skew_powers = {}
        self._products, self._coproducts, self._antipodes = {}, {}, {}
        self._s_x_powers = [self.unit]

    def _lift(self, p, top):
        """p with its term of degree n multiplied by E^(top - n): an element all of
        whose products p q have one weight (see :meth:`_tabulate`)."""
        E = self._E
        return p if E == 1 else {(b, n): c * E ** (top - n) for (b, n), c in p.items()}

    def _keep(self, d):
        """d as the caches keep it: as :meth:`Field.reduce` keeps it on residue
        tables (``modulus`` set), else as it is."""
        return self.field.reduce(d) if self.modulus else d

    # -- basic structure ------------------------------------------------

    @property
    def antipode_extended(self):
        return self._s_x is not None

    def monomials(self, degree):
        """The monomial keys of degree <= degree, degree-major."""
        return [(b, n) for n in range(degree + 1) for b in range(self.R.dim)]

    def embed(self, r: dict) -> dict:
        """An element of R as one of H, in degree 0."""
        return self.monomial(r, 0)

    def x(self, n=1) -> dict:
        return self.monomial(self._r.unit, n)

    def monomial(self, a: dict, n: int) -> dict:
        """a x^n for an element a of R."""
        return {(b, n): c for b, c in a.items()}

    def x_power_times(self, i: int, u: int) -> dict:
        """x^i b_u, from a table kept for the algebra's lifetime.

        Row 0 is b_u and row 1 is delta(b_u) + sigma(b_u) x; row i > 1 is
        x_times(row i-1), so x_times runs once per entry (i, u).
        """
        hit = self._x_table.get((i, u))
        if hit is None:
            if i > 1:
                hit = self.x_times(self.x_power_times(i - 1, u))
            elif i:
                hit = self.embed(self._delta_cols[u]) | self.monomial(self._sigma_cols[u], 1)
            else:
                hit = {(u, 0): self.one}
            hit = self._x_table[(i, u)] = self._keep(hit)
        return hit

    def x_times(self, p: dict) -> dict:
        """Left multiplication by x in normal form, term by term from row 1 of the table."""
        zero, out = self.zero, {}
        for (b, n), c in p.items():
            for (r, m), x in self.x_power_times(1, b).items():
                key = (r, m + n)
                out[key] = out.get(key, zero) + c * x
        return _nonzero(out)

    def product(self, a, b):
        hit = self._products.get((a, b))
        if hit is None:
            hit = self._products[(a, b)] = self._keep(self.mono_mul(*a, *b))
        return hit

    def mono_mul(self, r: int, i: int, u: int, j: int) -> dict:
        """(b_r x^i)(b_u x^j) = b_r (x^i b_u) x^j; :meth:`product` caches it."""
        zero, product, out = self.zero, self._r.product, {}
        for (b, n), c in self.x_power_times(i, u).items():
            for k, x in product(r, b).items():
                key = (k, n + j)
                out[key] = out.get(key, zero) + c * x
        return _nonzero(out)

    # -- extended coalgebra ----------------------------------------------

    def skew_power_tensor(self, n: int) -> dict:
        """(g (x) x + x (x) 1)^n in H (x) H; n = 1 is the skew element itself.

        For n > 1 the skew element, of degree 1 in each term, is the left
        factor, so over ints every term of the product has one weight.
        """
        if self.g is None:
            raise ValidationError("no weak group-like g attached to this Ore algebra")
        hit = self._skew_powers.get(n)
        if hit is None:
            if n == 0:
                hit = self.pure(self.unit, self.unit)
            elif n == 1:
                g, x = self.embed(self._g), self.x()
                hit = self.add(self.pure(g, x), self.pure(x, self.unit))
            else:
                hit = self.tensor_mul(self.skew_power_tensor(1), self.skew_power_tensor(n - 1))
            hit = self._skew_powers[n] = self._keep(hit)
        return hit

    def coproduct(self, k):
        """Delta(b_b x^n) = Delta(b_b) (g (x) x + x (x) 1)^n in H (x) H, cached."""
        hit = self._coproducts.get(k)
        if hit is None:
            if not self._coalgebra_extended:
                raise ValidationError("coalgebra structure not extended; "
                                      "call extend_coalgebra first")
            b, n = k
            d = _degree_zero(self._r.coproduct(b))
            hit = self._coproducts[k] = self._keep(self.tensor_mul(d, self.skew_power_tensor(n)))
        return hit

    def counit(self, k):
        b, n = k
        return self._r.counit(b) if n == 0 else self.zero

    # -- extended antipode ----------------------------------------------

    def antipode(self, k):
        """S(b_b x^n) = S(x)^n S(b_b), cached; S is the unital anti-homomorphism.

        S(x) is the left factor of each power, and S(x)^n is lifted to degree
        n deg S(x) before S(b_b) multiplies it, so over ints each has one weight.
        """
        hit = self._antipodes.get(k)
        if hit is None:
            if self._s_x is None:
                raise ValidationError("antipode not extended; call extend_antipode first")
            b, n = k
            powers = self._s_x_powers
            while len(powers) <= n:
                powers.append(self._keep(self.multiply(self._s_x_lifted, powers[-1])))
            s_b = self.embed(self._r.antipode(b))
            lifted = self._lift(powers[n], n * self._s_x_degree)
            hit = self._antipodes[k] = self._keep(self.multiply(lifted, s_b))
        return hit

    # -- labels and the integer view -------------------------------------

    def label(self, k):
        b, n = k
        return self.R.labels[b] if n == 0 else f"{self.R.labels[b]}*x^{n}"

    def witness(self, keys):
        return tuple(i for k in keys for i in k)

    def integer_view(self, B: int) -> IntegerView:
        """The tables the shared sweeps read at degree bound B, as ints.

        Its sweep keys are the monomials of degree <= B, degree-major.
        Products on (degree <= L) x (degree <= B), L = max(2B, B + 1),
        coproducts on degree <= 2B, the counit on degree <= L + B (every
        monomial those products reach) and antipodes, when extended, on
        degree <= B: the sweeps reach degree 2B through f m in eps_row,
        through Delta(ab) and through the antipode sandwich S(a) b S(d), and
        degree B + 1 through the x-sandwich eps((a x) h) of verify_extension.
        The tables are built on ints by H's recursion over R's integer view
        (:meth:`_integers`), each entry E^w times its value, and then
        converted exactly to one scale D, the lcm of their denominators.
        """
        Z = self._integers()
        keys, top = self.monomials(B), _left_degree(B)
        # coproducts first: an H whose coalgebra is not extended raises before a product
        coproducts = {k: Z.coproduct(k) for k in self.monomials(2 * B)}
        products = {(a, b): Z.product(a, b) for a in self.monomials(top) for b in keys}
        antipodes = {k: Z.antipode(k) for k in keys} if self.antipode_extended else {}
        counit = {k: Z.counit(k) for k in self.monomials(top + B)}
        E, D, ends = Z._E, 1, {"unit": Z.unit, "counit": counit}
        if E > 1:
            w = Z._weights
            D = _to_one_scale(E, [(products, lambda ab: ab[0][1] + 1),
                                  (coproducts, lambda k: w(k[1])[0]),
                                  (antipodes, lambda k: w(k[1])[1]), (ends, lambda k: 1)])
        return IntegerView(self, keys, D, ends["unit"], products, coproducts, ends["counit"],
                           antipodes)

    def _integers(self):
        """H's recursion on ints, built once and kept: a copy of H whose tables
        are R's integer view and sigma, delta, g and S(x), all at one scale E
        by :meth:`Field.to_ints`, which folds in the view's D."""
        if self._over_ints is None:
            view, g, s_x, n = self.R.integer_view, self.g, self._s_x, self.R.dim
            E, ints = self.field.to_ints([*self.sigma.column_dicts(), *self.delta.column_dicts(),
                                          g or {}, s_x or {}], view.scale)
            Z = self._over_ints = copy.copy(self)
            Z._tabulate(view.rescaled(E), ints[:n], ints[n:2 * n], g and ints[-2],
                        s_x and ints[-1])
        return self._over_ints

    def _weights(self, n):
        """The powers of E in the coproduct and in the antipode of b x^n over ints.

        (g (x) x + x (x) 1)^n has weight 2 up to n = 1, and each further
        factor adds 2 for the skew element and 3 for its two products;
        Delta(b) and the two products of its degree-0 legs add 3.  S(x)^n
        has weight 1 + n (d + 2), d the degree of S(x), and is lifted by
        E^(n d); S(b) and one product add 2.
        """
        skew = 2 if n <= 1 else 5 * n - 3
        return skew + 3, 3 + n * (2 * self._s_x_degree + 2)

    def __repr__(self):
        tags = []
        if self._coalgebra_extended:
            tags.append("coalgebra")
        if self.antipode_extended:
            tags.append("antipode")
        suffix = f" [{', '.join(tags)} extended]" if tags else ""
        return f"OreAlgebra(R dim={self.R.dim}{suffix})"


def _to_one_scale(E, weighted):
    """Bring tables of ints to one scale D, the lcm of their denominators, in
    place, and return D.  ``weighted`` lists pairs (table, weight): the entry
    k of a table, a dict of ints, is E^weight(k) times its value."""
    D = math.lcm(*((Ew := E ** weight(k)) // math.gcd(Ew, *t.values())
                   for table, weight in weighted for k, t in table.items()))
    for table, weight in weighted:
        for k, t in table.items():
            Ew = E ** weight(k)
            table[k] = {key: c * D // Ew for key, c in t.items()}
    return D


def make_ore(R: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict | None = None) -> OreAlgebra:
    """Validate (sigma, delta) as Ore data over R and wrap them.

    Raises NotAutomorphism / NotDerivation with witnesses.
    """
    skew_derivation(R, sigma, delta)
    return OreAlgebra(R, sigma, delta, g)


def _degree_zero(t: dict) -> dict:
    """A tensor of R (x) R, keyed (r, s), as one of H (x) H in degree (0, 0)."""
    return {((r, 0), (s, 0)): c for (r, s), c in t.items()}


def extend_coalgebra(H: OreAlgebra) -> OreAlgebra:
    """Extend R's coproduct and counit to H; refuses unless the conditions hold."""
    if H.g is None:
        raise ValidationError("extend_coalgebra needs the weak group-like g")
    verdict = panov_sufficient(H.R, H.sigma, H.delta, H.g)
    if not verdict.passed:
        raise ConditionsFailed(verdict)
    out = OreAlgebra(H.R, H.sigma, H.delta, H.g, _coalgebra_extended=True)
    for k in range(H.R.dim):
        if out.coproduct((k, 0)) != _degree_zero(H.R.coproduct(k)):
            raise ValidationError("extended coproduct does not restrict to R in degree 0")
    return out


def extend_antipode(H: OreAlgebra) -> OreAlgebra:
    """Extend the antipode with S(x) = -S(g) x; refuses unless the conditions hold."""
    if not isinstance(H.R, WeakHopfAlgebra):
        raise ValidationError("antipode extension needs an antipode on R")
    if H.g is None:
        raise ValidationError("extend_antipode needs the group-like g")
    clauses = PanovClauses(H.R, H.sigma, H.delta, H.g)
    for names in (SUFFICIENT, HOPF):
        verdict = clauses.verdict(names)
        if not verdict.passed:
            raise ConditionsFailed(verdict)
    minus_s_g = {k: -c for k, c in H.R.antipode_matrix.apply(H.g).items()}
    s_x = H.monomial(H.R.multiply(minus_s_g, H.R.unit), 1)  # (-S(g)) x
    return OreAlgebra(H.R, H.sigma, H.delta, H.g, _coalgebra_extended=True, s_x=s_x)


def _left_degree(B):
    """The highest degree of a left factor in the product table at degree bound B:
    2B for the terms of f m in eps(f m h), B + 1 for the x-sandwich eps((a x) h)."""
    return max(2 * B, B + 1)


def refuse_large_degree(R: WeakBialgebra, degree_bound: int):
    """Raise TooLarge when the product table of verify_extension at this
    degree bound over R, (L + 1)(B + 1) dim^2 monomial products with
    L = max(2B, B + 1), would hold more than PRODUCT_TABLE_LIMIT; a negative
    bound counts as 0."""
    B = max(degree_bound, 0)
    products = (_left_degree(B) + 1) * (B + 1) * R.dim ** 2
    if products > PRODUCT_TABLE_LIMIT:
        raise TooLarge(f"degree bound {degree_bound} over dim {R.dim} needs {products} "
                       f"monomial products, more than {PRODUCT_TABLE_LIMIT}")


def verify_extension(H: OreAlgebra, degree_bound: int = 3) -> AxiomReport:
    """Exhaustive axiom sweep on H over monomials of degree <= degree_bound.

    The weak-bialgebra axioms come from the shared sweeps in bialgebra.py,
    run on ``H.integer_view`` at the degree bound, built once per call, just
    as coalgebra_report, check_weak_bialgebra and check_antipode run them on
    the integer view of R: coproduct multiplicativity, coassociativity, both
    counit axioms, weak multiplicativity of the counit, the unit-coproduct
    compatibility and (when extended) the three antipode axioms.  The
    vanishing of the counit on x-sandwiches, eps((a x) h) for monomials a
    and h of degree <= B, is read from the same integer view.  The other
    clauses specific to the extension involve monomials of degree <= 1 only
    and are checked on H itself, in field scalars: skew primitivity of the
    generator, commutation of Delta(x) with Delta(1) and with Delta(a), and
    centrality of R_s against x.  A negative degree bound would sweep
    nothing and raises ValidationError; one whose tables would be too large
    raises TooLarge (:func:`refuse_large_degree`); an H whose coalgebra is
    not extended raises ValidationError when the integer view reads its
    first coproduct, before any monomial product.  Serialize with
    ``report.lines()``: one `AXIOM name PASS|FAIL` line each.
    """
    if degree_bound < 0:
        raise ValidationError(f"degree bound must be nonnegative, got {degree_bound}")
    refuse_large_degree(H.R, degree_bound)
    report = AxiomReport()
    R = H.R
    ints = H.integer_view(degree_bound)

    sweep_coproduct_multiplicative(ints, report)
    sweep_coassociative(ints, report, "coproduct_coassociative")
    sweep_counit_neutral(ints, report, "right")
    sweep_counit_neutral(ints, report, "left")
    sweep_counit_weak_multiplicative(ints, report)
    sweep_unit_compatibility(ints, report)

    tmul, fmt = H.tensor_mul, H.formatter(2)
    d1, skew = H.delta_one(), H.skew_power_tensor(1)
    left, right = tmul(d1, skew), tmul(skew, d1)
    report.check("generator_coproduct_delta_one_commute", right, left, fmt=fmt)

    x = H.x()
    dx = H.comultiply(x)
    for side, rhs in (("left", left), ("right", right)):
        report.check("generator_skew_primitive", dx, rhs, witness=(side,), fmt=fmt)

    scols, dcols = H.sigma.column_dicts(), H.delta.column_dicts()
    for k in range(R.dim):
        lhs = tmul(dx, H.coproduct((k, 0)))
        rhs = H.add(tmul(H.comultiply(H.embed(scols[k])), dx), H.comultiply(H.embed(dcols[k])))
        report.check("coproduct_commutation_rule", lhs, rhs, witness=(R.labels[k],), fmt=fmt)

    for a in ints.keys:
        ax = (a[0], a[1] + 1)  # (b x^n) x = b x^(n+1)
        for h in ints.keys:
            _check(report, "counit_kills_x_sandwich", ints.eps_pair(ax, h), 0, ints, (a, h),
                   (2, 0))

    _, basis_s = base_subalgebras(R)
    for idx, a in enumerate(basis_s):
        report.check("source_base_commutes_with_x",
                     H.multiply(x, H.embed(a)), H.multiply(H.embed(a), x),
                     witness=(idx,), fmt=H.formatter(1))

    if H.antipode_extended:
        sweep_antipode(ints, report)
    return report
