"""Ore extensions H = R[x; sigma, delta] as computational objects.

Normal form: left coefficients, p = sum a_n x^n, with the rewrite
x a -> sigma(a) x + delta(a) applied recursively.  H is its own basis view
over the monomial keys (b, n), meaning b_b x^n: an element of H is the dict
(b, n) -> nonzero scalar of its coefficients, and an element of H (x) H a
dict ((r, i), (s, j)) -> scalar, read as sum c (b_r x^i) (x) (b_s x^j).
Every product in H is the inherited ``multiply`` and every product in
H (x) H the two-leg ``tensor_mul``, both over the cached monomial products;
the same methods multiply in R and R (x) R on the constants view of R, so
all arithmetic is exact.

Once the extension conditions hold, the coproduct is
Delta(a x^n) = Delta(a) * (g (x) x + x (x) 1)^n, the counit reads the
degree-0 coefficient, and the antipode is the anti-homomorphism with
S(x) = -S(g) x.  :func:`verify_extension` runs the same weak-bialgebra axiom
sweeps on H as bialgebra.py runs on R, on the integer view of H's tables at
the degree bound (:meth:`OreAlgebra.integer_view`); H itself keeps field
scalars and every table and cache of the extension.
"""

from __future__ import annotations

import itertools

from .bialgebra import (BasisView, IntegerView, WeakBialgebra, WeakHopfAlgebra, _nonzero,
                        base_subalgebras, sweep_antipode, sweep_coassociative,
                        sweep_coproduct_multiplicative, sweep_counit_neutral,
                        sweep_counit_weak_multiplicative, sweep_unit_compatibility)
from .coderivations import skew_derivation
from .errors import ConditionsFailed, TooLarge, ValidationError
from .linalg import Matrix
from .panov import HOPF, SUFFICIENT, PanovClauses, panov_sufficient
from .report import AxiomReport

# The most monomial products verify_extension may tabulate at a degree bound
# B, (2B + 1)(B + 1) dim^2: Sweedler's algebra (dim 2) is admitted up to
# B = 49, where B = 24 (4,900 products) takes 0.65 s, and section-5
# M_2(QZ_2) (dim 8) up to B = 11.
PRODUCT_TABLE_LIMIT = 20_000


class OreAlgebra(BasisView):
    """R[x; sigma, delta] over the monomial keys (b, n), meaning b_b x^n,
    optionally carrying the extended coproduct/antipode.

    Its own ``keys`` are the degree-0 monomials; :meth:`integer_view` takes
    the degree bound the sweeps run to.  Products, coproducts and antipodes
    of monomials are computed on first use and cached on the algebra.
    Instances are immutable; extension steps return new objects.  Use
    :func:`make_ore` to validate the defining data.
    """

    def __init__(self, R: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict | None = None,
                 _coalgebra_extended=False, _antipode_extended=False):
        self.R = R
        super().__init__(R.field, self.monomials(0), self.embed(R.unit))
        self.sigma = sigma
        self.delta = delta
        self.g = g
        self._coalgebra_extended = _coalgebra_extended
        self._antipode_extended = _antipode_extended
        self._x_table = {}
        self._skew_powers = {}
        self._products, self._coproducts, self._antipodes = {}, {}, {}
        self._s_x = None
        self._s_x_powers = [self.unit]

    # -- basic structure ------------------------------------------------

    @property
    def antipode_extended(self):
        return self._antipode_extended

    def monomials(self, degree):
        """The monomial keys of degree <= degree, degree-major."""
        return [(b, n) for n in range(degree + 1) for b in range(self.R.dim)]

    def embed(self, r: dict) -> dict:
        """An element of R as one of H, in degree 0."""
        return self.monomial(r, 0)

    def x(self, n=1) -> dict:
        return self.monomial(self.R.unit, n)

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
                bu = self.R.basis_vector(u)
                hit = self.embed(self.delta.apply(bu)) | self.monomial(self.sigma.apply(bu), 1)
            else:
                hit = {(u, 0): self.one}
            self._x_table[(i, u)] = hit
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
            hit = self._products[(a, b)] = self.mono_mul(*a, *b)
        return hit

    def mono_mul(self, r: int, i: int, u: int, j: int) -> dict:
        """(b_r x^i)(b_u x^j) = b_r (x^i b_u) x^j; :meth:`product` caches it."""
        zero, product, out = self.zero, self.R.view.product, {}
        for (b, n), c in self.x_power_times(i, u).items():
            for k, x in product(r, b).items():
                key = (k, n + j)
                out[key] = out.get(key, zero) + c * x
        return _nonzero(out)

    # -- extended coalgebra ----------------------------------------------

    def skew_power_tensor(self, n: int) -> dict:
        """(g (x) x + x (x) 1)^n in H (x) H; n = 1 is the skew element itself."""
        if self.g is None:
            raise ValidationError("no weak group-like g attached to this Ore algebra")
        hit = self._skew_powers.get(n)
        if hit is None:
            if n == 0:
                hit = self.pure(self.unit, self.unit)
            elif n == 1:
                g, x = self.embed(self.g), self.x()
                hit = self.add(self.pure(g, x), self.pure(x, self.unit))
            else:
                hit = self.tensor_mul(self.skew_power_tensor(n - 1), self.skew_power_tensor(1))
            self._skew_powers[n] = hit
        return hit

    def coproduct(self, k):
        """Delta(b_b x^n) = Delta(b_b) (g (x) x + x (x) 1)^n in H (x) H, cached."""
        hit = self._coproducts.get(k)
        if hit is None:
            if not self._coalgebra_extended:
                raise ValidationError("coalgebra structure not extended; "
                                      "call extend_coalgebra first")
            b, n = k
            d = _degree_zero(self.R.view.coproduct(b))
            hit = self._coproducts[k] = self.tensor_mul(d, self.skew_power_tensor(n))
        return hit

    def counit(self, k):
        b, n = k
        return self.R.counit.get(b, self.zero) if n == 0 else self.zero

    # -- extended antipode ----------------------------------------------

    def antipode(self, k):
        """S(b_b x^n) = S(x)^n S(b_b), cached; S is the unital anti-homomorphism."""
        hit = self._antipodes.get(k)
        if hit is None:
            if not self._antipode_extended:
                raise ValidationError("antipode not extended; call extend_antipode first")
            b, n = k
            powers = self._s_x_powers
            while len(powers) <= n:
                powers.append(self.multiply(powers[-1], self._s_x))
            s_b = self.embed(self.R.view.antipode(b))
            hit = self._antipodes[k] = self.multiply(powers[n], s_b)
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
        Products on (degree <= 2B) x (degree <= B), coproducts on degree
        <= 2B, the counit on degree <= 3B (every monomial those products
        reach) and antipodes, when extended, on degree <= B: the sweeps reach
        degree 2B through f m in eps_row, through Delta(ab) and through the
        antipode sandwich S(a) b S(d).
        """
        keys, twice = self.monomials(B), self.monomials(2 * B)
        return IntegerView(self, keys, itertools.product(twice, keys), twice,
                           self.monomials(3 * B), keys if self.antipode_extended else ())

    def __repr__(self):
        tags = []
        if self._coalgebra_extended:
            tags.append("coalgebra")
        if self._antipode_extended:
            tags.append("antipode")
        suffix = f" [{', '.join(tags)} extended]" if tags else ""
        return f"OreAlgebra(R dim={self.R.dim}{suffix})"


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
        if out.coproduct((k, 0)) != _degree_zero(H.R.view.coproduct(k)):
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
    out = OreAlgebra(H.R, H.sigma, H.delta, H.g,
                     _coalgebra_extended=True, _antipode_extended=True)
    s_g = H.R.antipode.apply(H.g)
    out._s_x = out.multiply(out.embed({k: -c for k, c in s_g.items()}), out.x())
    return out


def refuse_large_degree(R: WeakBialgebra, degree_bound: int):
    """Raise TooLarge when the product table of verify_extension at this
    degree bound over R, (2B + 1)(B + 1) dim^2 monomial products, would hold
    more than PRODUCT_TABLE_LIMIT; a negative bound counts as 0."""
    B = max(degree_bound, 0)
    products = (2 * B + 1) * (B + 1) * R.dim ** 2
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
    clauses specific to the extension are checked here on H itself, in
    field scalars: skew primitivity of the generator, commutation of
    Delta(x) with Delta(1) and with Delta(a), vanishing of the counit on
    x-sandwiches and centrality of R_s against x.  A negative degree bound
    would sweep nothing and raises ValidationError; one whose tables would
    be too large raises TooLarge (:func:`refuse_large_degree`); an H whose
    coalgebra is not extended raises ValidationError when the integer view
    reads its first coproduct.  Serialize with ``report.lines()``: one
    `AXIOM name PASS|FAIL` line each.
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

    zero, one = H.zero, H.one
    for (b1, n1) in ints.keys:
        px = H.multiply({(b1, n1): one}, x)
        for (b2, n2) in ints.keys:
            val = sum((c * H.eps_pair(k, (b2, n2)) for k, c in px.items()), zero)
            report.check("counit_kills_x_sandwich", val, zero, witness=(b1, n1, b2, n2))

    _, basis_s = base_subalgebras(R)
    for idx, a in enumerate(basis_s):
        report.check("source_base_commutes_with_x",
                     H.multiply(x, H.embed(a)), H.multiply(H.embed(a), x),
                     witness=(idx,), fmt=H.formatter(1))

    if H.antipode_extended:
        sweep_antipode(ints, report)
    return report
