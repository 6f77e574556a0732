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
sweeps on H as bialgebra.py runs on R, on the integer view of H at the
degree bound (:meth:`OreAlgebra.integer_view`), except for the axioms it
decides in every degree from checks on R.  H keeps its x-powers, products,
skew powers, coproducts and antipodes in one table each, which builds an
entry on its first read; the view reads those very tables, so each entry is
computed once, and only if a sweep that runs reads it.  The tables hold
field scalars on H itself, which the element API and the degree <= 1
generator clauses use, and, when every table they read is integral (always
over GF(p)), ints on H's int copy, built from R's integer view and sigma,
delta, g and S(x) as ints; the view reads the int copy's tables then.
"""

from __future__ import annotations

import copy
from functools import cached_property

from .bialgebra import (BasisView, IntegerView, WeakBialgebra, WeakHopfAlgebra, _check,
                        _nonzero, _OnDemand, algebra_report, base_subalgebras,
                        coproduct_multiplicative_report, sweep_antipode, sweep_coassociative,
                        sweep_coproduct_multiplicative, sweep_counit_neutral,
                        sweep_counit_weak_multiplicative, sweep_unit_compatibility)
from .errors import ConditionsFailed, TooLarge, ValidationError
from .linalg import Matrix
from .panov import HOPF, SUFFICIENT, PanovClauses
from .report import AxiomReport

# The most monomial products H's tables hold after the sweeps at degree bound B,
# ((L + 1)(B + 1) + 2 max(B, 1)) dim^2 with L = max(2B, B + 1): left factors of
# degree <= L (f m in eps(f m h), eps((a x) h)) times right ones of degree <= B,
# where S(x) of degree 1 keeps the antipode sweep, and left degree <= 1 times
# right degree <= max(2B, 1) for the coproducts Delta(b) X^n and the generator
# clauses.  Sweedler's algebra (dim 2) is admitted up to B = 48, where sweeping
# every axiom took 4.5 s (0.34 s at B = 24; medians of 3 and 5, Python 3.11.7 on
# a shared 2-core Intel Xeon), and section-5 M_2(QZ_2) (dim 8) up to B = 11.
PRODUCT_TABLE_LIMIT = 20_000


class OreAlgebra(BasisView):
    """R[x; sigma, delta] over the monomial keys (b, n), meaning b_b x^n,
    optionally carrying the extended coproduct/antipode.

    Its own ``keys`` are the degree-0 monomials; :meth:`integer_view` takes
    the degree bound the sweeps run to.  Each table of monomial entries is
    one :class:`_OnDemand`, which its integer view reads too.  The
    antipode is extended exactly when S(x), an element of H, is given as
    ``s_x``; it must be homogeneous of degree 1 in x, as (-S(g)) x is, and
    any other s_x raises ValidationError, since S(b x^n) = S(x)^n S(b) then
    has degree <= n and the antipode sweep reads no product outside what
    :data:`PRODUCT_TABLE_LIMIT` counts.  Instances are immutable;
    extension steps return new objects.  ``clauses`` is the datum's
    :class:`panov.PanovClauses` table, new or the ``_clauses`` an extension step
    hands on: :func:`make_ore` raises its Ore-data failure, and the extension
    steps and :func:`verify_extension` ((P3), (P6)) read their verdicts from it.
    """

    def __init__(self, R: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict | None = None,
                 _coalgebra_extended=False, s_x: dict | None = None, _clauses=None):
        self.R = R
        self.sigma = sigma
        self.delta = delta
        self.g = g
        self._coalgebra_extended = _coalgebra_extended
        self.clauses = _clauses or PanovClauses(R, sigma, delta, g)
        if s_x is not None and any(n != 1 for _, n in s_x):
            raise ValidationError("S(x) must be homogeneous of degree 1 in x")
        self._tabulate(R, sigma.column_dicts(), delta.column_dicts(), g, s_x)

    def _tabulate(self, r, sigma_cols, delta_cols, g, s_x):
        """Point the recursion at the basis view ``r`` of R and start H's tables empty.

        ``r`` is R itself, or its integer view at scale 1, over GF(p)
        residues; the columns of sigma and delta, g and S(x) (kept as
        ``_s_x``) hold scalars of the same kind.  Each recursive table grows
        by a left factor of degree 1: x, the skew element or S(x).
        """
        super().__init__(r.field, self.monomials(0), self.embed(r.unit))
        self.zero, self.one, self.modulus = r.zero, r.one, r.modulus
        self._r, self._sigma_cols, self._delta_cols, self._g = r, sigma_cols, delta_cols, g
        self._s_x = s_x
        self._x_table = _OnDemand(self._x_row)
        self._products = _OnDemand(lambda ab: self._keep(self.mono_mul(*ab[0], *ab[1])))
        self._skew_powers = _OnDemand(self._skew_power)
        self._coproducts = _OnDemand(self._coproduct)
        self._antipodes = _OnDemand(self._antipode)

    def _keep(self, d):
        """d as the tables keep it: reduced by :meth:`Field.reduce` if ``modulus`` is set."""
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
        """x^i b_u, row i of the x-power table."""
        return self._x_table[i, u]

    def _x_row(self, key):
        """Row 0 is b_u and row 1 is delta(b_u) + sigma(b_u) x; row i > 1 is
        x_times(row i-1), so x_times runs once per entry (i, u)."""
        i, u = key
        if i > 1:
            row = self.x_times(self._x_table[i - 1, u])
        elif i:
            row = self.embed(self._delta_cols[u]) | self.monomial(self._sigma_cols[u], 1)
        else:
            row = {(u, 0): self.one}
        return self._keep(row)

    def x_times(self, p: dict) -> dict:
        """Left multiplication by x in normal form, term by term from row 1 of the table."""
        zero, rows, out = self.zero, self._x_table, {}
        for (b, n), c in p.items():
            for (r, m), x in rows[1, b].items():
                key = (r, m + n)
                out[key] = out.get(key, zero) + c * x
        return _nonzero(out)

    def product(self, a, b):
        return self._products[a, b]

    def mono_mul(self, r: int, i: int, u: int, j: int) -> dict:
        """(b_r x^i)(b_u x^j) = b_r (x^i b_u) x^j, built once into the product table."""
        zero, product, out = self.zero, self._r.product, {}
        for (b, n), c in self._x_table[i, u].items():
            for k, x in product(r, b).items():
                key = (k, n + j)
                out[key] = out.get(key, zero) + c * x
        return _nonzero(out)

    # -- extended coalgebra ----------------------------------------------

    def skew_power_tensor(self, n: int) -> dict:
        """(g (x) x + x (x) 1)^n in H (x) H; n = 1 is the skew element itself,
        and the left factor of each further power."""
        return self._skew_powers[n]

    def _skew_power(self, n):
        if self.g is None:
            raise ValidationError("no weak group-like g attached to this Ore algebra")
        if n == 0:
            power = self.pure(self.unit, self.unit)
        elif n == 1:
            g, x = self.embed(self._g), self.x()
            power = self.add(self.pure(g, x), self.pure(x, self.unit))
        else:
            power = self.tensor_mul(self._skew_powers[1], self._skew_powers[n - 1])
        return self._keep(power)

    def coproduct(self, k):
        """Delta(b_b x^n) = Delta(b_b) (g (x) x + x (x) 1)^n in H (x) H."""
        return self._coproducts[k]

    def _coproduct(self, k):
        if not self._coalgebra_extended:
            raise ValidationError("coalgebra structure not extended; call extend_coalgebra first")
        b, n = k
        return self._keep(self.tensor_mul(_degree_zero(self._r.coproduct(b)), self._skew_powers[n]))

    def counit(self, k):
        b, n = k
        return self._r.counit(b) if n == 0 else self.zero

    # -- extended antipode ----------------------------------------------

    def antipode(self, k):
        """S(b_b x^n) = S(x) S(b_b x^(n-1)) for n >= 1 and S(b_b) for n = 0;
        S is the unital anti-homomorphism, so this is S(x)^n S(b_b)."""
        return self._antipodes[k]

    def _antipode(self, k):
        if self._s_x is None:
            raise ValidationError("antipode not extended; call extend_antipode first")
        b, n = k
        if n:
            return self._keep(self.multiply(self._s_x, self._antipodes[b, n - 1]))
        return self._keep(self.embed(self._r.antipode(b)))

    # -- labels and the integer view -------------------------------------

    def label(self, k):
        b, n = k
        return self.R.labels[b] if n == 0 else f"{self.R.labels[b]}*x^{n}"

    def witness(self, keys):
        return tuple(i for k in keys for i in k)

    def integer_view(self, B: int) -> IntegerView:
        """H at degree bound B for the shared sweeps, over the monomials of degree
        <= B, degree-major: it reads the very product, coproduct and antipode tables
        of :attr:`_integers` at scale 1, ints on the int copy, else H's Fractions."""
        Z = self._integers
        return IntegerView(self, self.monomials(B), 1, Z.unit, Z._products, Z._coproducts,
                           _OnDemand(Z.counit), Z._antipodes, ints=Z is not self)

    @cached_property
    def _integers(self):
        """The source the integer view reads, chosen on first read and kept: when R's
        integer view has scale 1 and sigma, delta, g and S(x) have no denominator
        (always over GF(p)), a ``copy.copy`` of H that :meth:`_tabulate` points at
        those tables as ints, each entry its own value, with tables of its own;
        otherwise H itself, whose field tables are exact."""
        view, g, s_x, n = self.R.integer_view, self.g, self._s_x, self.R.dim
        E, ints = self.field.to_ints([*self.sigma.column_dicts(), *self.delta.column_dicts(),
                                      g or {}, s_x or {}])
        if view.scale != 1 or E != 1:
            return self
        Z = copy.copy(self)
        Z._tabulate(view, ints[:n], ints[n:2 * n], g and ints[-2], s_x and ints[-1])
        return Z

    def __repr__(self):
        tags = []
        if self._coalgebra_extended:
            tags.append("coalgebra")
        if self.antipode_extended:
            tags.append("antipode")
        suffix = f" [{', '.join(tags)} extended]" if tags else ""
        return f"OreAlgebra(R dim={self.R.dim}{suffix})"


def make_ore(R: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict | None = None) -> OreAlgebra:
    """H = R[x; sigma, delta] with g; raises the NotAutomorphism / NotDerivation, with
    witnesses, of its table (``H.clauses.ore_data_failure``) unless it is Ore data."""
    H = OreAlgebra(R, sigma, delta, g)
    if H.clauses.ore_data_failure:
        raise H.clauses.ore_data_failure
    return H


def _degree_zero(t: dict) -> dict:
    """A tensor of R (x) R, keyed (r, s), as one of H (x) H in degree (0, 0)."""
    return {((r, 0), (s, 0)): c for (r, s), c in t.items()}


def extend_coalgebra(H: OreAlgebra) -> OreAlgebra:
    """Extend R's coproduct and counit to H; refuses unless the conditions hold."""
    if H.g is None:
        raise ValidationError("extend_coalgebra needs the weak group-like g")
    return _extended(H, (SUFFICIENT,))


def extend_antipode(H: OreAlgebra) -> OreAlgebra:
    """Extend the antipode with S(x) = -S(g) x; refuses unless the conditions hold."""
    if not isinstance(H.R, WeakHopfAlgebra):
        raise ValidationError("antipode extension needs an antipode on R")
    if H.g is None:
        raise ValidationError("extend_antipode needs the group-like g")
    minus_s_g = {k: -c for k, c in H.R.antipode_matrix.apply(H.g).items()}
    s_x = H.monomial(H.R.multiply(minus_s_g, H.R.unit), 1)  # (-S(g)) x
    return _extended(H, (SUFFICIENT, HOPF), s_x)


def _extended(H: OreAlgebra, procedures, s_x=None) -> OreAlgebra:
    """The body of both extension steps: ConditionsFailed on the first of ``procedures``
    whose verdict on ``H.clauses`` fails, else H with its coalgebra extended, and its
    antipode by ``s_x`` if given, on the same table, once it restricts to R in degree 0."""
    for names in procedures:
        verdict = H.clauses.verdict(names)
        if not verdict.passed:
            raise ConditionsFailed(verdict)
    out = OreAlgebra(H.R, H.sigma, H.delta, H.g, _coalgebra_extended=True, s_x=s_x,
                     _clauses=H.clauses)
    for k in range(H.R.dim):
        if out.coproduct((k, 0)) != _degree_zero(H.R.coproduct(k)):
            raise ValidationError("extended coproduct does not restrict to R in degree 0")
    return out


def refuse_large_degree(R: WeakBialgebra, degree_bound: int):
    """Raise ValidationError on a negative degree bound, which would sweep
    nothing, and TooLarge when the sweeps of verify_extension at this degree
    bound over R may leave more than PRODUCT_TABLE_LIMIT monomial products in
    H's tables, ((L + 1)(B + 1) + 2 max(B, 1)) dim^2 with L = max(2B, B + 1)."""
    B = degree_bound
    if B < 0:
        raise ValidationError(f"degree bound must be nonnegative, got {B}")
    products = ((max(2 * B, B + 1) + 1) * (B + 1) + 2 * max(B, 1)) * R.dim ** 2
    if products > PRODUCT_TABLE_LIMIT:
        raise TooLarge(f"degree bound {B} over dim {R.dim} needs {products} "
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
    centrality of R_s against x.  A negative degree bound raises
    ValidationError and one whose sweeps may read too many products raises
    TooLarge (:func:`refuse_large_degree`); an H whose coalgebra is
    not extended raises ValidationError when the generator clauses read its
    first coproduct, before any monomial product.  Serialize with
    ``report.lines()``: one `AXIOM name PASS|FAIL` line each.

    Four axioms are decided in every degree, with no sweep of H, when the
    premises of their lemma below hold (:func:`_certificates`), checked whatever
    built H and R: those on R from the reports R keeps, (P3) and (P6) from H's
    clause table ``H.clauses``, which decides each once per datum:

    (P1) ``algebra_report(R)`` passes: R is associative and unital;
    (P2) ``coproduct_multiplicative_report(R)`` passes, R's sweep of
         ``sweep_coproduct_multiplicative`` as ``check_weak_bialgebra`` decides it:
         Delta(ab) = Delta(a) Delta(b) for a, b in R;
    (P3) ``H.clauses.ore_data_failure`` is None: ``skew_derivation(R, sigma, delta)``
         passes, so sigma is a unital algebra automorphism and delta a
         sigma-derivation, and H is the Ore extension R[x; sigma, delta],
         associative and unital (Goodearl and Warfield, ch. 2), and so is H (x) H;
    (P4) the three generator clauses pass, with X = g (x) x + x (x) 1:
         (C1) X Delta(1) = Delta(1) X (generator_coproduct_delta_one_commute);
         (C2) Delta(x) = Delta(1) X and Delta(x) = X Delta(1)
         (generator_skew_primitive, left and right);
         (C3) Delta(x) Delta(b) = Delta(sigma b) Delta(x) + Delta(delta b) on
         the basis of R, so on all of R (coproduct_commutation_rule);
    (P5) ``sweep_counit_weak_multiplicative`` passes on ``R.integer_view``:
         eps(fmh) = eps(f m_1) eps(m_2 h) = eps(f m_2) eps(m_1 h) for f, m, h in R;
    (P6) eps(b_i delta(b_k)) = 0 for all basis elements b_i, b_k of R: the
         Panov clause counit_delta_orthogonal of ``H.clauses``.

    Lemma A.  Under (P1)-(P4), the coproduct Delta(b x^n) = Delta(b) X^n of
    H's tables satisfies Delta(u v) = Delta(u) Delta(v) for all u, v in H.

    Proof.  (1) For r, b in R, r (b x^n) = (rb) x^n, so
    Delta(r b x^n) = Delta(rb) X^n = Delta(r) Delta(b) X^n = Delta(r) Delta(b x^n)
    by (P2) and associativity (P3); by linearity Delta(r h) = Delta(r) Delta(h)
    for every h in H.  (2) For b in R,
    X Delta(b) = X Delta(1) Delta(b) = Delta(x) Delta(b)
    = Delta(sigma b) Delta(x) + Delta(delta b) = Delta(sigma b) Delta(1) X + Delta(delta b)
    = Delta(sigma b) X + Delta(delta b),
    using Delta(1) Delta(b) = Delta(b) = Delta(b) Delta(1) (unitality (P1) and
    (P2)), C2 right, C3, C2 left; C1 follows from C2 and is kept as reported.
    (3) For w = b x^j, x w = sigma(b) x^(j+1) + delta(b) x^j in H (P3), so
    Delta(x w) = Delta(sigma b) X^(j+1) + Delta(delta b) X^j
    = (Delta(sigma b) X + Delta(delta b)) X^j = X Delta(b) X^j = X Delta(w)
    by (2) and associativity; by linearity Delta(x h) = X Delta(h) for every
    h in H.  (4) By induction on the x-degree i, using (3) and x^i h =
    x (x^(i-1) h), Delta(x^i h) = X^i Delta(h); with (1),
    Delta((b x^i) h) = Delta(b (x^i h)) = Delta(b) X^i Delta(h) = Delta(b x^i) Delta(h),
    and Delta(u v) = Delta(u) Delta(v) follows by linearity in u.  QED

    Lemma B.  Under (P6), eps(u x v) = 0 for all u, v in H.

    Proof.  H's tables build x c for c in R as sigma(c) x + delta(c) and
    x^(k+1) c as x (x^k c), and x (sum a_n x^n) has degree-0 coefficient
    delta(a_0); so the degree-0 coefficient of x^(k+1) c is delta^(k+1)(c).
    Hence (b x^(k+1))(c x^j) = b (x^(k+1) c) x^j has degree-0 coefficient 0
    when j > 0 and b delta(delta^k c) when j = 0.  The counit reads the
    degree-0 coefficient, so eps((b x^(k+1))(c x^j)) is 0 or
    eps(b delta(delta^k c)), which is 0 by (P6), bilinear in b and in the
    element delta^k c of R.  By linearity eps(u x v) = 0.  QED
    (P6) is the x-sandwich sweep restricted to a and h of degree 0, since
    eps((b_i x) b_k) = eps(b_i delta(b_k)); so its verdict in every degree
    is its degree-0 verdict.

    Lemma C.  Under (P1)-(P6), eps(fmh) = eps(f m_1) eps(m_2 h)
    = eps(f m_2) eps(m_1 h) for all f, m, h in H.

    Proof.  By linearity f, m and h are monomials; H is associative (P3).
    (1) m = m' x.  By Lemma A and C2, Delta(m) = Delta(m') Delta(x)
    = Delta(m') Delta(1) X = Delta(m') X = sum m'_1 g (x) m'_2 x + m'_1 x (x) m'_2.
    So every term of eps(f m_1) eps(m_2 h) has a factor eps(m'_2 x h) or
    eps(f m'_1 x), every term of eps(f m_2) eps(m_1 h) a factor eps(f m'_2 x)
    or eps(m'_1 x h), and eps(fmh) = eps((f m') x h): all are x-sandwiches,
    0 by Lemma B.  (2) m in R, f = f' x.  Delta(m) lies in R (x) R, so
    eps(f m_1), eps(f m_2) and eps(fmh) = eps(f' x (m h)) are x-sandwiches,
    and both sides are 0.  (3) f, m in R, h = h' x.  eps(m_1 h' x),
    eps(m_2 h' x) and eps(fmh' x) are x-sandwiches: both sides are 0.
    (4) f, m, h in R.  H multiplies degree-0 monomials, comultiplies them and
    takes their counit as R does, so this is (P5).  QED

    The unit-coproduct compatibility needs no premise: its sweep reads only
    Delta(1) and products of the legs of Delta(1) with 1, and H's unit is R's
    in degree 0, as are its coproduct and products on degree-0 monomials.  So
    on H it is R's own sweep, with the same witnesses and, under H's labels,
    the same sides; it runs on ``R.integer_view``, in every degree.

    Where the premises hold, the closure ``sweep`` records R's checks for the
    axiom, the one place that does: those of (P2) for coproduct_multiplicative
    (Lemma A), the dim^2 checks of (P6) for counit_kills_x_sandwich (Lemma B)
    and those of (P5) for counit_weak_multiplicative (Lemma C), and marks it
    decided in all degrees (:meth:`AxiomReport.scope`).  Where one fails, the axiom's sweep over H's
    monomials of degree <= B runs, as do the sweeps of every other axiom,
    decided to degree <= B only, and their witnesses and sides are reported.
    H's integer view computes only the table entries the sweeps that run read.
    """
    refuse_large_degree(H.R, degree_bound)
    report = AxiomReport(degree_bound)
    _, basis_s = base_subalgebras(H.R)  # raises on a broken R before any sweep
    generator = _generator_clauses(H)  # raises on an unextended H before any product
    decided = _certificates(H, generator)
    ints = H.integer_view(degree_bound)

    def sweep(axiom, run):
        """R's checks of an axiom decided in every degree, marked so, else its sweep on H."""
        if axiom in decided:
            report.merge(decided[axiom]).mark_all_degrees(axiom)
        else:
            run(ints, report)

    sweep("coproduct_multiplicative", sweep_coproduct_multiplicative)
    sweep_coassociative(ints, report, "coproduct_coassociative")
    sweep_counit_neutral(ints, report, "right")
    sweep_counit_neutral(ints, report, "left")
    sweep("counit_weak_multiplicative", sweep_counit_weak_multiplicative)
    sweep("coproduct_unit_compatibility", sweep_unit_compatibility)
    report.merge(generator)
    sweep("counit_kills_x_sandwich", _sweep_x_sandwich)

    x = H.x()
    for idx, a in enumerate(basis_s):
        report.check("source_base_commutes_with_x",
                     H.multiply(x, H.embed(a)), H.multiply(H.embed(a), x),
                     witness=(idx,), fmt=H.formatter(1))

    if H.antipode_extended:
        sweep_antipode(ints, report)
    return report


def _sweep_x_sandwich(view, report):
    """eps((a x) h) = 0 for the sweep keys a, h of H's integer view, (b x^n) x being
    b x^(n+1); witnesses (a, h) flattened."""
    for a in view.keys:
        ax = (a[0], a[1] + 1)
        for h in view.keys:
            _check(report, "counit_kills_x_sandwich", view.eps_pair(ax, h), 0, view, (a, h),
                   (2, 0))


def _generator_clauses(H: OreAlgebra) -> AxiomReport:
    """The clauses of :func:`verify_extension` on Delta(x), in their report order,
    on H itself in field scalars: generator_coproduct_delta_one_commute,
    generator_skew_primitive (left, right) and coproduct_commutation_rule."""
    report, R = AxiomReport(), H.R
    tmul, fmt = H.tensor_mul, H.formatter(2)
    d1, skew = H.delta_one(), H.skew_power_tensor(1)
    left, right = tmul(d1, skew), tmul(skew, d1)
    report.check("generator_coproduct_delta_one_commute", right, left, fmt=fmt)

    dx = H.comultiply(H.x())
    for side, rhs in (("left", left), ("right", right)):
        report.check("generator_skew_primitive", dx, rhs, witness=(side,), fmt=fmt)

    scols, dcols = H.sigma.column_dicts(), H.delta.column_dicts()
    for k in range(R.dim):
        lhs = tmul(dx, H.coproduct((k, 0)))
        rhs = H.add(tmul(H.comultiply(H.embed(scols[k])), dx), H.comultiply(H.embed(dcols[k])))
        report.check("coproduct_commutation_rule", lhs, rhs, witness=(R.labels[k],), fmt=fmt)
    return report


def _certificates(H: OreAlgebra, generator: AxiomReport) -> dict:
    """The axioms :func:`verify_extension` decides in every degree, each mapped to
    the unmarked report of R's checks that decides it, which callers merge, never
    change: coproduct_unit_compatibility always, counit_kills_x_sandwich under (P6),
    coproduct_multiplicative under (P1)-(P4) and counit_weak_multiplicative under
    (P1)-(P6), the generator clauses (P4) read from ``generator`` and (P3) and (P6)
    from ``H.clauses``."""
    R = H.R
    decided = {"coproduct_unit_compatibility": R.swept(sweep_unit_compatibility)}
    orthogonal = H.clauses.result("counit_delta_orthogonal").passed  # (P6)
    if orthogonal:
        decided["counit_kills_x_sandwich"] = AxiomReport().record_passes(
            "counit_kills_x_sandwich", R.dim ** 2)
    if not generator.passed or not algebra_report(R).passed:  # (P4), (P1)
        return decided
    multiplicative = coproduct_multiplicative_report(R)
    if not multiplicative.passed or H.clauses.ore_data_failure:  # (P2), (P3)
        return decided
    decided["coproduct_multiplicative"] = multiplicative
    if orthogonal:
        counit = R.swept(sweep_counit_weak_multiplicative)
        if counit.passed:  # (P5)
            decided["counit_weak_multiplicative"] = counit
    return decided
