"""Decision procedures for Hopf-type Ore extension data, and their examples.

Given a weak bialgebra R with automorphism sigma, sigma-derivation delta
and weak group-like g, these procedures decide whether the coalgebra (and,
for weak Hopf algebras, the antipode) extends to R[x; sigma, delta] with x
a (g,1)-primitive generator: the Panov-style conditions.  Every clause is
evaluated exhaustively and reported individually, at most once per datum
(:class:`PanovClauses`); each procedure is an ordered tuple of clause names.

The second half constructs the worked family over connected groupoid
algebras M_n(kG): their characters chi(g E_ij) = q_i^-1 q_j rho(g), the
twisted functionals alpha with alpha(ab) = alpha(a) eps(b) + chi(a) alpha(b),
and the derivation delta = (1 - g) tau_alpha^l built from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .bialgebra import WeakBialgebra, WeakHopfAlgebra, base_subalgebras, convolution
from .coderivations import _coderivation_failure, is_sigma_derivation
from .errors import InvalidGroupCharacter, NotCentral, NotGrouplike, ValidationError, ZeroScale
from .groupoid import GroupoidAlgebra
from .grouplike import Character, grouplike_inverse, is_weak_grouplike, winding
from .linalg import Matrix, constraint_matrix, residual_kernel
from .report import _fmt_witness


@dataclass(frozen=True)
class ClauseResult:
    clause: str
    passed: bool
    witness: tuple | None = None


@dataclass
class PanovVerdict:
    """Outcome of a condition check: per-clause results plus the extracted character."""

    clauses: list = dc_field(default_factory=list)
    chi: dict | None = None

    @property
    def passed(self):
        return all(c.passed for c in self.clauses)

    def lines(self):
        out = []
        for c in self.clauses:
            suffix = f" witness={_fmt_witness(c.witness)}" if (not c.passed and c.witness) else ""
            out.append(f"CLAUSE {c.clause} {'PASS' if c.passed else 'FAIL'}{suffix}")
        out.append(f"VERDICT {'PASS' if self.passed else 'FAIL'}")
        return out


def _columns_agree(wb, lhs, rhs):
    """(passed, witness) for lhs = rhs: the witness is (label,) of the first
    basis element on which the maps differ, or None."""
    pairs = zip(wb.labels, lhs.column_dicts(), rhs.column_dicts())
    witness = next(((label,) for label, a, b in pairs if a != b), None)
    return witness is None, witness


def eps_a_delta_b_zero(wb: WeakBialgebra, delta: Matrix):
    """Witness (i, j) with eps(b_i delta(b_j)) != 0, or None.

    eps(b_i delta(b_j)) is summed from the cached eps(b_i b_k) over the
    column j of delta, each column read once.
    """
    dcols = delta.column_dicts()
    for i in wb.keys:
        for j in wb.keys:
            if wb.eps_mul(i, dcols[j]):
                return (i, j)
    return None


NECESSARY = ("g_weak_grouplike", "eps_t_g_is_unit", "delta_is_skew_coderivation",
             "sigma_is_left_winding", "chi_weak_left_character", "chi_has_right_inverse",
             "coproduct_sigma_g_twist", "coproduct_sigma_g_twist_expanded",
             "coproduct_sigma_left_factor", "coproduct_delta_twisted_leibniz")
SUFFICIENT = ("g_grouplike_invertible", "counit_delta_orthogonal", "chi_is_character",
              "sigma_is_left_winding", "sigma_is_adjoint_right_winding",
              "delta_is_skew_coderivation")
HOPF = ("delta_kills_source_base", "chi_is_character", "sigma_is_left_winding",
        "g_grouplike_invertible", "sigma_is_adjoint_right_winding", "delta_is_skew_coderivation",
        "antipode_conjugation_compat", "antipode_delta_compat")


class PanovClauses:
    """The Panov clauses of one Ore datum (sigma, delta, g) over wb.

    Clause ``name`` is evaluated by the method ``_name``, which returns
    (passed, witness), at most once per object and only when asked for; a
    clause may read another's result.  What several clauses read is computed
    once, on first use: chi = eps o sigma as one :class:`Character` (its
    windings, their endomorphism checks and its convolution inverses),
    lambda_g, g^-1 solved on it, and Ad_g.
    Two pairs of clause names state one identity each and read one result:
    the sigma twist (coproduct_sigma_g_twist and its expanded form) and the
    skew-coderivation identity (delta_is_skew_coderivation and
    coproduct_delta_twisted_leibniz).
    """

    def __init__(self, wb: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict):
        self.wb, self.sigma, self.delta, self.g = wb, sigma, delta, g
        self.character = Character(wb, sigma.apply_functional(wb.counit_vector))  # eps o sigma
        self._results = {}

    def result(self, name) -> ClauseResult:
        hit = self._results.get(name)
        if hit is None:
            hit = self._results[name] = ClauseResult(name, *getattr(self, "_" + name)())
        return hit

    def verdict(self, names) -> PanovVerdict:
        """The clauses ``names`` in order, with chi when sigma is its left winding."""
        verdict = PanovVerdict([self.result(name) for name in names])
        if "sigma_is_left_winding" in names and self.result("sigma_is_left_winding").passed:
            verdict.chi = self.character.chi
        return verdict

    # -- shared quantities --------------------------------------------------

    @cached_property
    def _lambda_g(self) -> Matrix:
        return self.wb.left_mult_matrix(self.g)

    @cached_property
    def _g_inverse(self) -> dict | None:  # None unless g is an invertible group-like
        if not self.result("g_weak_grouplike").passed:
            return None
        return grouplike_inverse(self.wb, self.g, self._lambda_g)

    @cached_property
    def _adg(self) -> Matrix | None:  # a -> g a g^-1, on the g^-1 of _g_inverse
        g_inv = self._g_inverse
        return None if g_inv is None else self._lambda_g * self.wb.right_mult_matrix(g_inv)

    @cached_property
    def _sigma_coproducts(self) -> list:  # Delta(sigma(b_k)) for every k
        return [self.wb.comultiply(col) for col in self.sigma.column_dicts()]

    @cached_property
    def _sigma_twist(self):
        """(passed, witness) of Delta(sigma(b_k))(g (x) 1) = (lambda_g (x) sigma)Delta(b_k),
        which in a unital R is also (g (x) 1)(id (x) sigma)Delta(b_k): the twisted
        compatibility and its expanded form are this one identity."""
        wb, g_left = self.wb, self._lambda_g.column_dicts().__getitem__
        sig = self.sigma.column_dicts().__getitem__
        g1 = wb.pure(self.g, wb.unit)
        for k in wb.keys:
            lhs = wb.tensor_mul(self._sigma_coproducts[k], g1)
            if lhs != wb.map_legs(wb.coproduct(k), g_left, sig):
                return False, (wb.labels[k],)
        return True, None

    @cached_property
    def _skew_coderivation_failure(self):
        """The first k where Delta(delta(b_k)) differs from
        g b_k1 (x) delta(b_k2) + delta(b_k1) (x) b_k2, or None."""
        lambda_1 = self.wb.left_mult_matrix(self.wb.unit)
        return _coderivation_failure(self.wb, self.delta, self._lambda_g, lambda_1)

    # -- the clauses: each returns (passed, witness) ------------------------

    def _g_weak_grouplike(self):
        return is_weak_grouplike(self.wb, self.g), (self.wb.format_element(self.g),)

    def _g_grouplike_invertible(self):
        return self._g_inverse is not None, (self.wb.format_element(self.g),)

    def _eps_t_g_is_unit(self):
        eps_t_g = self.wb.eps_t(self.g)
        return eps_t_g == self.wb.unit, (self.wb.format_element(eps_t_g),)

    def _delta_is_skew_coderivation(self):
        return self._skew_coderivation_failure is None, None

    def _sigma_is_left_winding(self):
        return _columns_agree(self.wb, self.character.left, self.sigma)

    def _chi_weak_left_character(self):
        return self.character.left_failure is None, None

    def _chi_has_right_inverse(self):
        return self.character.right_inverse is not None, None

    def _chi_is_character(self):
        c = self.character
        return (c.left_failure is None and c.right_failure is None
                and c.inverse is not None), None

    def _sigma_is_adjoint_right_winding(self):
        if self._adg is None:
            return False, ("g not invertible",)
        return self._adg * self.character.right == self.sigma, None

    def _counit_delta_orthogonal(self):
        witness = eps_a_delta_b_zero(self.wb, self.delta)
        return witness is None, witness

    def _coproduct_sigma_g_twist(self):
        return self._sigma_twist

    def _coproduct_sigma_g_twist_expanded(self):
        return self._sigma_twist

    def _coproduct_sigma_left_factor(self):
        wb, sig = self.wb, self.sigma.column_dicts().__getitem__
        return all(self._sigma_coproducts[k] == wb.map_legs(wb.coproduct(k), sig)
                   for k in wb.keys), None

    def _coproduct_delta_twisted_leibniz(self):
        k = self._skew_coderivation_failure
        return k is None, None if k is None else (self.wb.labels[k],)

    def _delta_kills_source_base(self):
        _, basis_s = base_subalgebras(self.wb)
        dlt = self.delta.column_dicts().__getitem__
        bad = next((a for a in basis_s if self.wb.apply(dlt, a)), None)
        return bad is None, None if bad is None else (self.wb.format_element(bad),)

    def _antipode_conjugation_compat(self):
        if self._adg is None:
            return False, ("g not invertible",)
        S = self.wb.antipode_matrix
        return _columns_agree(self.wb, self._adg * S, self.sigma * S * self.sigma)

    def _antipode_delta_compat(self):
        S = self.wb.antipode_matrix
        return _columns_agree(self.wb, self.delta * S * self.sigma,
                              self._lambda_g * S * self.delta)


def panov_necessary(wb: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions forced on (sigma, delta, g) by an extension with (g,1)-primitive x.

    Clauses: eps_t(g) = 1; delta is a (g,1)-coderivation; sigma is the left
    winding of chi = eps o sigma, with chi a weak left character admitting a
    right convolution inverse; and the twisted compatibility
    Delta(sigma(a)) (g (x) 1) = (g (x) 1)(id (x) sigma) Delta(a).  The two
    coefficient identities Delta(sigma(a)) = sigma(a_1) (x) a_2 and
    Delta(delta(a)) = g a_1 (x) delta(a_2) + delta(a_1) (x) a_2 are recorded
    as separate clauses (the first compatibility identity coincides with the
    twisted one above once expanded).
    """
    return PanovClauses(wb, sigma, delta, g).verdict(NECESSARY)


def panov_sufficient(wb: WeakBialgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions under which the coalgebra extends to R[x; sigma, delta].

    Clauses: g is an invertible weak group-like; eps(a delta(b)) = 0 on all
    basis pairs; chi = eps o sigma is a character (weak character on both
    sides with a two-sided convolution inverse); sigma = tau_chi^l;
    sigma = Ad_g tau_chi^r; delta is a (g,1)-coderivation.
    """
    return PanovClauses(wb, sigma, delta, g).verdict(SUFFICIENT)


def hopf_conditions(wha: WeakHopfAlgebra, sigma: Matrix, delta: Matrix, g: dict) -> PanovVerdict:
    """Conditions under which the antipode also extends, with S(x) = -S(g) x.

    The hypothesis delta(R_s) = 0 is checked first, then: (i) sigma is the
    left winding and the g-adjoint right winding of a character chi;
    (ii) delta is a (g,1)-coderivation; (iii) Ad_g S = sigma S sigma;
    (iv) delta S sigma = lambda_g S delta.
    """
    if not isinstance(wha, WeakHopfAlgebra):
        raise ValidationError("hopf conditions require an antipode on the coefficients")
    return PanovClauses(wha, sigma, delta, g).verdict(HOPF)


# ---------------------------------------------------------------------------
# Groupoid-algebra constructions
# ---------------------------------------------------------------------------


def groupoid_character(ga: GroupoidAlgebra, rho, q) -> Character:
    """The character chi(g E_ij) = q_i^-1 q_j rho(g) of M_n(kG), as a
    :class:`Character` whose ``chi`` is the functional.

    rho is a list of |G| nonzero scalars forming a group character, q a list
    of n nonzero scalars (only the ratios q_i^-1 q_j matter); Python ints
    are taken as field elements, other foreign scalars refused by
    :meth:`Field.coerce`.  The result is verified to be a two-sided weak
    character (both its windings are built, once) whose convolution inverse
    is chi o S; a failure raises, since the family is closed-form.
    """
    group, n = ga.group, ga.n
    rho = [ga.field.coerce(x) for x in rho]
    q = [ga.field.coerce(x) for x in q]
    if len(rho) != group.order:
        raise InvalidGroupCharacter(f"rho must list {group.order} values")
    if rho[0] != ga.field.one():
        raise InvalidGroupCharacter("rho(identity) must be 1")
    for g in range(group.order):
        if not rho[g]:
            raise InvalidGroupCharacter(f"rho({group.labels[g]}) = 0")
        for h in range(group.order):
            if rho[group.mul(g, h)] != rho[g] * rho[h]:
                raise InvalidGroupCharacter(
                    f"rho not multiplicative at ({group.labels[g]},{group.labels[h]})")
    if len(q) != n:
        raise ZeroScale(f"q must list {n} values")
    for qi in q:
        if not qi:
            raise ZeroScale("q entries must be nonzero")

    chi = {ga.basis_index(g, i, j): c for g in range(group.order)
           for i in range(n) for j in range(n) if (c := q[j] / q[i] * rho[g])}

    character = Character(ga, chi)
    if character.left_failure is not None or character.right_failure is not None:
        raise ValidationError("groupoid character failed the winding check")
    chi_s = ga.antipode_matrix.apply_functional(chi)
    eps = ga.counit_vector
    if convolution(chi_s, chi, ga) != eps or convolution(chi, chi_s, ga) != eps:
        raise ValidationError("chi o S is not the convolution inverse of chi")
    return character


def alpha_residual(ga: GroupoidAlgebra, chi: dict):
    """The linear map alpha -> alpha(b_i b_j) - alpha(b_i) eps(b_j) - chi(b_i) alpha(b_j)
    keyed (i, j), and alpha(E_ii) keyed (idx,), on ints, as a dict without zeros.

    alpha, and chi at its scale L, are held as ints by :meth:`Field.to_ints`.
    The products and eps come from R's integer view (scale D), so every
    term is brought to one scale S = D L: the product and eps terms times L,
    the chi terms times D and alpha(E_ii) times D L, and every entry is kept
    as :meth:`Field.reduce` keeps it.  It visits only alpha's support,
    through the products b_i b_j indexed once by the basis elements they
    reach."""
    view, field = ga.integer_view, ga.field
    (L, (chi,)), D = field.to_ints([chi]), view.scale
    reach = {}
    for i in ga.keys:
        for j in ga.keys:
            for k, c in view.product(i, j).items():
                reach.setdefault(k, []).append((i, j, c * L))
    eps = {j: -e * L for j in ga.keys if (e := view.counit(j))}
    chi = {i: -x * D for i, x in chi.items()}
    diagonal = set(ga.diagonal_unit_indices())

    def residual(alpha: dict) -> dict:
        out = {}
        for k, a in alpha.items():
            for i, j, c in reach.get(k, ()):
                out[i, j] = out.get((i, j), 0) + c * a
            for j, e in eps.items():
                out[k, j] = out.get((k, j), 0) + a * e
            for i, x in chi.items():
                out[i, k] = out.get((i, k), 0) + x * a
            if k in diagonal:
                out[k,] = a * D * L
        return field.reduce(out)
    return residual


def solve_alpha(ga: GroupoidAlgebra, chi: dict) -> list:
    """A basis of the alpha with alpha(ab) = alpha(a) eps(b) + chi(a) alpha(b) and
    alpha(E_ii) = 0: one :func:`alpha_residual`, compiled on ints and solved by
    :func:`linalg.residual_kernel`, which re-checks every solution with it."""
    residual = alpha_residual(ga, chi)
    return residual_kernel(constraint_matrix(ga.field, ga.dim, residual), residual)


def build_twisted_derivation(wb: WeakBialgebra, g: dict, sigma: Matrix, alpha: dict) -> Matrix:
    """The derivation delta = (1 - g) tau_alpha^l for a central group-like g,
    sigma being the tau_chi^l the caller built.

    The output is verified to be a sigma-derivation, and by the clause
    table of the datum (sigma, delta, g), which first checks g (clause
    g_grouplike_invertible), a (g,1)-coderivation vanishing on R_s.
    """
    one_minus_g = wb.add(wb.unit, {k: -c for k, c in g.items()})
    delta = wb.left_mult_matrix(one_minus_g) * winding(wb, alpha, "left")
    clauses = PanovClauses(wb, sigma, delta, g)
    if not clauses.result("g_grouplike_invertible").passed:
        raise NotGrouplike(f"{wb.format_element(g)} is not an invertible weak group-like")
    for k in range(wb.dim):
        bk = wb.basis_vector(k)
        if wb.multiply(g, bk) != wb.multiply(bk, g):
            raise NotCentral(f"g does not commute with {wb.labels[k]}")
    if not is_sigma_derivation(wb, sigma, delta):
        raise ValidationError("constructed delta is not a sigma-derivation")
    if not clauses.result("delta_is_skew_coderivation").passed:
        raise ValidationError("constructed delta is not a (g,1)-coderivation")
    if not clauses.result("delta_kills_source_base").passed:
        raise ValidationError("constructed delta does not kill R_s")
    return delta
