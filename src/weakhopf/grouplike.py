"""Weak group-like elements, weak characters and winding endomorphisms.

A weak group-like g satisfies Delta(g) = Delta(1)(g (x) g) = (g (x) g)Delta(1);
the invertible ones are the group-likes.  A weak character is a functional
whose winding map is a unital algebra endomorphism; :class:`Character`
decides that, and the convolution inverses, for one functional.  For matrix
algebras the weak group-likes are enumerated in closed form (partial
injections) and cross-checkable by exhaustive scan over a small prime field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .bialgebra import WeakBialgebra, convolution
from .errors import TooLarge
from .groupoid import GroupoidAlgebra, matrix_algebra
from .linalg import Matrix, solve


# The most elements an exhaustive scan or an enumeration may visit.
SCAN_LIMIT = 10 ** 6
# The most work a brute-force scan may do: p^dim candidates times dim^2 plus
# the number of residues in its tables.  kZ16 over GF(2) (5.1*10^7) is
# admitted; kZ19 over GF(2) (5.8*10^8) is refused.
SCAN_WORK_LIMIT = 10 ** 8


@dataclass(frozen=True)
class WeakGrouplike:
    element: dict
    is_invertible: bool


def is_weak_grouplike(wb: WeakBialgebra, g: dict) -> bool:
    dg, gg, d1 = wb.comultiply(g), wb.pure(g, g), wb.delta_one()
    return dg == wb.tensor_mul(d1, gg) and dg == wb.tensor_mul(gg, d1)


def grouplike_inverse(wb: WeakBialgebra, g: dict, lambda_g: Matrix) -> dict | None:
    """The y with g y = 1, solved on lambda_g (r -> g r), if also y g = 1; else None."""
    y = solve(lambda_g, wb.unit)
    if y is None or wb.multiply(y, g) != wb.unit:
        return None
    return y


@dataclass
class GrouplikeEnumeration:
    """All weak group-likes of M_n(k): the zero element is kept apart."""

    algebra: GroupoidAlgebra  # the M_n(k) instance the elements live in
    grouplikes: list          # nonzero weak group-likes (partial injections)
    zero: WeakGrouplike

    @property
    def invertible(self):
        return [g for g in self.grouplikes if g.is_invertible]


def enumerate_weak_grouplikes_matrix(n: int, field=None) -> GrouplikeEnumeration:
    """Enumerate the weak group-likes sum_{i in I} E_{i sigma(i)} of M_n(k).

    Ranges over subsets I of {1..n} and injections sigma: I -> {1..n}; the
    empty subset gives the zero element, which is reported separately and
    not counted among the group-like monoid elements.  Exactly the full
    bijections are flagged invertible (the permutation matrices).  Raises
    TooLarge, before M_n(k) is built, when the count sum_k C(n,k) P(n,k)
    exceeds SCAN_LIMIT (from n = 8 on).
    """
    count = 0
    for size in range(1, n + 1):
        count += math.comb(n, size) * math.perm(n, size)
        if count > SCAN_LIMIT:
            raise TooLarge(f"M_{n} has more than {SCAN_LIMIT} weak group-likes to enumerate")
    alg = matrix_algebra(n, field)
    one = alg.field.one()
    out = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            for targets in itertools.permutations(range(n), size):
                vec = {alg.basis_index(0, i, s): one for i, s in zip(subset, targets)}
                out.append(WeakGrouplike(vec, size == n))
    return GrouplikeEnumeration(alg, out, WeakGrouplike({}, False))


def brute_force_weak_grouplikes(wb: WeakBialgebra):
    """Exhaustive scan for weak group-likes over a prime field GF(p) (includes 0).

    Visits all p^dim coefficient vectors in ``itertools.product`` order.
    Before the loop it takes, as integer residues mod p over the slots
    a*dim + b of R (x) R, every Delta(b_k) and, for every basis pair (i, j),
    Delta(1)(b_i (x) b_j) and (b_i (x) b_j)Delta(1), all computed on the
    residue tables of ``wb.integer_view`` and kept as :meth:`Field.reduce`
    keeps them.
    A candidate g = sum_i g_i b_i is then a tuple of ints: Delta(g) is
    sum_k g_k Delta(b_k) and each quadratic side sum_{i,j} g_i g_j times the
    pair's entry, summed as dense int lists and compared mod p, the second
    side only when the first agrees.  Every hit is rebuilt as a dict of
    field elements and returned only if :func:`is_weak_grouplike` holds.
    Raises TooLarge, before the first candidate, when p^dim exceeds
    SCAN_LIMIT or p^dim times (dim^2 + the number of residues in the
    tables) exceeds SCAN_WORK_LIMIT.
    """
    field, p = wb.field, wb.field.p
    if p is None:
        raise TooLarge("brute force requires a finite prime field")
    if p ** wb.dim > SCAN_LIMIT:
        raise TooLarge(f"{p}^{wb.dim} coefficient vectors exceed the scan limit")
    dim, ints = wb.dim, wb.integer_view
    d1 = ints.delta_one()

    def residues(t):  # an int 2-tensor as ((slot, residue), ...), zeros mod p dropped
        return tuple((a * dim + b, r) for (a, b), r in field.reduce(t).items())

    coproducts = [residues(ints.coproduct(k)) for k in wb.keys]
    left = [[residues(ints.tensor_mul(d1, {(i, j): 1})) for j in wb.keys] for i in wb.keys]
    right = [[residues(ints.tensor_mul({(i, j): 1}, d1)) for j in wb.keys] for i in wb.keys]
    terms = sum(map(len, coproducts)) + sum(len(t) for rows in (left, right)
                                            for row in rows for t in row)
    if p ** dim * (dim * dim + terms) > SCAN_WORK_LIMIT:
        raise TooLarge(f"{p}^{dim} candidates times {dim * dim + terms} table terms "
                       f"exceed the scan work limit")

    def agrees(dg, coeffs, support, table):
        side = [0] * (dim * dim)
        for i in support:
            row, gi = table[i], coeffs[i]
            for j in support:
                c = gi * coeffs[j]
                for slot, r in row[j]:
                    side[slot] += c * r
        return all((x - y) % p == 0 for x, y in zip(dg, side))

    found = []
    for coeffs in itertools.product(range(p), repeat=dim):
        support = [i for i, c in enumerate(coeffs) if c]
        dg = [0] * (dim * dim)
        for k in support:
            c = coeffs[k]
            for slot, r in coproducts[k]:
                dg[slot] += c * r
        if agrees(dg, coeffs, support, left) and agrees(dg, coeffs, support, right):
            g = {i: field(coeffs[i]) for i in support}
            if is_weak_grouplike(wb, g):
                found.append(g)
    return found


def winding(wb: WeakBialgebra, chi: dict, side: str) -> Matrix:
    """Matrix of the winding map tau_chi on the basis.

    side="left":  a -> chi(a_1) a_2;  side="right": a -> a_1 chi(a_2).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    read = 0 if side == "left" else 1
    data = {}
    for k in wb.keys:
        for pair, c in wb.coproduct(k).items():
            x = chi.get(pair[read])
            if x:
                key = (pair[1 - read], k)
                data[key] = data.get(key, wb.zero) + c * x
    return Matrix(wb.field, wb.dim, wb.dim, data)


def is_unital_algebra_endo(wb: WeakBialgebra, m: Matrix):
    """Return a failing witness tuple or None if m is a unital algebra endomorphism.

    Compares L m(b_i b_j) with m(b_i) m(b_j), and m(1) with L 1, as ints on
    R's integer view (scale D), m's columns held as ints at one scale L by
    :meth:`Field.to_ints`: the sides carry the scale D L^2, and D L for the
    unit; over GF(p) they are compared mod p.
    """
    view = wb.integer_view
    L, cols = wb.field.to_ints(m.column_dicts())
    image = cols.__getitem__
    lift = (lambda v: {k: L * c for k, c in v.items()}) if L != 1 else (lambda v: v)
    if not view.agree(view.apply(image, view.unit), lift(view.unit), (0, 0)):
        return ("unit",)
    for i in wb.keys:
        for j in wb.keys:
            if not view.agree(lift(view.apply(image, view.product(i, j))),
                              view.multiply(cols[i], cols[j]), (0, 0)):
                return (i, j)
    return None


class Character:
    """A functional chi on wb decided as a weak character, each value computed
    once, on first use: its windings ``left`` (tau_chi^l) and ``right``
    (tau_chi^r), the :func:`is_unital_algebra_endo` witness of each
    (``left_failure``, ``right_failure``, None when the winding is a unital
    algebra map) and its one-sided convolution inverses.

    chi' * chi = chi' o tau_chi^r and chi * chi' = chi' o tau_chi^l, so the
    left inverse solves tau^T chi' = eps on the right winding tau and the right
    inverse on the left winding; a solution is kept only if its convolution
    with chi gives eps.
    """

    def __init__(self, wb: WeakBialgebra, chi: dict):
        self.wb, self.chi = wb, chi

    @cached_property
    def left(self) -> Matrix:
        return winding(self.wb, self.chi, "left")

    @cached_property
    def right(self) -> Matrix:
        return winding(self.wb, self.chi, "right")

    @cached_property
    def left_failure(self):
        return is_unital_algebra_endo(self.wb, self.left)

    @cached_property
    def right_failure(self):
        return is_unital_algebra_endo(self.wb, self.right)

    @cached_property
    def left_inverse(self) -> dict | None:  # chi' with chi' * chi = eps
        return self._inverse(self.right, lambda sol: convolution(sol, self.chi, self.wb))

    @cached_property
    def right_inverse(self) -> dict | None:  # chi' with chi * chi' = eps
        return self._inverse(self.left, lambda sol: convolution(self.chi, sol, self.wb))

    @property
    def inverse(self) -> dict | None:
        """The two-sided convolution inverse, or None: in a monoid a right and a
        left inverse coincide."""
        right = self.right_inverse
        return right if right is not None and self.left_inverse is not None else None

    def _inverse(self, tau: Matrix, convolve) -> dict | None:
        eps = self.wb.counit_vector
        sol = solve(tau.transpose(), eps)
        return sol if sol is not None and convolve(sol) == eps else None
