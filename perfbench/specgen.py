"""Seeded input generator for the benchmark, independent of the weakhopf package.

It builds its own group tables (cyclic, dihedral, S3), writes spec documents
in the package's JSON format for the groupoid algebras M_n(kG) and the
function algebras k^G, and derives variants from them:

* an elementary basis change b_a -> b_a + c*b_b (rationals only), applied to
  mult, comult, unit, counit and antipode, so the constants carry real
  denominators;
* an antipode-only perturbation S(b_j) += c*b_i, which by uniqueness of the
  antipode fails some antipode axiom and nothing else;
* a mult perturbation b_i*b_j += c*b_k with the unit supported on b_i, which
  by construction fails the unit axiom.

Scalars are ``Fraction`` over the rationals and ints reduced mod p over GF(p).
Nothing here imports weakhopf: the answers the benchmark checks are known
from the construction, not from the program under test.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Rationals used for seeded constants: no +-1, so a basis change never
# cancels a structure constant by accident and the work stays seed-invariant.
GENERIC_RATIONALS = tuple(Fraction(n, d) * s for n in range(2, 10) for d in range(2, 10)
                          if math.gcd(n, d) == 1 for s in (1, -1))


class Group:
    """A finite group as a multiplication table with the identity at index 0."""

    def __init__(self, name, table):
        self.name = name
        self.table = table
        self.order = len(table)
        self.inverse = [next(j for j in range(self.order) if table[i][j] == 0)
                        for i in range(self.order)]

    def conjugacy_classes(self):
        seen, count = set(), 0
        for x in range(self.order):
            if x in seen:
                continue
            count += 1
            for g in range(self.order):
                seen.add(self.table[self.table[g][x]][self.inverse[g]])
        return count


def cyclic(m):
    return Group(f"Z{m}", [[(i + j) % m for j in range(m)] for i in range(m)])


def dihedral(n):
    """D_n of order 2n; r^k s^e has index k + n*e."""
    def mul(a, b):
        (k1, e1), (k2, e2) = divmod(a, n)[::-1], divmod(b, n)[::-1]
        k = (k1 + (k2 if e1 == 0 else -k2)) % n
        return k + n * ((e1 + e2) % 2)
    return Group(f"D{n}", [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def symmetric3():
    perms = [(0, 1, 2)] + [p for p in itertools.permutations(range(3)) if p != (0, 1, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(3))] for q in perms] for p in perms]
    return Group("S3", table)


class Instance:
    """Structure constants of a weak Hopf algebra, in the package's conventions.

    mult[(i, j)] = {k: c} for b_i b_j; comult[k] = {(i, j): c} for Delta(b_k);
    antipode[j] = {i: c} for S(b_j); unit and counit are {index: c}.
    ``p`` is None over the rationals.
    """

    def __init__(self, name, p, labels, mult, unit, comult, counit, antipode):
        self.name, self.p, self.labels = name, p, labels
        self.dim = len(labels)
        self.mult, self.unit, self.comult = mult, unit, comult
        self.counit, self.antipode = counit, antipode

    def norm(self, c):
        return c if self.p is None else c % self.p

    def fmt(self, c):
        return str(c) if self.p is None else c % self.p

    def field_json(self):
        return {"kind": "rationals"} if self.p is None else {"kind": "prime", "p": self.p}

    def copy(self, name):
        return Instance(name, self.p, list(self.labels),
                        {ij: dict(v) for ij, v in self.mult.items()}, dict(self.unit),
                        {k: dict(v) for k, v in self.comult.items()}, dict(self.counit),
                        {j: dict(v) for j, v in self.antipode.items()})

    def to_doc(self):
        dense = lambda vec: [self.fmt(vec.get(i, 0)) for i in range(self.dim)]
        return {
            "name": self.name,
            "field": self.field_json(),
            "dim": self.dim,
            "basis": list(self.labels),
            "mult": [[i, j, k, self.fmt(c)] for (i, j), vec in sorted(self.mult.items())
                     for k, c in sorted(vec.items()) if self.norm(c)],
            "unit": dense(self.unit),
            "comult": [[i, j, k, self.fmt(c)] for k, t in sorted(self.comult.items())
                       for (i, j), c in sorted(t.items()) if self.norm(c)],
            "counit": dense(self.counit),
            "antipode": [dense(self.antipode.get(j, {})) for j in range(self.dim)],
        }


def _acc(out, key, c):
    out[key] = out.get(key, 0) + c


def groupoid_index(n, g, i, j):
    """Index of the basis element g E_ij of M_n(kG), as in the package."""
    return (g * n + i) * n + j


def groupoid_algebra(group: Group, n: int, p=None) -> Instance:
    """M_n(kG): (g E_ij)(h E_st) = [j = s] gh E_it, g E_ij grouplike-like, S = g^-1 E_ji."""
    m = group.order
    idx = lambda g, i, j: groupoid_index(n, g, i, j)
    labels = [f"g{g}E{i + 1}{j + 1}" for g in range(m) for i in range(n) for j in range(n)]
    mult = {}
    for g, h in itertools.product(range(m), repeat=2):
        for i, j, t in itertools.product(range(n), repeat=3):
            mult[(idx(g, i, j), idx(h, j, t))] = {idx(group.table[g][h], i, t): 1}
    dim = m * n * n
    return Instance(f"M{n}(k{group.name})", p, labels, mult,
                    {idx(0, i, i): 1 for i in range(n)},
                    {k: {(k, k): 1} for k in range(dim)},
                    {k: 1 for k in range(dim)},
                    {idx(g, i, j): {idx(group.inverse[g], j, i): 1}
                     for g in range(m) for i in range(n) for j in range(n)})


def function_algebra(group: Group, p=None) -> Instance:
    """k^G: e_g e_h = [g = h] e_g, Delta(e_g) = sum_{hk = g} e_h (x) e_k, S(e_g) = e_{g^-1}."""
    m = group.order
    comult = {g: {} for g in range(m)}
    for h, k in itertools.product(range(m), repeat=2):
        comult[group.table[h][k]][(h, k)] = 1
    return Instance(f"k^{group.name}", p, [f"e{g}" for g in range(m)],
                    {(g, g): {g: 1} for g in range(m)}, {g: 1 for g in range(m)},
                    comult, {0: 1}, {g: {group.inverse[g]: 1} for g in range(m)})


def basis_change(inst: Instance, a: int, b: int, c: Fraction) -> Instance:
    """Rewrite every structure map in the basis b'_a = b_a + c*b_b (a != b)."""
    if inst.p is not None or a == b or not c:
        raise ValueError("basis change needs the rationals, a != b and c != 0")
    old = lambda x: {x: 1, b: c} if x == a else {x: 1}   # new basis vector in old coordinates

    def to_new(vec):                                    # old coordinates -> new
        out = dict(vec)
        if out.get(a):
            _acc(out, b, -c * out[a])
        return {k: v for k, v in out.items() if v}

    def apply_bilinear(table, x, y):
        out = {}
        for r, cr in old(x).items():
            for s, cs in old(y).items():
                for k, v in table.get((r, s), {}).items():
                    _acc(out, k, cr * cs * v)
        return to_new(out)

    n = inst.dim
    mult = {}
    for x, y in itertools.product(range(n), repeat=2):
        vec = apply_bilinear(inst.mult, x, y)
        if vec:
            mult[(x, y)] = vec
    comult = {}
    for k in range(n):
        t = {}
        for r, cr in old(k).items():
            for (i, j), v in inst.comult.get(r, {}).items():
                for i2, ci in to_new({i: 1}).items():
                    for j2, cj in to_new({j: 1}).items():
                        _acc(t, (i2, j2), cr * v * ci * cj)
        comult[k] = {ij: v for ij, v in t.items() if v}
    counit = {}
    antipode = {}
    for x in range(n):
        e = sum((cr * inst.counit.get(r, 0) for r, cr in old(x).items()), Fraction(0))
        if e:
            counit[x] = e
        image = {}
        for r, cr in old(x).items():
            for i, v in inst.antipode.get(r, {}).items():
                _acc(image, i, cr * v)
        antipode[x] = to_new(image)
    return Instance(f"{inst.name}~b{a}+({c})b{b}", None, inst.labels, mult,
                    to_new(inst.unit), comult, counit, antipode)


def perturb_antipode(inst: Instance, j: int, i: int, c) -> Instance:
    """S(b_j) += c*b_i: only the antipode axioms can fail."""
    out = inst.copy(f"{inst.name}!S[{i},{j}]")
    col = out.antipode.setdefault(j, {})
    col[i] = out.norm(col.get(i, 0) + c)
    return out


def perturb_mult(inst: Instance, i: int, j: int, k: int, c) -> Instance:
    """b_i*b_j += c*b_k with unit[i] != 0, so 1*b_j != b_j: the unit axiom fails."""
    if not inst.norm(inst.unit.get(i, 0)):
        raise ValueError("the perturbed left factor must be in the support of the unit")
    out = inst.copy(f"{inst.name}!m[{i},{j},{k}]")
    vec = out.mult.setdefault((i, j), {})
    vec[k] = out.norm(vec.get(k, 0) + c)
    return out


def scalar(p, text):
    """A serialized scalar as Fraction (rationals) or residue (GF(p))."""
    return Fraction(text) if p is None else int(text) % p


def doc_stats(doc, degree_bound=None):
    """Field, dim and nnz of mult, comult, Delta(1) and delta for a spec document."""
    p = doc["field"].get("p")
    unit = {k: scalar(p, v) for k, v in enumerate(doc["unit"]) if scalar(p, v)}
    delta_one = {}
    for i, j, k, c in doc["comult"]:
        if k in unit:
            _acc(delta_one, (i, j), unit[k] * scalar(p, c))
    norm = (lambda x: x) if p is None else (lambda x: x % p)
    delta = (doc.get("maps") or {}).get("delta")
    return {
        "field": "QQ" if p is None else f"GF({p})",
        "dim": doc["dim"],
        "nnz_mult": len(doc["mult"]),
        "nnz_comult": len(doc["comult"]),
        "nnz_delta_one": sum(1 for v in delta_one.values() if norm(v)),
        "nnz_delta": None if delta is None else sum(1 for col in delta for v in col
                                                    if scalar(p, v)),
        "degree_bound": degree_bound,
    }
