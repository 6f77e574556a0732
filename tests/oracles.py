"""Independent oracles: dense textbook implementations used to cross-check
the package's sparse linear algebra.  Deliberately share no code with
weakhopf.linalg.  The reference evaluators of the delta-linear conditions
(the sigma-Leibniz rule and four Panov clauses) decide them in field
scalars on R itself, as the package did before it wrote them as int
residuals, and the reference row builders write their systems in field
scalars, slot by slot.  The reference sides of the antipode sandwich and
of the unit-coproduct compatibility are the sweeps' sums before they were
factored, term by term on any basis view.  The span of the words over a
generating set is built densely, length by length, and the weak counit
multiplicativity is checked triple by triple, one scalar sum per side."""

import itertools
from fractions import Fraction


def dense_rref(rows, ncols, field):
    """In-place reduced row echelon form on dense rows; returns pivot columns."""
    m = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivot_cols


def dense_nullspace(rows, ncols, field):
    """Nullspace basis (dense lists) via textbook Gaussian elimination."""
    m, pivot_cols = dense_rref(rows, ncols, field)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for rr, pc in enumerate(pivot_cols):
            v[pc] = -m[rr][fc]
        basis.append(v)
    return basis


def dense_solve(rows, b, ncols, field):
    """One solution of rows * x = b with free variables zero (dense list), or None.

    Reduces the augmented matrix [rows | b]; the system is inconsistent
    exactly when the last column takes a pivot.
    """
    m, pivot_cols = dense_rref([list(r) + [bi] for r, bi in zip(rows, b)], ncols + 1, field)
    if ncols in pivot_cols:
        return None
    x = [field.zero()] * ncols
    for rr, pc in enumerate(pivot_cols):
        x[pc] = m[rr][ncols]
    return x


def dense_rank(rows, ncols, field):
    return len(dense_rref(rows, ncols, field)[1])


def dense_word_span(alg, S):
    """A dense basis of the span W of the nonempty right-nested words
    s_1 (s_2 (... s_k)) over the keys S, in alg's field scalars: W_1 is spanned
    by the basis vectors of S and W_(k+1) by W_k and s w for s in S and w in a
    basis of W_k, until a length adds nothing."""
    field, dim, one = alg.field, alg.dim, alg.field.one()
    zero = field.zero()
    basis, rows = [], [[one if i == s else zero for i in range(dim)] for s in S]
    while True:
        m, pivots = dense_rref(rows, dim, field)
        if len(pivots) == len(basis):
            return basis
        basis = m[:len(pivots)]
        words = [alg.multiply({s: one}, {i: x for i, x in enumerate(w) if x})
                 for s in S for w in basis]
        rows = basis + [[v.get(i, zero) for i in range(dim)] for v in words]


def dense_matmul(a, b, field):
    """Product of dense row-major matrices."""
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[field.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            x = a[i][k]
            if not x:
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + x * b[k][j]
    return out


def to_dense(matrix):
    """weakhopf Matrix -> dense row-major list of lists."""
    zero = matrix.field.zero()
    out = [[zero for _ in range(matrix.cols)] for _ in range(matrix.rows)]
    for (i, j), c in matrix.data.items():
        out[i][j] = c
    return out


def field_rows(system, scale):
    """The distinct rows of a compiled int system (``system.equations``) as field
    rows, each a tuple of (column, scalar) pairs in column order: over QQ each
    int divided by ``scale``, over GF(p) each residue as a field element."""
    field = system.field
    value = field if field.p is not None else (lambda c: Fraction(c, scale))
    return {tuple((col, value(c)) for col, c in sorted(row.items())) for row in system.equations}


def dense_rows(rows, ncols, field):
    """Rows given as tuples of (column, scalar) pairs, as dense lists of ncols scalars."""
    dense = []
    for row in rows:
        line = [field.zero()] * ncols
        for col, c in row:
            line[col] = c
        dense.append(line)
    return dense


def dense_unknowns(m):
    """A dim x dim weakhopf Matrix as the dense list of the dim^2 unknowns
    X[r*dim + k], the coefficient of b_r in the image of b_k."""
    zero = m.field.zero()
    return [m.data.get(divmod(i, m.cols), zero) for i in range(m.rows * m.cols)]


def reference_coderivation_rows(wb, lambda_g, lambda_h):
    """The distinct nonzero rows of the linear system whose kernel is the space of
    (g,h)-coderivations, each a tuple of (column, scalar) pairs in column order.

    lambda_g and lambda_h are the left multiplications by g and h (L_g and L_h
    below).  With unknowns X[r][k] (coefficient of b_r in delta(b_k), flattened
    as column r*dim + k) the defining identity reads, per basis element k and
    tensor slot (u, v),

        sum_r d[u][v][r] X[r][k]
          - sum_{(i,j)} d[i][j][k] (L_g[u][i] X[v][j] + L_h[v][j] X[u][i]) = 0.

    Each row is summed straight from the structure constants, slot by slot.
    """
    dim = wb.dim
    lg_cols, lh_cols = lambda_g.column_dicts(), lambda_h.column_dicts()
    zero = wb.field.zero()

    def unknown(r, k):
        return r * dim + k

    rows = set()
    for k in range(dim):
        lhs_rows = {}
        for r in range(dim):
            for (u, v), c in wb.coproduct(r).items():
                row = lhs_rows.setdefault((u, v), {})
                row[unknown(r, k)] = row.get(unknown(r, k), zero) + c
        for (i, j), c in wb.coproduct(k).items():
            for u, lg in lg_cols[i].items():
                for v in range(dim):
                    row = lhs_rows.setdefault((u, v), {})
                    row[unknown(v, j)] = row.get(unknown(v, j), zero) - c * lg
            for v, lh in lh_cols[j].items():
                for u in range(dim):
                    row = lhs_rows.setdefault((u, v), {})
                    row[unknown(u, i)] = row.get(unknown(u, i), zero) - c * lh
        for row in lhs_rows.values():
            cleaned = tuple((col, row[col]) for col in sorted(row) if row[col])
            if cleaned:
                rows.add(cleaned)
    return rows


def reference_alpha_rows(ga, chi):
    """The distinct nonzero rows of the linear system cutting out the twisted
    functionals alpha (alpha(ab) = alpha(a) eps(b) + chi(a) alpha(b) on basis
    pairs, alpha(E_ii) = 0), each a tuple of (column, scalar) pairs in column order."""
    dim = ga.dim
    zero = ga.field.zero()
    rows = []
    for i in range(dim):
        for j in range(dim):
            row = {}
            for k, c in ga.product(i, j).items():
                row[k] = row.get(k, zero) + c
            e = ga.counit(j)
            if e:
                row[i] = row.get(i, zero) - e
            x = chi.get(i, zero)
            if x:
                row[j] = row.get(j, zero) - x
            rows.append(row)
    for idx in ga.diagonal_unit_indices():
        rows.append({idx: ga.field.one()})
    cleaned = (tuple((c, v) for c, v in sorted(row.items()) if v) for row in rows)
    return {row for row in cleaned if row}


def dense_associativity_failures(alg):
    """Sorted list of every basis triple (a, b, c) with (b_a b_b) b_c != b_a (b_b b_c).

    Textbook evaluation on dense coefficient lists from the multiplication
    table of ``alg``; every triple is computed, none is skipped.
    """
    dim, zero, one = alg.dim, alg.field.zero(), alg.field.one()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), v in alg.mult.items():
        for k, c in v.items():
            table[a][b][k] = c
    basis = [[one if k == i else zero for k in range(dim)] for i in range(dim)]

    def times(u, v):
        out = [zero] * dim
        for i in range(dim):
            for j in range(dim):
                if u[i] and v[j]:
                    out = [o + u[i] * v[j] * t for o, t in zip(out, table[i][j])]
        return out

    return sorted((a, b, c) for a in range(dim) for b in range(dim) for c in range(dim)
                  if times(table[a][b], basis[c]) != times(basis[a], table[b][c]))


def ore_reference_product(R, sigma, delta, p, q):
    """Product in R[x; sigma, delta] of p and q, given as dicts (b, n) -> c for sum c b_b x^n.

    Cache-free textbook rewriting, straight from the structure constants of R
    and the dense sigma and delta matrices: x^n a is expanded as
    (x^(n-1) sigma(a)) x + x^(n-1) delta(a), recursively, which is
    x a = sigma(a) x + delta(a) applied from the inside out.  Returns a dict
    without zero entries.
    """
    dim, zero = R.dim, R.field.zero()
    S, D = to_dense(sigma), to_dense(delta)
    mult = R.mult

    def apply(m, a):
        return [sum((m[r][c] * a[c] for c in range(dim) if a[c]), zero) for r in range(dim)]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    def times(a, b):
        out = [zero] * dim
        for (i, j), v in mult.items():
            if a[i] and b[j]:
                for k, c in v.items():
                    out[k] = out[k] + a[i] * b[j] * c
        return out

    def x_power_times(n, a):
        if n == 0:
            return [a]
        shifted = [[zero] * dim] + x_power_times(n - 1, apply(S, a))
        rest = x_power_times(n - 1, apply(D, a)) + [[zero] * dim]
        return [add(u, v) for u, v in zip(shifted, rest)]

    def basis(b):
        return [R.field.one() if k == b else zero for k in range(dim)]

    out = {}
    for (r, i), c in p.items():
        for (u, j), e in q.items():
            for n, coeff in enumerate(x_power_times(i, basis(u))):
                for b, y in enumerate(times(basis(r), coeff)):
                    out[(b, n + j)] = out.get((b, n + j), zero) + c * e * y
    return {k: c for k, c in out.items() if c}


def ore_tensor(slots):
    """An element of H (x) H given as {(i, j): R (x) R tensor as a dict (r, s) -> c},
    flattened onto the monomial keys ((r, i), (s, j)) of ``sum (r (x) s)(x^i (x) x^j)``."""
    return {((r, i), (s, j)): c for (i, j), t in slots.items() for (r, s), c in t.items()}


def ore_slot(t, i, j):
    """The R (x) R coefficient of x^i (x) x^j in a flat H (x) H tensor, keyed (r, s)."""
    return {(r, s): c for ((r, a), (s, b)), c in t.items() if (a, b) == (i, j)}


def dense_tensor_mul(alg, s, t):
    """(a (x) b)(c (x) d) = ac (x) bd for 2-tensors s, t given as dicts (i, j) -> c.

    Textbook evaluation on dense coefficient arrays: the multiplication
    table of ``alg`` as a dim x dim x dim array and both tensors as dim x dim
    arrays; every index quadruple is summed.  Returns a dict without zero
    entries.
    """
    dim, zero = alg.dim, alg.field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (a, b), v in alg.mult.items():
        for k, c in v.items():
            table[a][b][k] = c

    def dense(d):
        out = [[zero] * dim for _ in range(dim)]
        for (i, j), c in d.items():
            out[i][j] = c
        return out

    S, T = dense(s), dense(t)
    out = [[zero] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for l in range(dim):
                    c = S[i][j] * T[k][l]
                    if not c:
                        continue
                    for r in range(dim):
                        x = c * table[i][k][r]
                        if x:
                            for w in range(dim):
                                out[r][w] = out[r][w] + x * table[j][l][w]
    return {(r, w): out[r][w] for r in range(dim) for w in range(dim) if out[r][w]}


def pure_tensor(u, v):
    """u (x) v for two elements given as dicts i -> scalar, as a dict (i, j) -> scalar."""
    return {(i, j): a * b for i, a in u.items() for j, b in v.items()}


def dense_vector(v, dim, field):
    """An element given as a dict i -> scalar, as a dense list of dim scalars."""
    return [v.get(i, field.zero()) for i in range(dim)]


def definition_weak_grouplikes(wb):
    """Every coefficient vector over GF(p), in ``itertools.product`` order, that
    satisfies the definition Delta(g) = Delta(1)(g (x) g) = (g (x) g)Delta(1),
    decided by ``is_weak_grouplike`` on each candidate in turn."""
    from weakhopf.grouplike import is_weak_grouplike
    found = []
    for coeffs in itertools.product(map(wb.field, range(wb.field.p)), repeat=wb.dim):
        g = {i: c for i, c in enumerate(coeffs) if c}
        if is_weak_grouplike(wb, g):
            found.append(g)
    return found


def dense_residue_scan(wb):
    """Every coefficient vector over GF(p), in ``itertools.product`` order, whose
    Delta(g), Delta(1)(g (x) g) and (g (x) g)Delta(1) agree mod p as dense int
    lists over the slots a*dim + b of R (x) R, and that ``is_weak_grouplike``
    then confirms: the unpruned scan, with no limit on p^dim.

    The int lists are built from residue tables of every Delta(b_k) and, for
    every basis pair (i, j), Delta(1)(b_i (x) b_j) and (b_i (x) b_j)Delta(1),
    computed on ``wb.integer_view``; the second side is compared only when the
    first agrees."""
    from weakhopf.grouplike import is_weak_grouplike
    field, p, dim, ints = wb.field, wb.field.p, wb.dim, wb.integer_view
    d1 = ints.delta_one()

    def residues(t):  # an int 2-tensor as ((slot, residue), ...), zeros mod p dropped
        return tuple((a * dim + b, r) for (a, b), r in field.reduce(t).items())

    coproducts = [residues(ints.coproduct(k)) for k in wb.keys]
    left = [[residues(ints.tensor_mul(d1, {(i, j): 1})) for j in wb.keys] for i in wb.keys]
    right = [[residues(ints.tensor_mul({(i, j): 1}, d1)) for j in wb.keys] for i in wb.keys]

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


def _nonzero_sum(terms, zero):
    """The sum of the (key, scalar) pairs, as a dict without zero entries."""
    out = {}
    for key, x in terms:
        out[key] = out.get(key, zero) + x
    return {key: x for key, x in out.items() if x}


def reference_antipode_sandwiches(view):
    """{k: S(k_1) k_2 S(k_3)} over a basis view's sweep keys, without zero entries:
    one term (S(a) b) S(d) per triple (a, b, d) of (Delta (x) id)Delta(k), the
    coefficient of a triple summed over the terms of Delta(k) that reach it."""
    one, S, mul, out = view.one, view.antipode, view.multiply, {}
    for k in view.keys:
        triples = view.comultiply_leg(view.coproduct(k), 0)
        terms = ((key, c * x) for (a, b, d), c in triples.items()
                 for key, x in mul(mul(S(a), {b: one}), S(d)).items())
        out[k] = _nonzero_sum(terms, view.zero)
    return out


def reference_unit_compatibility(view):
    """{"left": (Delta(1) (x) 1)(1 (x) Delta(1)), "right": (1 (x) Delta(1))(Delta(1) (x) 1)}
    on a basis view, without zero entries: one pure tensor per pair of terms
    x a (x) b, y c (x) d of Delta(1), x y (a 1) (x) b c (x) (1 d) on the left and
    x y (1 c) (x) a d (x) (b 1) on the right."""
    one, unit, mul, d1 = view.one, view.unit, view.multiply, view.delta_one()
    times_unit = lambda k: mul({k: one}, unit)
    unit_times = lambda k: mul(unit, {k: one})
    sides = {"left": [], "right": []}
    for ((a, b), x), ((c, d), y) in itertools.product(d1.items(), repeat=2):
        for side, legs in (("left", (times_unit(a), mul({b: one}, {c: one}), unit_times(d))),
                           ("right", (unit_times(c), mul({a: one}, {d: one}), times_unit(b)))):
            sides[side].extend(((k, l, m), x * y * u * v * w) for k, u in legs[0].items()
                               for l, v in legs[1].items() for m, w in legs[2].items())
    return {side: _nonzero_sum(terms, view.zero) for side, terms in sides.items()}


def reference_endo_witness(wb, m):
    """The first failing witness of "m is a unital algebra endomorphism" in field
    scalars on wb's own tables: ("unit",) if m(1) != 1, else the first basis
    pair (i, j), in row-major order, with m(b_i b_j) != m(b_i) m(b_j), else None."""
    cols = m.column_dicts()
    image = lambda v: wb.apply(cols.__getitem__, v)
    if image(wb.unit) != wb.unit:
        return ("unit",)
    for i in wb.keys:
        for j in wb.keys:
            if image(wb.product(i, j)) != wb.multiply(cols[i], cols[j]):
                return (i, j)
    return None


# -- the delta-linear conditions, in field scalars ---------------------------------------
# Unknowns X[r*dim + k]: the coefficient of b_r in delta(b_k).


def reference_leibniz_failure(wb, sigma, delta):
    """The first basis pair (i, j, lhs, rhs) where delta(b_i b_j) = lhs differs
    from delta(b_i) b_j + sigma(b_i) delta(b_j) = rhs, or None."""
    one = wb.one
    dcols, scols = delta.column_dicts(), sigma.column_dicts()
    for i in wb.keys:
        for j in wb.keys:
            lhs = wb.apply(dcols.__getitem__, wb.product(i, j))
            rhs = wb.add(wb.multiply(dcols[i], {j: one}), wb.multiply(scols[i], dcols[j]))
            if lhs != rhs:
                return i, j, lhs, rhs
    return None


def reference_coderivation_failure(wb, delta, lambda_g, lambda_h):
    """The first k where Delta(delta(b_k)) differs from
    (lambda_g (x) delta + delta (x) lambda_h) Delta(b_k), both sides summed on R
    in field scalars, or None."""
    d = delta.column_dicts().__getitem__
    lg, lh = lambda_g.column_dicts().__getitem__, lambda_h.column_dicts().__getitem__
    for k in wb.keys:
        t = wb.coproduct(k)
        if wb.comultiply(d(k)) != wb.add(wb.map_legs(t, lg, d), wb.map_legs(t, d, lh)):
            return k
    return None


def reference_eps_a_delta_b_zero(wb, delta):
    """Witness (i, j) with eps(b_i delta(b_j)) != 0, or None, in the loop order
    i, then j; eps(b_i delta(b_j)) is summed from eps(b_i b_k) over the column j
    of delta."""
    dcols = delta.column_dicts()
    for i in wb.keys:
        for j in wb.keys:
            if sum((c * wb.eps_pair(i, k) for k, c in dcols[j].items()), wb.zero):
                return (i, j)
    return None


def reference_delta_kills_source_base(wb, delta):
    """(passed, witness) of delta(R_s) = 0: the witness is the first basis element
    of R_s that delta does not kill, formatted."""
    _, basis_s = wb.base_subalgebras
    dlt = delta.column_dicts().__getitem__
    bad = next((a for a in basis_s if wb.apply(dlt, a)), None)
    return bad is None, None if bad is None else (wb.format_element(bad),)


def reference_antipode_delta_compat(wb, sigma, delta, lambda_g):
    """(passed, witness) of delta S sigma = lambda_g S delta, from the four matrix
    products compared column by column: the witness is (label,) of the first
    basis element on which they differ."""
    S = wb.antipode_matrix
    lhs, rhs = delta * S * sigma, lambda_g * S * delta
    pairs = zip(wb.labels, lhs.column_dicts(), rhs.column_dicts())
    witness = next(((label,) for label, a, b in pairs if a != b), None)
    return witness is None, witness


def _distinct_rows(rows):
    """The distinct nonzero rows of a dict key -> {column: scalar}, each a tuple of
    (column, scalar) pairs in column order."""
    cleaned = (tuple((c, v) for c, v in sorted(row.items()) if v) for row in rows.values())
    return {row for row in cleaned if row}


def _add(rows, key, col, c):
    """rows[key][col] += c, a missing entry reading as zero."""
    row = rows.setdefault(key, {})
    row[col] = row[col] + c if col in row else c


def reference_leibniz_rows(wb, sigma):
    """The rows of delta(b_i b_j) - delta(b_i) b_j - sigma(b_i) delta(b_j) = 0, one per
    coefficient b_u and basis pair (i, j), from the structure constants of R."""
    dim, S = wb.dim, to_dense(sigma)
    rows = {}
    for i in range(dim):
        for j in range(dim):
            for k, c in wb.product(i, j).items():  # sum_k m_ij^k delta(b_k)
                for u in range(dim):
                    _add(rows, (i, j, u), u * dim + k, c)
            for r in range(dim):  # delta(b_i) b_j = sum_r X[r, i] b_r b_j
                for u, c in wb.product(r, j).items():
                    _add(rows, (i, j, u), r * dim + i, -c)
            for s in range(dim):  # sigma(b_i) delta(b_j) = sum_{s,r} S[s][i] X[r, j] b_s b_r
                if S[s][i]:
                    for r in range(dim):
                        for u, c in wb.product(s, r).items():
                            _add(rows, (i, j, u), r * dim + j, -S[s][i] * c)
    return _distinct_rows(rows)


def reference_counit_delta_rows(wb):
    """The rows of eps(b_i delta(b_j)) = 0, eps(b_i b_r) summed from the counit."""
    dim, rows = wb.dim, {}
    for i in range(dim):
        for r in range(dim):
            e = sum((c * wb.counit(k) for k, c in wb.product(i, r).items()), wb.zero)
            for j in range(dim):
                _add(rows, (i, j), r * dim + j, e)
    return _distinct_rows(rows)


def reference_source_base_rows(wb, basis_s):
    """The rows of delta(a) = 0 for each a in basis_s, one per coefficient b_u."""
    dim, rows = wb.dim, {}
    for s, a in enumerate(basis_s):
        for k, c in a.items():
            for u in range(dim):
                _add(rows, (s, u), u * dim + k, c)
    return _distinct_rows(rows)


def reference_antipode_delta_rows(wb, sigma, lambda_g):
    """The rows of delta S sigma - lambda_g S delta = 0, one per basis element b_m
    and coefficient b_u, on dense products of S, sigma and lambda_g."""
    dim, field, S = wb.dim, wb.field, to_dense(wb.antipode_matrix)
    s_sigma = dense_matmul(S, to_dense(sigma), field)
    g_s = dense_matmul(to_dense(lambda_g), S, field)
    rows = {}
    for m in range(dim):
        for u in range(dim):
            for k in range(dim):  # delta S sigma(b_m) = sum_k (S sigma)[k][m] delta(b_k)
                _add(rows, (m, u), u * dim + k, s_sigma[k][m])
            for r in range(dim):  # lambda_g S delta(b_m) = sum_r X[r, m] lambda_g S(b_r)
                _add(rows, (m, u), r * dim + m, -g_s[u][r])
    return _distinct_rows(rows)


def reference_counit_weak_multiplicative(view, report):
    """eps(fmh) = eps(f m_1) eps(m_2 h) = eps(f m_2) eps(m_1 h) on every key triple of a
    basis view, checked triple by triple, each side one scalar sum over the
    structure constants, at the sweep's weights 3/5 and with its witnesses."""
    from weakhopf.bialgebra import _check

    zero, eps, keys = view.zero, view.eps_pair, view.keys
    for f in keys:
        for m in keys:
            fm, dm = view.product(f, m), view.coproduct(m)
            for h in keys:
                lhs = sum((c * eps(k, h) for k, c in fm.items()), zero)
                rhs1 = sum((c * eps(f, i) * eps(j, h) for (i, j), c in dm.items()), zero)
                rhs2 = sum((c * eps(f, j) * eps(i, h) for (i, j), c in dm.items()), zero)
                for rhs in (rhs1, rhs2):
                    _check(report, "counit_weak_multiplicative", lhs, rhs, view, (f, m, h),
                           (3, 5))
