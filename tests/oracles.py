"""Independent oracles: dense textbook implementations used to cross-check
the package's sparse linear algebra.  Deliberately share no code with
weakhopf.linalg."""

import itertools


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
