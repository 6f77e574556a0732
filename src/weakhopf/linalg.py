"""Sparse exact linear algebra over a fixed field.

A vector is a plain dict index -> nonzero scalar, the form the basis views
of bialgebra.py use for elements of R; a missing index reads as zero.
:class:`Matrix` stores only nonzero entries, keyed by (row, col), each
passed through :meth:`Field.coerce`, and is immutable after construction;
its column dicts are built once, on first use, and shared by every reader,
which must not modify them.  Every other vector an operation returns is a
new dict without zeros, for callers to keep.

:func:`constraint_matrix` compiles a linear residual into the matrix of
its equations.  Elimination (:func:`_rref`, behind rank, kernel_basis, solve and
column_space_basis) is exact Gauss-Jordan on plain Python ints: a row over
QQ enters scaled by the lcm of its denominators, a row over GF(p) as its
residues, and each row is kept divided by the gcd of its entries (QQ) or
reduced mod p.  Results become field elements once, at the end.  Pivoting
is deterministic: columns in order, and for each column the lowest-index
row that has not taken a pivot and is nonzero there.  The reduced row
echelon form is unique, so kernel bases and solutions are exactly those of
elimination in field arithmetic, and reproducible for a fixed input.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionMismatch


class Matrix:
    """Sparse matrix; entries keyed by (row, col), no zeros stored."""

    __slots__ = ("field", "rows", "cols", "data", "_columns")

    def __init__(self, field, rows, cols, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = {rc: v for rc, c in (data or {}).items() if (v := field.coerce(c))}
        for r, c in self.data:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionMismatch(f"entry ({r},{c}) out of range for {rows}x{cols}")
        self._columns = None

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def from_columns(cls, field, rows, columns):
        """The rows x len(columns) matrix whose column j is the vector columns[j]."""
        return cls(field, rows, len(columns),
                   {(i, j): c for j, col in enumerate(columns) for i, c in col.items()})

    def column_dicts(self):
        """Column j as the dict row -> scalar, for every j; built once, not to be modified."""
        if self._columns is None:
            self._columns = [{} for _ in range(self.cols)]
            for (i, j), c in self.data.items():
                self._columns[j][i] = c
        return self._columns

    def row_dicts(self):
        rows = [{} for _ in range(self.rows)]
        for (i, j), c in self.data.items():
            rows[i][j] = c
        return rows

    def transpose(self):
        data = {(j, i): c for (i, j), c in self.data.items()}
        return Matrix(self.field, self.cols, self.rows, data)

    def __mul__(self, other):
        """Matrix product self * other."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matrix product shape/field mismatch")
        zero, cols, data = self.field.zero(), self.column_dicts(), {}
        for (j, k), b in other.data.items():
            for i, a in cols[j].items():
                data[i, k] = data.get((i, k), zero) + a * b
        return Matrix(self.field, self.rows, other.cols, data)

    def apply(self, v: dict) -> dict:
        """Matrix-vector product self * v."""
        zero, cols, out = self.field.zero(), self.column_dicts(), {}
        for j, cv in v.items():
            for i, c in cols[j].items():
                out[i] = out.get(i, zero) + c * cv
        return {i: c for i, c in out.items() if c}

    def apply_functional(self, f: dict) -> dict:
        """Row-functional composition f o self, i.e. f^T * self."""
        zero = self.field.zero()
        out = {}
        for (i, j), c in self.data.items():
            if i in f:
                out[j] = out.get(j, zero) + f[i] * c
        return {j: c for j, c in out.items() if c}

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {dict(sorted(self.data.items()))})"


def _integer_row(row, field):
    """A sparse row of field elements as plain ints on the same support.

    Over QQ the row is scaled by the lcm of its denominators; over GF(p)
    each entry becomes its residue (a Python int entry is first coerced).
    """
    if field.p is None:
        scale = math.lcm(*(v.denominator for v in row.values()))
        return {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
    return {c: r for c, v in row.items() if (r := field.coerce(v).v)}


def _rref(rows, ncols, field, augmented_from=None):
    """Reduce a list of sparse rows (dicts col -> scalar) to reduced row echelon form.

    Returns the triple (pivots, reduced, leftover).  ``pivots`` lists
    (n, col) pairs, in increasing col, where ``reduced[n]`` is the reduced
    row with a 1 in column col.  ``leftover`` holds the nonzero rows that
    took no pivot, as int rows that are nonzero multiples of what field
    arithmetic would leave there, so read it only for its support.  If
    ``augmented_from`` is given, columns >= augmented_from are never chosen
    as pivots (augmented-system solving).  The input rows are not modified.

    The elimination runs on plain ints (see the module docstring): each
    update is row := a*row - f*pivot_row with a the pivot entry and f the
    row's entry in the pivot column, followed by dividing the row by the
    gcd of its entries over QQ, or reducing it mod p over GF(p).  Every
    working row stays a nonzero multiple of the row that field arithmetic
    with a normalised pivot would hold, so pivots and supports agree with
    it step by step, and the reduced rows are converted back once.
    """
    prime = field.p
    work = [_integer_row(r, field) for r in rows]
    holders = [set() for _ in range(ncols)]  # col -> indices of the rows nonzero there
    for ri, row in enumerate(work):
        for c in row:
            holders[c].add(ri)
    used = set()
    pivots = []
    for col in range(ncols if augmented_from is None else augmented_from):
        hold = holders[col]
        pr = min((ri for ri in hold if ri not in used), default=None)
        if pr is None:
            continue
        prow = work[pr]
        a = prow[col]
        for ri in [ri for ri in hold if ri != pr]:
            row = work[ri]
            f = row[col]
            new = dict(row) if a == 1 else {c: a * v for c, v in row.items()}
            for c, v in prow.items():
                new[c] = new.get(c, 0) - f * v
            if prime is None:
                new = {c: v for c, v in new.items() if v}
                g = math.gcd(*new.values())
                if g > 1:
                    new = {c: v // g for c, v in new.items()}
            else:
                new = {c: r for c, v in new.items() if (r := v % prime)}
            for c in row.keys() - new.keys():
                holders[c].discard(ri)
            for c in new.keys() - row.keys():
                holders[c].add(ri)
            work[ri] = new
        used.add(pr)
        pivots.append((pr, col))
    if prime is None:
        reduced = [{c: Fraction(v, work[ri][col]) for c, v in work[ri].items()}
                   for ri, col in pivots]
    else:
        reduced = []
        for ri, col in pivots:
            inv = pow(work[ri][col], -1, prime)
            reduced.append({c: field(v * inv) for c, v in work[ri].items()})
    leftover = [row for ri, row in enumerate(work) if row and ri not in used]
    return [(n, col) for n, (_, col) in enumerate(pivots)], reduced, leftover


def constraint_matrix(field, n: int, residual) -> Matrix:
    """The equations residual(X) = 0 in n unknowns, as a matrix.

    residual is a linear map from vectors to dicts key -> nonzero scalar, so
    column c of the system is residual(e_c) for the unit vector e_c, and
    each key it reaches is a row.  Rows are sorted by their support, the
    columns in increasing order (ties keep the order their keys first
    appear in), and rows that repeat are kept: neither changes the kernel.
    """
    one, rows = field.one(), {}
    for c in range(n):
        for key, v in residual({c: one}).items():
            rows.setdefault(key, {})[c] = v
    ordered = sorted(rows.values(), key=list)
    return Matrix(field, len(ordered), n,
                  {(r, c): v for r, row in enumerate(ordered) for c, v in row.items()})


def rank(m: Matrix) -> int:
    pivots, _, _ = _rref(m.row_dicts(), m.cols, m.field)
    return len(pivots)


def kernel_basis(m: Matrix):
    """Basis of the right null space {v : m*v = 0}, in reduced echelon convention.

    Deterministic: free columns in increasing order, each basis vector has a
    single unit entry in its free column.
    """
    pivots, reduced, _ = _rref(m.row_dicts(), m.cols, m.field)
    pivot_cols = {col for _, col in pivots}
    basis = []
    one = m.field.one()
    for free in range(m.cols):
        if free in pivot_cols:
            continue
        data = {free: one}
        for r, col in pivots:
            c = reduced[r].get(free)
            if c:
                data[col] = -c
        basis.append(data)
    return basis


def solve(m: Matrix, b: dict) -> dict | None:
    """One solution of m*x = b with all free variables set to zero, or None."""
    rows = m.row_dicts()
    for i, c in b.items():
        rows[i][m.cols] = c
    pivots, reduced, leftover = _rref(rows, m.cols + 1, m.field, augmented_from=m.cols)
    for row in leftover:
        if row.get(m.cols):
            return None
    data = {}
    for r, col in pivots:
        c = reduced[r].get(m.cols)
        if c:
            data[col] = c
    return data


def column_space_basis(m: Matrix):
    """The pivot columns of m, as vectors (deterministic image basis)."""
    pivots, _, _ = _rref(m.row_dicts(), m.cols, m.field)
    cols = m.column_dicts()
    return [dict(cols[col]) for _, col in pivots]

