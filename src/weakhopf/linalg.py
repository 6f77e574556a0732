"""Sparse exact linear algebra over a fixed field.

A vector is a plain dict index -> nonzero scalar, the form the basis views
of bialgebra.py use for elements of R; a missing index reads as zero.
:class:`Matrix` stores only nonzero entries, keyed by (row, col), each
passed through :meth:`Field.coerce`, and is immutable after construction;
its column dicts are built once, on first use, and shared by every reader,
which must not modify them.  Every other vector an operation returns is a
new dict without zeros, for callers to keep.

Elimination (:func:`_rref`) is exact Gauss-Jordan on plain Python ints.
Its rows are dicts column -> nonzero int, field rows as
:meth:`Field.to_ints` holds them, at any nonzero scale.
:func:`constraint_matrix` compiles a linear residual straight into such
rows, every row at the one scale S the residual works at (see there), and
keeps each distinct row once; :func:`residual_kernel` eliminates them and
re-checks every kernel vector with the residual on ints.  The
:class:`Matrix` entry points (rank, kernel_basis, solve and
column_space_basis) convert the rows once, at entry, by
:meth:`Field.to_ints`.  Only what a caller reads goes back to field
scalars, as the field's quotient of two ints: the entries of the kernel
vectors, or the solution column of :func:`solve`.  Pivoting is
deterministic: columns in order, and for each column the lowest-index row
that has not taken a pivot and is nonzero there.  The reduced row echelon
form is unique, so kernel bases and solutions are exactly those of
elimination in field arithmetic, and reproducible for a fixed input.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatch, ValidationError


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


def _rref(rows, ncols, field, augmented_from=None):
    """Reduce a list of sparse int rows (dicts col -> nonzero int) to reduced row echelon form.

    The rows are taken as they are, at any nonzero scale (the rows of
    :func:`constraint_matrix` are all at S, those of a :class:`Matrix` at
    the one scale :meth:`Field.to_ints` gives them).  Returns the
    pair (pivots, leftover).  ``pivots`` lists (row, col) pairs, in
    increasing col, where ``row`` is the reduced int row, a nonzero multiple
    of the field row with a 1 in column col; nothing is converted back, and
    a caller reads a field entry as field(row[c]) / field(row[col]).
    ``leftover`` holds the nonzero rows that took no pivot, likewise only
    multiples, so read it only for its support.  If ``augmented_from`` is
    given, columns >= augmented_from are never chosen as pivots
    (augmented-system solving).  The input rows are not modified, and the
    returned rows must not be.

    Each update is row := a*row - f*pivot_row with a the pivot entry and f
    the row's entry in the pivot column, followed by dividing the row by the
    gcd of its entries over QQ, or reducing it mod p over GF(p).  Every
    working row stays a nonzero multiple of the row that field arithmetic
    with a normalised pivot would hold, so pivots and supports agree with it
    step by step.
    """
    prime = field.p
    work = list(rows)
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
    leftover = [row for ri, row in enumerate(work) if row and ri not in used]
    return [(work[ri], col) for ri, col in pivots], leftover


def _pivots(m: Matrix):
    """The pivots of :func:`_rref` on the rows of m."""
    return _rref(m.field.to_ints(m.row_dicts())[1], m.cols, m.field)[0]


class IntegerSystem:
    """The equations of :func:`constraint_matrix`: ``equations`` lists the
    distinct rows, each a dict column -> nonzero int, ``rows`` counts them
    and ``cols`` is the number of unknowns."""

    __slots__ = ("field", "cols", "equations", "rows")

    def __init__(self, field, cols, equations):
        self.field, self.cols, self.equations = field, cols, equations
        self.rows = len(equations)


def constraint_matrix(field, n: int, residual) -> IntegerSystem:
    """The equations residual(X) = 0 in n unknowns, as distinct int rows.

    residual is a linear map from int vectors (dicts index -> int) to dicts
    key -> nonzero int, reduced mod p over GF(p); over QQ it is S times a
    field-valued linear residual for one integer S.  Column c of the system
    is residual(e_c) for the unit vector e_c = {c: 1}, and each key it
    reaches is a row, S times the field row.  Each distinct row is kept
    once, and the rows are sorted by their support, the columns in
    increasing order (ties keep the order their keys first appear in):
    neither changes the kernel.
    """
    rows = {}
    for c in range(n):
        for key, v in residual({c: 1}).items():
            rows.setdefault(key, {})[c] = v
    distinct = {tuple(row.items()): row for row in rows.values()}
    return IntegerSystem(field, n, sorted(distinct.values(), key=list))


def rank(m: Matrix) -> int:
    return len(_pivots(m))


def _kernel(pivots, ncols, field):
    """Basis of the null space from the pivots of :func:`_rref`: free columns
    in increasing order, each vector with a single unit entry in its free
    column; only its entries are converted to field scalars."""
    pivot_cols = {col for _, col in pivots}
    basis = []
    one = field.one()
    for free in range(ncols):
        if free in pivot_cols:
            continue
        data = {free: one}
        for row, col in pivots:
            c = row.get(free)
            if c:
                data[col] = field(-c) / field(row[col])
        basis.append(data)
    return basis


def kernel_basis(m: Matrix):
    """Basis of the right null space {v : m*v = 0}, in reduced echelon convention.

    Deterministic: free columns in increasing order, each basis vector has a
    single unit entry in its free column.
    """
    return _kernel(_pivots(m), m.cols, m.field)


def residual_kernel(system: IntegerSystem, residual) -> list:
    """The null space of the system compiled from residual, in the convention of
    :func:`kernel_basis`, each vector re-checked by residual: held as ints by
    :meth:`Field.to_ints`, it must give no nonzero entry, and a vector that
    does raises ValidationError naming its smallest key."""
    field = system.field
    basis = _kernel(_rref(system.equations, system.cols, field)[0], system.cols, field)
    for vec in basis:
        if defect := residual(field.to_ints([vec])[1][0]):
            raise ValidationError(f"kernel vector fails its residual at {min(defect)}")
    return basis


def solve(m: Matrix, b: dict) -> dict | None:
    """One solution of m*x = b with all free variables set to zero, or None."""
    rows = m.row_dicts()
    for i, c in b.items():
        rows[i][m.cols] = c
    field = m.field
    pivots, leftover = _rref(field.to_ints(rows)[1], m.cols + 1, field, augmented_from=m.cols)
    for row in leftover:
        if row.get(m.cols):
            return None
    data = {}
    for row, col in pivots:
        c = row.get(m.cols)
        if c:
            data[col] = field(c) / field(row[col])
    return data


def column_space_basis(m: Matrix):
    """The pivot columns of m, as vectors (deterministic image basis)."""
    cols = m.column_dicts()
    return [dict(cols[col]) for _, col in _pivots(m)]
