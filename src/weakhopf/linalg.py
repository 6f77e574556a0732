"""Sparse exact linear algebra over a fixed field.

A vector is a plain dict index -> nonzero scalar, the form the basis views
of bialgebra.py use for elements of R; a missing index reads as zero.
:class:`Matrix` stores only nonzero entries, keyed by (row, col), each
passed through :meth:`Field.coerce`, and is immutable after construction;
its column dicts are built once, on first use, and shared by every reader,
which must not modify them.  Every other vector an operation returns is a
new dict without zeros, for callers to keep.  A product is built column by
column with :meth:`Matrix.apply`, and the rows of a matrix are the columns
of its transpose.

Elimination (:func:`_rref`) is exact, on plain Python ints, a row at a
time: each row is reduced against the pivot rows found so far, and the
pivot rows are back-substituted once every row is in; it returns only its
pivots.  Its rows are dicts column -> nonzero int, field rows as
:meth:`Field.to_ints` holds them, at any nonzero scale.
A linear residual is an int linear map given column by column, the one
closure :func:`linear_residual` makes from its column function.
:func:`constraint_matrix` compiles it straight into such rows, every row at
the one scale S the residual works at (see there), and keeps each distinct
row once, in the order its key first appears; :func:`residual_kernel`
eliminates them and re-checks every kernel vector with the residual on
ints, and :func:`certified_kernel` solves a system of only some of a
residual's equations, its kernel kept only when every vector passes the
whole residual.  The :class:`Matrix` entry points (rank, kernel_basis, solve and
column_space_basis) read the pivots of one matrix by :func:`_pivots`,
which converts its rows once, at entry, by :meth:`Field.to_ints`; solve
eliminates the augmented matrix [m | b].  Only what a caller reads goes
back to field scalars, as the field's quotient of two ints: the entries
of the kernel vectors, or the solution column of :func:`solve`.
The reduced row echelon form is unique, whatever the order of the
elimination, so kernel bases and solutions are exactly those of
elimination in field arithmetic, and reproducible for a fixed input.
The same row-at-a-time step (:func:`_insert`) finds the pivot columns of a
row space (:func:`pivot_columns`) and a greedy generating set of an algebra
(:func:`generating_keys`), the certificates of R's sweeps and, on the dual
algebra R*, of the coderivation solve.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush

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

    def transpose(self):
        data = {(j, i): c for (i, j), c in self.data.items()}
        return Matrix(self.field, self.cols, self.rows, data)

    def __mul__(self, other):
        """Matrix product self * other: column k is self applied to column k of other."""
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matrix product shape/field mismatch")
        return Matrix.from_columns(self.field, self.rows,
                                   [self.apply(col) for col in other.column_dicts()])

    def apply(self, v: dict) -> dict:
        """Matrix-vector product self * v."""
        zero, cols, out = self.field.zero(), self.column_dicts(), {}
        for j, cv in v.items():
            for i, c in cols[j].items():
                out[i] = out.get(i, zero) + c * cv
        return {i: c for i, c in out.items() if c}

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.data == other.data)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {dict(sorted(self.data.items()))})"


def _rref(rows, ncols, field):
    """Reduce a list of sparse int rows (dicts col -> nonzero int) to reduced row echelon form.

    The rows are taken as they are, at any nonzero scale (the rows of
    :func:`constraint_matrix` are all at S, those of a :class:`Matrix` at
    the one scale :meth:`Field.to_ints` gives them), with their columns in
    range(ncols).  Returns the pivots, a list of (row, col) pairs in
    increasing col, where ``row`` is the reduced int row, a nonzero multiple
    of the field row with a 1 in column col and a 0 in every other pivot
    column; nothing is converted back, and a caller reads a field entry as
    field(row[c]) / field(row[col]).  Over QQ each returned row is
    primitive (its entries have gcd 1), over GF(p) each entry is a residue
    in 1..p-1.  The input rows are not modified, and the returned rows must
    not be.

    The rows are eliminated one at a time, in order, by :func:`_insert`:
    :func:`_reduce` clears a copy of each of the pivot columns found so far,
    and a nonzero remainder becomes a new pivot at its smallest column,
    scaled to a positive pivot entry with gcd 1 over QQ and to pivot entry 1
    over GF(p).  Once every column holds a pivot, the rows still to come
    reduce to zero and are not read.  Then each pivot row is cleared of the
    pivot columns above its own, from the highest pivot column down, so it
    only meets rows that are already reduced, and divided by its content
    again.
    """
    prime = field.p
    pivots = {}  # pivot column -> its row, which holds no smaller column
    _insert(rows, pivots, prime, ncols)
    for col in sorted(pivots, reverse=True):
        work = pivots[col]
        held = [c for c in work if c != col and c in pivots]
        if held:
            _reduce(work, held, pivots, prime)
            if prime is None:
                _divide_content(work)
    return [(pivots[col], col) for col in sorted(pivots)]


def _insert(rows, pivots, prime, ncols):
    """Reduce a copy of each int row of rows, in order, against pivots (column ->
    row, as in :func:`_rref` before back-substitution), and keep a nonzero
    remainder as the pivot at its smallest column, scaled as there; once pivots
    holds ncols columns, the rows still to come are not read.  Returns the
    remainder of the last row read: empty when it lies in the span of the
    pivot rows."""
    work = {}
    for row in rows:
        if len(pivots) == ncols:
            return {}
        work = dict(row)
        _reduce(work, [c for c in work if c in pivots], pivots, prime)
        if work:
            col = min(work)
            if prime is None:
                _divide_content(work, work[col] < 0)
            else:
                inverse = pow(work[col], -1, prime)
                for c in work:
                    work[c] = work[c] * inverse % prime
            pivots[col] = work
    return work


def _reduce(work, heap, pivots, prime):
    """Clear the int row work, in place, of the pivot columns listed in heap
    and of those the clearing brings in, in increasing column order.

    Each step is work := a*work - f*prow, where prow is the pivot row at the
    column col popped from the heap and f/a the ratio of the entries in col
    of work and prow in lowest terms; it brings in only columns above col.
    Over GF(p) a pivot entry is 1, so a = 1, and every entry is kept mod p.
    Over QQ a pivot entry is positive, and the row is divided by its content
    after a step with a > 1, the only steps that grow it.
    """
    heapify(heap)
    while heap:
        col = heappop(heap)
        f = work.get(col)
        if f is None:
            continue
        prow = pivots[col]
        a = prow[col]
        if a != 1:
            g = math.gcd(a, f)
            a, f = a // g, f // g
            if a != 1:
                for c in work:
                    work[c] *= a
        for c, v in prow.items():
            if c in work:
                new = work[c] - f * v
                if prime is not None:
                    new %= prime
                if new:
                    work[c] = new
                else:
                    del work[c]
            else:
                work[c] = -f * v if prime is None else -f * v % prime
                if c in pivots:
                    heappush(heap, c)
        if a != 1:
            _divide_content(work)


def _divide_content(work, negate=False):
    """Divide an int row in place by the gcd of its entries, or by minus it."""
    g = math.gcd(*work.values())
    if negate:
        g = -g
    if g != 1:
        for c in work:
            work[c] //= g


def _pivots(m: Matrix):
    """The pivots of :func:`_rref` on the rows of m."""
    return _rref(m.field.to_ints(m.transpose().column_dicts())[1], m.cols, m.field)


class IntegerSystem:
    """The equations of :func:`constraint_matrix`: ``equations`` lists the
    distinct rows, each a dict column -> nonzero int, ``rows`` counts them
    and ``cols`` is the number of unknowns."""

    __slots__ = ("field", "cols", "equations", "rows")

    def __init__(self, field, cols, equations):
        self.field, self.cols, self.equations = field, cols, equations
        self.rows = len(equations)


def linear_residual(field, column):
    """The linear map X -> sum of X[c] column(c), on int vectors, as a dict without zeros.

    column(c) lists the (key, int) terms the unit vector e_c = {c: 1} maps
    to; terms under one key add up.  X is a dict index -> int, which is not
    modified, and every entry of the result is kept as :meth:`Field.reduce`
    keeps it: nonzero, and a residue mod p over GF(p).
    """
    def residual(x: dict) -> dict:
        out = {}
        for c, a in x.items():
            for key, v in column(c):
                out[key] = out.get(key, 0) + a * v
        return field.reduce(out)
    return residual


def constraint_matrix(field, n: int, residual) -> IntegerSystem:
    """The equations residual(X) = 0 in n unknowns, as distinct int rows.

    residual is a linear map from int vectors (dicts index -> int) to dicts
    key -> nonzero int, reduced mod p over GF(p), such as a
    :func:`linear_residual`; over QQ it is S times a field-valued linear
    residual for one integer S.  Column c of the system is residual(e_c),
    and each key it reaches is a row, S times the field row.  Each distinct
    row is kept once, in the order its key first appears: neither the
    repeats nor the order changes the kernel.
    """
    rows = {}
    for c in range(n):
        for key, v in residual({c: 1}).items():
            rows.setdefault(key, {})[c] = v
    distinct = {tuple(row.items()): row for row in rows.values()}
    return IntegerSystem(field, n, list(distinct.values()))


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


def _checked_kernel(system: IntegerSystem, residual):
    """(basis, defect): the null space of the system, in the convention of
    :func:`kernel_basis`, and the smallest key at which residual is nonzero on
    the first of its vectors, held as ints by :meth:`Field.to_ints`, that fails
    residual, or None when every vector passes."""
    field = system.field
    basis = _kernel(_rref(system.equations, system.cols, field), system.cols, field)
    for vec in basis:
        if defect := residual(field.to_ints([vec])[1][0]):
            return basis, min(defect)
    return basis, None


def residual_kernel(system: IntegerSystem, residual) -> list:
    """The null space of the system compiled from residual, in the convention of
    :func:`kernel_basis`, each vector re-checked by residual: held as ints by
    :meth:`Field.to_ints`, it must give no nonzero entry, and a vector that
    does raises ValidationError naming its smallest key."""
    basis, defect = _checked_kernel(system, residual)
    if defect is not None:
        raise ValidationError(f"kernel vector fails its residual at {defect}")
    return basis


def certified_kernel(system: IntegerSystem, residual) -> list | None:
    """The null space of a system compiled from some of the equations
    residual(X) = 0, when every vector of its basis passes residual, else None.

    A system of fewer equations has a null space K' that holds the null space K
    of all of them.  A basis of K' that passes residual lies in K, so K' = K:
    the two systems have one reduced row echelon form, and the basis is the one
    :func:`residual_kernel` gives for the system of every equation, vector for
    vector."""
    basis, defect = _checked_kernel(system, residual)
    return basis if defect is None else None


def solve(m: Matrix, b: dict) -> dict | None:
    """One solution of m*x = b with all free variables set to zero, or None.

    Reads the pivots of the augmented matrix [m | b].  Its last column, b,
    takes a pivot exactly when b is not in the column space of m (then
    None): a pivot row there is zero on m's columns, as a pivot column holds
    a 1 only in its own row.  Every other pivot is then one of m's.  Raises
    DimensionMismatch if b has an index outside range(m.rows).
    """
    field, b_col = m.field, m.cols
    pivots = _pivots(Matrix.from_columns(field, m.rows, [*m.column_dicts(), b]))
    if pivots and pivots[-1][1] == b_col:
        return None
    return {col: field(c) / field(row[col]) for row, col in pivots if (c := row.get(b_col))}


def column_space_basis(m: Matrix):
    """The pivot columns of m, as vectors (deterministic image basis)."""
    cols = m.column_dicts()
    return [dict(cols[col]) for _, col in _pivots(m)]


def pivot_columns(rows, columns, field) -> set:
    """The pivot columns of the row space V of rows, as a set of column keys.

    rows are dicts column -> nonzero int, read as they are: ints at one scale
    over QQ, residues mod p over GF(p), as an integer view's eps rows hold
    them; field rows go through :meth:`Field.to_ints` first.  columns lists
    every column they use, in the order that ranks them.  A vector of V is
    determined by its entries at these columns: V has an echelon basis whose
    rows lead at the distinct pivot columns, and in a combination of them the
    row of smallest pivot column with a nonzero coefficient is the only one
    nonzero at that column.  So the projection of V onto its pivot columns is
    injective.
    """
    index, pivots = {c: i for i, c in enumerate(columns)}, {}
    _insert(({index[c]: x for c, x in row.items()} for row in rows), pivots, field.p, len(columns))
    return {columns[col] for col in pivots}


def generating_keys(n, product, field) -> tuple:
    """A greedy generating set S of an algebra on the basis keys range(n), in order.

    product(a, b) is b_a b_b as a dict key -> int, every entry at one nonzero
    scale (residues mod p over GF(p)).  The keys are walked in order, and a key
    joins S when its basis vector is not in the span W of the nonempty
    right-nested words s_1 (s_2 (... s_k)) over S; W is then closed again under
    left multiplication by S: the new key times every vector of W, and every
    key of S times every vector the closure adds.  So W is always the smallest
    subspace that holds S and is closed under left multiplication by S, and as
    every key's basis vector lies in W when the walk has passed it, W is the
    whole algebra at the end.  The walk stops as soon as it is.
    """
    prime, pivots, basis, S = field.p, {}, [], []

    def times(s, v):  # b_s v
        out = {}
        for j, c in v.items():
            for r, x in product(s, j).items():
                out[r] = out.get(r, 0) + c * x
        return field.reduce(out)

    for k in range(n):
        row = _insert([{k: 1}], pivots, prime, n)
        if not row:
            continue
        S.append(k)
        todo = [times(k, w) for w in basis]
        basis.append(row)
        todo += [times(s, row) for s in S]
        while todo:
            if v := _insert([todo.pop()], pivots, prime, n):
                basis.append(v)
                todo += [times(s, v) for s in S]
    return tuple(S)
