import random
from fractions import Fraction

import pytest

from weakhopf.errors import ParseError, ValidationError
from weakhopf.fields import GF, Field, QQ
from weakhopf.linalg import (Matrix, column_space_basis, constraint_matrix, kernel_basis, rank,
                             residual_kernel, solve)

from lemmas import from_rows_dense, identity, kron
from oracles import (dense_matmul, dense_nullspace, dense_rank, dense_rref, dense_solve,
                     dense_vector, to_dense)


def _random_matrix(rng, field, rows, cols, density=0.6, span=3):
    data = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-span, span)
                if v:
                    data[(i, j)] = field(v)
    return Matrix(field, rows, cols, data)


# -- fields -----------------------------------------------------------------


def test_gf_arithmetic():
    F5 = GF(5)
    assert F5(2) + F5(4) == F5(1)
    assert F5(2) * F5(4) == F5(3)
    assert F5(1) / F5(3) == F5(2)
    assert -F5(2) == F5(3)
    assert F5(2) ** 3 == F5(3)
    assert bool(F5(0)) is False and bool(F5(3)) is True
    with pytest.raises(ZeroDivisionError):
        F5(1) / F5(0)


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_field_parse_format_roundtrip():
    q = Field.rationals()
    for text in ("3", "-3/4", "0", "7/2"):
        assert q.format(q.parse(text)) == str(Fraction(text))
    f3 = Field.prime(3)
    assert f3.parse(5) == f3(2)
    assert f3.format(f3(2)) == 2


def test_field_parse_rejects_bools():
    for field in (Field.rationals(), Field.prime(3)):
        for value in (True, False):
            with pytest.raises(ParseError):
                field.parse(value)


def test_field_parse_accepts_only_the_emitted_forms():
    q, f7 = Field.rationals(), Field.prime(7)
    assert [q.parse(t) for t in ("-3", "2/4", "-0/5")] == [-3, Fraction(1, 2), 0]
    assert f7.parse("-12") == f7(2)
    for field, texts in ((q, ("1e5", "1.5", "+3", " 3", "--1", "3/-4", "1/0", "-7/0", "9" * 5000,
                              "1/" + "9" * 5000, "9" * 5000 + "/2", "3\n", "\u0663")),
                         (f7, ("3/4", "1e5", "+3", "--1", "\u0663", "9" * 5000))):
        for text in texts:
            with pytest.raises(ParseError):
                field.parse(text)


def test_field_coerce_takes_ints_and_own_elements_only():
    q, f7, f5 = Field.rationals(), Field.prime(7), Field.prime(5)
    assert q.coerce(-3) == Fraction(-3) and type(q.coerce(-3)) is Fraction
    assert q.coerce(Fraction(3, 5)) == Fraction(3, 5)
    assert f7.coerce(9) == f7(2) and f7.coerce(f7(3)) == f7(3)
    for field, value in ((q, 1.0), (q, True), (q, "1"), (q, f7(1)), (f7, Fraction(1)),
                         (f7, f5(1)), (f7, False), (f7, 2.0), (f7, "2")):
        with pytest.raises(ValidationError):
            field.coerce(value)


def test_rationals_always_reduced():
    q = Field.rationals()
    x = q.parse("2/4")
    assert (x.numerator, x.denominator) == (1, 2)


# -- vectors and matrices ---------------------------------------------------


def test_matrix_product_against_dense_oracle():
    rng = random.Random(7)
    for _ in range(10):
        a = _random_matrix(rng, QQ, 3, 4)
        b = _random_matrix(rng, QQ, 4, 2)
        expected = dense_matmul(to_dense(a), to_dense(b), QQ)
        assert to_dense(a * b) == expected


def test_matrix_apply_matches_product():
    rng = random.Random(8)
    a = _random_matrix(rng, QQ, 4, 4)
    v = {0: Fraction(1), 1: Fraction(-1), 2: Fraction(2)}
    as_col = Matrix.from_columns(QQ, 4, [v])
    assert (a * as_col).column_dicts()[0] == a.apply(v)


# -- kernels ----------------------------------------------------------------


def test_kernel_identity_trivial():
    assert kernel_basis(identity(QQ, 2)) == []


def test_kernel_rank_one_row():
    m = from_rows_dense(QQ, [[Fraction(1), Fraction(1)]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == {0: Fraction(-1), 1: Fraction(1)}


def test_kernel_vectors_are_annihilated_and_independent():
    rng = random.Random(11)
    for trial in range(20):
        m = _random_matrix(rng, QQ, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(m)
        for v in basis:
            assert m.apply(v) == {}
        if basis:
            stacked = Matrix.from_columns(QQ, m.cols, basis)
            assert rank(stacked) == len(basis)
        assert rank(m) + len(basis) == m.cols


# Scalars with real denominators and numerators past 10^30, so that the
# elimination's integer rows must be scaled and reduced by their content.
_HARD_RATIONALS = (Fraction(3, 5), Fraction(-7, 2), Fraction(35, 6), Fraction(10 ** 31 + 7, 3),
                   Fraction(-(10 ** 30 + 1), 11), Fraction(1), Fraction(-1), Fraction(2))
_ORACLE_FIELDS = [QQ, Field.prime(2), Field.prime(3), Field.prime(7)]


def _hard_matrix(rng, field, rows, cols, density):
    """A random matrix, sometimes with a zero, a duplicated or a proportional row."""
    def scalar():
        if field.order is None:
            return rng.choice(_HARD_RATIONALS)
        return field(rng.randrange(1, field.order))
    dense = [[scalar() if rng.random() < density else field.zero() for _ in range(cols)]
             for _ in range(rows)]
    if rows > 1:
        kind, src, dst = rng.randrange(4), rng.randrange(rows), rng.randrange(rows)
        if kind == 1:
            dense[dst] = [field.zero()] * cols
        elif kind == 2:
            dense[dst] = list(dense[src])
        elif kind == 3:
            c = scalar()
            dense[dst] = [c * x for x in dense[src]]
    return from_rows_dense(field, dense)


def _edge_matrices(field):
    z, one = field.zero(), field.one()
    c = -one if field.order else Fraction(-7, 2)
    return [Matrix.zero(field, 3, 4), Matrix.zero(field, 0, 3),
            from_rows_dense(field, [[one, c, z], [z, z, z], [one, c, z]]),
            from_rows_dense(field, [[z, one, c], [z, c, c * c], [one, z, one]]),
            identity(field, 3)]


def _oracle_cases(field, seed):
    rng = random.Random(seed)
    cases = _edge_matrices(field)
    for _ in range(30):
        cases.append(_hard_matrix(rng, field, rng.randint(1, 7), rng.randint(1, 7),
                                  rng.choice((0.3, 0.5, 0.8))))
    return cases


def test_kernel_against_dense_oracle():
    for field in _ORACLE_FIELDS:
        for m in _oracle_cases(field, 13):
            ours = [dense_vector(v, m.cols, field) for v in kernel_basis(m)]
            assert ours == dense_nullspace(to_dense(m), m.cols, field)


def test_rank_and_column_space_against_dense_rref():
    for field in _ORACLE_FIELDS:
        for m in _oracle_cases(field, 37):
            _, pivot_cols = dense_rref(to_dense(m), m.cols, field)
            assert rank(m) == len(pivot_cols)
            assert column_space_basis(m) == [m.column_dicts()[c] for c in pivot_cols]


def test_solve_against_dense_augmented_rref():
    rng = random.Random(41)
    for field in _ORACLE_FIELDS:
        seen = set()
        for m in _oracle_cases(field, 43):
            x = {j: c for j in range(m.cols) if (c := field(rng.randint(-2, 2)))}
            rhs = [m.apply(x), {rng.randrange(m.rows): field.one()}] if m.rows else []
            for b in rhs:
                expected = dense_solve(to_dense(m), dense_vector(b, m.rows, field), m.cols, field)
                ours = solve(m, b)
                assert (None if ours is None else dense_vector(ours, m.cols, field)) == expected
                seen.add(expected is None)
        assert seen == {True, False}  # both consistent and inconsistent systems were met


def test_kernel_deterministic():
    rng = random.Random(17)
    m = _random_matrix(rng, QQ, 5, 5, density=0.4)
    again = Matrix(QQ, 5, 5, dict(m.data))
    assert kernel_basis(m) == kernel_basis(again)


def test_elimination_takes_python_int_entries():
    for field in _ORACLE_FIELDS:
        m = Matrix(field, 2, 3, {(0, 0): 2, (0, 1): field.one(), (1, 2): -3})
        same = Matrix(field, 2, 3, {rc: field(v) if type(v) is int else v
                                    for rc, v in m.data.items()})
        assert rank(m) == rank(same)
        assert kernel_basis(m) == kernel_basis(same)


def test_rank_against_dense_oracle_over_gf():
    f5 = Field.prime(5)
    rng = random.Random(19)
    for _ in range(10):
        m = _random_matrix(rng, f5, 4, 5)
        assert rank(m) == dense_rank(to_dense(m), m.cols, f5)


def test_solve_and_inverse():
    m = from_rows_dense(QQ, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    b = {0: Fraction(3), 1: Fraction(2)}
    x = solve(m, b)
    assert m.apply(x) == b
    singular = from_rows_dense(QQ, [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    assert solve(singular, {1: Fraction(1)}) is None


def test_column_space_basis_spans_columns():
    rng = random.Random(23)
    m = _random_matrix(rng, QQ, 5, 6, density=0.4)
    basis = column_space_basis(m)
    span = Matrix.from_columns(QQ, m.rows, basis)
    for col in m.column_dicts():
        assert solve(span, col) is not None
    assert len(basis) == rank(m)


def test_residual_kernel_rechecks_every_vector_with_its_residual():
    """The kernel of the system x0 = x1 passes the residual it was compiled
    from; a residual that also asks x2 = 0 fails on the free vector e_2."""
    def equal(x):
        return {(0,): d} if (d := x.get(0, 0) - x.get(1, 0)) else {}

    def stricter(x):
        return equal(x) | ({(1,): x[2]} if x.get(2) else {})

    system = constraint_matrix(QQ, 3, equal)
    assert residual_kernel(system, equal) == kernel_basis(system) == \
        [{1: Fraction(1), 0: Fraction(1)}, {2: Fraction(1)}]
    with pytest.raises(ValidationError, match=r"fails its residual at \(1,\)"):
        residual_kernel(system, stricter)


# -- kronecker product --------------------------------------------------------


def test_kron_identity():
    assert kron(identity(QQ, 2), identity(QQ, 2)) == identity(QQ, 4)


def test_kron_unit_factor():
    n = Matrix(QQ, 2, 2, {(0, 1): Fraction(1)})
    one = identity(QQ, 1)
    assert kron(n, one) == n
    assert kron(one, n) == n


def test_kron_mixed_product_property():
    rng = random.Random(29)
    for _ in range(10):
        a, b, c, d = (_random_matrix(rng, QQ, 2, 2, density=0.8) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_kron_associative_with_row_major_flattening():
    rng = random.Random(31)
    a = _random_matrix(rng, QQ, 2, 2)
    b = _random_matrix(rng, QQ, 3, 3)
    c = _random_matrix(rng, QQ, 2, 2)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))
