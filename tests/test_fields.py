"""Property tests of the int form of a scalar: :meth:`Field.to_ints` and
:meth:`Field.reduce`, the one place that holds field scalars as ints.

Over QQ the tables carry non-trivial denominators (and zeros, which must be
dropped); over GF(p) they hold residues of several primes, 2 and 2^31 - 1
among them.  The profile is fixed (derandomized, no example database).
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from weakhopf.fields import Field

FIXED = settings(max_examples=60, derandomize=True, database=None, deadline=None)
PRIMES = (2, 3, 5, 7, 101, 2 ** 31 - 1)

keys = st.integers(0, 12)
rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
qq_tables = st.lists(st.dictionaries(keys, st.one_of(st.just(Fraction(0)), rationals),
                                     max_size=6), max_size=5)


@st.composite
def gfp_tables(draw):
    field = Field.prime(draw(st.sampled_from(PRIMES)))
    raw = draw(st.lists(st.dictionaries(keys, st.integers(-10 ** 12, 10 ** 12), max_size=6),
                        max_size=5))
    return field, [{k: field(n) for k, n in t.items()} for t in raw]


def _read_back(field, tables, D, ints):
    """Every scalar reads back exactly as field(n) / field(D), and only zeros are dropped."""
    assert len(ints) == len(tables)
    for t, w in zip(tables, ints):
        assert list(w) == [k for k, c in t.items() if c]
        assert all(type(n) is int and n for n in w.values())
        assert all(field(n) / field(D) == t[k] for k, n in w.items())


@FIXED
@given(qq_tables, st.integers(1, 10 ** 4))
def test_to_ints_over_qq_is_exact_at_the_lcm_scale(tables, base):
    field = Field.rationals()
    D, ints = field.to_ints(tables, base)
    assert D == math.lcm(base, *(c.denominator for t in tables for c in t.values()))
    _read_back(field, tables, D, ints)
    assert field.to_ints(tables)[0] == math.lcm(1, *(c.denominator for t in tables
                                                     for c in t.values()))


@FIXED
@given(gfp_tables())
def test_to_ints_over_gfp_holds_the_residues(data):
    field, tables = data
    D, ints = field.to_ints(tables, 1)
    assert D == 1
    _read_back(field, tables, D, ints)
    assert all(0 < n < field.p and n == t[k].v for t, w in zip(tables, ints)
               for k, n in w.items())


@FIXED
@given(st.sampled_from((None, *PRIMES)),
       st.dictionaries(keys, st.integers(-10 ** 15, 10 ** 15) | st.just(0), max_size=8))
def test_reduce_drops_zeros_and_agrees_with_mod_p(p, d):
    field = Field(p)
    reduced = field.reduce(d)
    if p is None:
        assert reduced == {k: c for k, c in d.items() if c}
    else:
        assert reduced == {k: c % p for k, c in d.items() if c % p}
    assert all(reduced.values())
