"""R's sweeps decided on certificates: a generating set of R for the left factors,
and the pivot columns of the weak counit rows.

``algebra_report`` decides associativity (L1), and ``coproduct_multiplicative_report``
Delta(ab) = Delta(a) Delta(b) on an associative R (L2), on the left keys of R's
greedy generating set S (``WeakBialgebra.generators``), and sweeps the other left
keys only where the sweep on S fails.  ``sweep_counit_weak_multiplicative``
compares the rows of each (f, m) on the pivot columns J of the rows eps(k .) it
reads (L3).  The lemmas are in the docstrings of ``bialgebra._decided`` and of
the sweep.  Every decided report must equal the sweep over every key, failure
for failure (axiom, witness, lhs, rhs) and count for count, and both
certificates are checked against dense oracles in field scalars, as is the
greedy generating set S* of the dual algebra R* (``WeakBialgebra.cogenerators``)
that ``coderivations.coderivation_space`` solves on.
"""

import random
from fractions import Fraction

import pytest

from forced_ore import forced_section5
from lemmas import dihedral, function_algebra
from oracles import (dense_rank, dense_word_span, reference_counit_weak_multiplicative)
from test_integer_view import ORE_CASES, QQ_TRANSPORT, SPECS, _perturbed, _spec_path, _summary
from weakhopf.bialgebra import (WeakHopfAlgebra, algebra_report, coproduct_multiplicative_report,
                                sweep_associative, sweep_coproduct_multiplicative,
                                sweep_counit_weak_multiplicative, sweep_unital)
from weakhopf.fields import Field
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation, build_groupoid_algebra, matrix_algebra
from weakhopf.linalg import pivot_columns
from weakhopf.report import AxiomReport
from weakhopf.specfile import parse_spec

GF5 = Field.prime(5)
Z2, Z3 = GroupPresentation.cyclic(2), GroupPresentation.cyclic(3)
S3 = GroupPresentation.symmetric(3)


def _swept(view, *sweeps):
    """A report of the sweeps, each (sweep, *args), run on the view in order."""
    report = AxiomReport()
    for sweep, *args in sweeps:
        sweep(view, report, *args)
    return report


def _qq_perturbed(seed, tables=("mult", "comult", "counit", "antipode")):
    return _perturbed(parse_spec(QQ_TRANSPORT, validate=False).wb, random.Random(seed), 3,
                      lambda r: Fraction(r.randrange(1, 50), r.randrange(2, 50)), tables)


def _gf5_perturbed(base, seed, tables=("mult", "comult", "counit", "antipode")):
    return _perturbed(base, random.Random(seed), 4, lambda r: GF5(r.randrange(1, 5)), tables)


INSTANCES = {
    **{name: (lambda name=name: parse_spec(_spec_path(name), validate=False).wb)
       for name in SPECS},
    **{f"m3qz2-QQ-{seed}": (lambda seed=seed: _qq_perturbed(seed)) for seed in range(6)},
    **{f"m3qz2-QQ-mult-{seed}": (lambda seed=seed: _qq_perturbed(seed, ("mult",)))
       for seed in range(3)},
    **{f"kD4-GF5-{seed}": (lambda seed=seed: _gf5_perturbed(function_algebra(dihedral(4), GF5),
                                                           seed)) for seed in range(4)},
    **{f"M2(kZ3)-GF5-{tables[0]}-{seed}": (
        lambda seed=seed, tables=tables: _gf5_perturbed(build_groupoid_algebra(Z3, 2, GF5),
                                                        seed, tables))
       for seed in range(3) for tables in (("mult",), ("comult", "counit"))},
}


@pytest.mark.parametrize("name", INSTANCES)
def test_decided_reports_equal_the_sweeps_over_every_key(name):
    """On every spec file, bundled or under tests/data, and on perturbed QQ and GF(5)
    instances, the decided associativity and Delta(ab) reports, and the weak counit
    sweep on J, give the verdicts, failures and pass counts of the sweeps over every
    key and of the triple-by-triple counit oracle, on the integer view and on R."""
    wb = INSTANCES[name]()
    view = wb.integer_view
    assert _summary(algebra_report(wb)) == _summary(
        _swept(view, (sweep_unital,), (sweep_associative,)))
    assert _summary(coproduct_multiplicative_report(wb)) == _summary(
        _swept(view, (sweep_coproduct_multiplicative,)))
    for v in (view, wb):
        assert _summary(_swept(v, (sweep_counit_weak_multiplicative,))) == _summary(
            _swept(v, (reference_counit_weak_multiplicative,)))


@pytest.mark.parametrize("degree", range(3))
@pytest.mark.parametrize("name", ORE_CASES)
def test_counit_sweep_on_h_equals_the_triple_by_triple_oracle(name, degree):
    """On H = R[x; sigma, delta] at degree bound D, where verify_extension sweeps weak
    counit multiplicativity when its certificate fails, the sweep on J gives the
    failures and counts of the oracle, forced data included."""
    ints = ORE_CASES[name]().integer_view(degree)
    assert _summary(_swept(ints, (sweep_counit_weak_multiplicative,))) == _summary(
        _swept(ints, (reference_counit_weak_multiplicative,)))


def _mult_moved(wb, a, c, k, scalar):
    """wb, not validated, with scalar added to the b_k coefficient of b_a b_c."""
    mult = {ij: dict(v) for ij, v in wb.mult.items()}
    slot = mult.setdefault((a, c), {})
    slot[k] = slot.get(k, wb.field.zero()) + scalar
    return WeakHopfAlgebra(wb.field, wb.dim, mult, wb.unit, wb.comult, wb.counit_vector,
                           wb.antipode_matrix, wb.labels, validate=False)


@pytest.mark.parametrize("field", [None, GF5], ids=["QQ", "GF5"])
def test_a_product_moved_outside_s_fails_the_sweep_on_s(field):
    """M_3(kZ_2) with one product b_a b_c moved, a outside S: R is no longer associative,
    so by L1 the sweep on S fails, and the decided report holds the failures, sides
    and counts of the sweep over every key, those at left factor a included.  Delta(ab)
    then fails at (a, c) only, which the sweep on S does not reach: L2 needs an
    associative R, and Delta(ab) is swept over every pair."""
    base, rng = build_groupoid_algebra(Z2, 3, field), random.Random(35)
    one, controls = base.field.one(), 0
    for a in (k for k in base.keys if k not in base.generators):
        c = rng.randrange(base.dim)
        bad = _mult_moved(base, a, c, rng.randrange(base.dim), one * rng.choice([2, 3, -1]))
        S, view = bad.generators, bad.integer_view
        if a in S:
            continue
        controls += 1
        full = _swept(view, (sweep_unital,), (sweep_associative,))
        assert not _swept(view, (sweep_associative, S)).passed
        assert any(f.witness[0] == a for f in full.failures("associative"))
        assert _summary(algebra_report(bad)) == _summary(full)
        full = _swept(view, (sweep_coproduct_multiplicative,))
        assert _swept(view, (sweep_coproduct_multiplicative, S)).passed
        assert [f.witness for f in full.failures()] == [(a, c)]
        assert _summary(coproduct_multiplicative_report(bad)) == _summary(full)
    assert controls >= 6


@pytest.mark.parametrize("field", [None, GF5], ids=["QQ", "GF5"])
def test_both_associativity_sweeps_read_one_table_of_products(count_calls, field):
    """On an R that is not associative the sweeps over S and over the other keys both
    run, on one table of R's nonzero products, tabled once per integer view."""
    base = build_groupoid_algebra(Z2, 3, field)
    a = next(k for k in base.keys if k not in base.generators)
    bad = _mult_moved(base, a, 0, 0, base.field.one())
    calls = count_calls("BasisView.product_rows")
    assert not algebra_report(bad).passed
    assert [args for s, args in bad._sweeps if s is sweep_associative] == [
        (bad.generators,), (tuple(k for k in bad.keys if k not in bad.generators),)]
    assert calls["BasisView.product_rows"] == 1


CLOSURE_CASES = {
    "M2(QZ2)": lambda: build_groupoid_algebra(Z2, 2),
    "M3(QZ2)": lambda: build_groupoid_algebra(Z2, 3),
    "M2(QS3)": lambda: build_groupoid_algebra(S3, 2),
    "M2(GF5 Z3)": lambda: build_groupoid_algebra(Z3, 2, GF5),
    "M3(Q)": lambda: matrix_algebra(3),
    "kD4": lambda: function_algebra(dihedral(4)),
    "kZ2": lambda: sweedler_data().R,
    "m3qz2-transported": lambda: parse_spec(QQ_TRANSPORT).wb,
    "m3qz2-QQ-mult-1": lambda: _qq_perturbed(1, ("mult",)),
}


@pytest.mark.parametrize("name", CLOSURE_CASES)
def test_the_words_over_s_span_r_and_s_is_greedy(name):
    """The right-nested words over S span R (dense rank dim), and S is the greedy set:
    a key is in S exactly when its basis vector lies outside the span of the words
    over the keys of S before it."""
    wb = CLOSURE_CASES[name]()
    S, dim, field = wb.generators, wb.dim, wb.field
    assert len(dense_word_span(wb, S)) == dim
    spans = {}
    for k in wb.keys:
        before = tuple(s for s in S if s < k)
        span = spans.get(before) or spans.setdefault(before, dense_word_span(wb, before))
        unit = [field.one() if i == k else field.zero() for i in range(dim)]
        assert (dense_rank([*span, unit], dim, field) > len(span)) == (k in S)


class _Dual:
    """R* in the dual basis phi_k, for the dense oracles: phi_a phi_b is the sum of
    c phi_k over the terms c b_a (x) b_b of every Delta(b_k), in field scalars."""

    def __init__(self, wb):
        self.field, self.dim, self._wb = wb.field, wb.dim, wb

    def multiply(self, u, v):
        zero, out = self.field.zero(), {}
        for k in self._wb.keys:
            c = zero
            for (a, b), x in self._wb.coproduct(k).items():
                if a in u and b in v:
                    c = c + u[a] * v[b] * x
            if c:
                out[k] = c
        return out


COGENERATOR_CASES = {
    **CLOSURE_CASES,
    "kD6": lambda: function_algebra(dihedral(6)),
    "kD8-GF5": lambda: function_algebra(dihedral(8), GF5),
    "kS3-GF3": lambda: function_algebra(S3, Field.prime(3)),
    "kD4-GF5-0": lambda: _gf5_perturbed(function_algebra(dihedral(4), GF5), 0),
}


@pytest.mark.parametrize("name", COGENERATOR_CASES)
def test_the_words_over_s_star_span_r_star_and_s_star_is_greedy(name):
    """The right-nested words over S* span R*, whose product is R's coproduct
    transposed (dense rank dim), and S* is the greedy set of R*, key by key."""
    wb = COGENERATOR_CASES[name]()
    dual, S, dim, field = _Dual(wb), wb.cogenerators, wb.dim, wb.field
    assert len(dense_word_span(dual, S)) == dim
    for k in wb.keys:
        span = dense_word_span(dual, tuple(s for s in S if s < k))
        unit = [field.one() if i == k else field.zero() for i in range(dim)]
        assert (dense_rank([*span, unit], dim, field) > len(span)) == (k in S)


@pytest.mark.parametrize("field", [None, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("group", [dihedral(6), dihedral(8)], ids=["D6", "D8"])
def test_s_star_has_three_keys_on_functions_on_a_dihedral_group(group, field):
    """On k^G, R* is the group algebra kG, and on the dihedral groups of orders 12 and
    16 S* is the first key, the identity, then r and s, which generate the group."""
    assert function_algebra(group, field).cogenerators == (0, 1, group.order // 2)


def test_s_star_is_every_key_on_a_groupoid_algebra():
    """On section-5 M_2(kZ_4) every basis element is group-like, so R* is functions
    on the arrows, spanned by orthogonal idempotents: S* is every key."""
    data = twisted_derivation_data(GroupPresentation.cyclic(4), 2, rho=[1, 1, 1, 1],
                                   q=[Fraction(3, 5), Fraction(-7, 2)])
    assert data.R.cogenerators == tuple(data.R.keys)


def _eps_rows(view):
    """{k: [eps(k h) for h in the sweep keys]} over the keys k of the products f m and
    of the legs of Delta(m), f and m sweep keys: every row the weak counit sweep reads,
    each entry summed in field scalars on the view's own tables."""
    keys = view.keys
    read = {k for f in keys for m in keys for k in view.product(f, m)}
    read |= {k for m in keys for pair in view.coproduct(m) for k in pair}
    eps = lambda k, h: sum((c * view.counit(r) for r, c in view.product(k, h).items()),
                           view.zero)
    return {k: [eps(k, h) for h in keys] for k in sorted(read)}


def _at_degree(H, degree):
    H.keys = H.monomials(degree)
    return H


PROJECTION_CASES = {
    **CLOSURE_CASES,
    "m3qz2-bad-counit": lambda: parse_spec(_spec_path("m3qz2-bad-counit.json"),
                                           validate=False).wb,
    "kD4-GF5-0": lambda: _gf5_perturbed(function_algebra(dihedral(4), GF5), 0),
    **{f"forced-section5-{which}-D{degree}": (lambda which=which, degree=degree:
                                              _at_degree(forced_section5(which), degree))
       for which in ("delta", "g") for degree in (1, 2)},
}


@pytest.mark.parametrize("name", PROJECTION_CASES)
def test_projection_onto_j_is_injective_on_the_rows_read(name):
    """The pivot columns J of the rows the weak counit sweep reads keep their dense
    rank: |J| = rank of the rows = rank of the rows cut to J, so a vector of their
    span is zero when its entries on J are; on R and on H's monomials (forced data).
    The field rows go to pivot_columns held as ints by Field.to_ints."""
    view = PROJECTION_CASES[name]()
    rows, keys, field = _eps_rows(view), list(view.keys), view.field
    J = pivot_columns(field.to_ints([{h: x for h, x in zip(keys, row) if x}
                                     for row in rows.values()])[1], keys, field)
    full = list(rows.values())
    cut = [[x for h, x in zip(keys, row) if h in J] for row in full]
    assert len(J) == dense_rank(full, len(keys), field) == dense_rank(cut, len(J), field)


GROUPOID_S = {  # (group, n): the keys of S, g E_ij at index g n^2 + i n + j
    (S3, 2): (0, 1, 2, 4, 8),
    (Z2, 3): (0, 1, 2, 3, 6, 9),
    (Z3, 3): (0, 1, 2, 3, 6, 9),
    (Z2, 4): (0, 1, 2, 3, 4, 8, 12, 16),
}


@pytest.mark.parametrize("field", [None, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("group, n", GROUPOID_S)
def test_groupoid_algebras_sweep_only_s_and_compare_on_j(group, n, field):
    """On M_n(kG) S is the E_1j, the E_i1 and one g E_11 per generator of G, smaller
    than R, and validating R sweeps associativity and Delta(ab) only over S, recording
    dim^3 and dim^2 passes; the weak counit sweep compares only entries on J, n of
    the dim columns."""
    wb = build_groupoid_algebra(group, n, field)
    S, dim = wb.generators, wb.dim
    assert S == GROUPOID_S[group, n] and len(S) < dim
    for sweep in (sweep_associative, sweep_coproduct_multiplicative):
        assert [args for s, args in wb._sweeps if s is sweep] == [(S,)]
    assert algebra_report(wb)._pass_counts["associative"] == dim ** 3
    assert coproduct_multiplicative_report(wb)._pass_counts["coproduct_multiplicative"] == dim ** 2
    view, compared = wb.integer_view, []
    agree = view.agree
    view.agree = lambda lhs, rhs, w: compared.append((lhs, rhs)) or agree(lhs, rhs, w)
    report = _swept(view, (sweep_counit_weak_multiplicative,))
    assert report.passed and len(compared) == dim ** 2
    J = set().union(*(lhs.keys() | rhs.keys() for lhs, rhs in compared))
    assert len(J) == n


@pytest.mark.parametrize("field", [None, GF5], ids=["QQ", "GF5"])
@pytest.mark.parametrize("group", [dihedral(4), GroupPresentation.cyclic(8)], ids=["D4", "Z8"])
def test_s_is_every_key_on_functions_on_a_group(group, field):
    """On k^G every basis vector e_g is an idempotent orthogonal to the others, so no
    word over other keys reaches it: S is every key, and the sweeps run over every
    key as before."""
    wb = function_algebra(group, field)
    assert wb.generators == tuple(wb.keys)
    assert [args for s, args in wb._sweeps if s is sweep_associative] == [()]
