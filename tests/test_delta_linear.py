"""The five conditions linear in delta, for fixed (sigma, g), as int residuals.

The sigma-Leibniz rule (``coderivations.leibniz_residual``), the
(g,1)-coderivation identity and the Panov clauses counit_delta_orthogonal,
delta_kills_source_base and antipode_delta_compat are each a linear residual
on delta, and ``coderivations.first_failure`` reads the witness of each.
Their verdicts, witnesses and the ``NotDerivation`` message must equal those
of the reference evaluators in ``tests/oracles.py``, which decide the same
conditions in field scalars on R, and each compiled residual must have
exactly the rows of a reference row builder.
"""

import functools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import weakhopf.coderivations
import weakhopf.panov
from weakhopf.bialgebra import base_subalgebras
from weakhopf.coderivations import (first_failure, is_sigma_derivation, leibniz_residual,
                                    skew_derivation)
from weakhopf.errors import NotDerivation
from weakhopf.fields import Field
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import GroupPresentation
from weakhopf.linalg import Matrix, constraint_matrix
from weakhopf.panov import PanovClauses
from weakhopf.specfile import parse_spec

from lemmas import identity
from oracles import (field_rows, reference_antipode_delta_compat, reference_antipode_delta_rows,
                     reference_coderivation_failure, reference_coderivation_rows,
                     reference_counit_delta_rows, reference_delta_kills_source_base,
                     reference_eps_a_delta_b_zero, reference_leibniz_failure,
                     reference_leibniz_rows, reference_source_base_rows)

CLAUSES = ("delta_is_skew_coderivation", "coproduct_delta_twisted_leibniz",
           "counit_delta_orthogonal", "delta_kills_source_base", "antipode_delta_compat")


def _transported(name, g):
    """A basis-changed spec of tests/data with sigma = id, delta = 0 and g = b_g."""
    wb = parse_spec(str(Path(__file__).parent / "data" / f"{name}.json"), validate=False).wb
    return wb, identity(wb.field, wb.dim), Matrix.zero(wb.field, wb.dim, wb.dim), wb.basis_vector(g)


def _section5(group, n, rho, q, field=None):
    data = twisted_derivation_data(GroupPresentation.cyclic(group), n, rho=rho, q=q, field=field)
    return data.R, data.sigma, data.delta, data.g


def _sweedler():
    data = sweedler_data()
    return data.R, data.sigma, data.delta, data.g


CASES = {  # name: (wb, sigma, delta, g)
    "s5-m2qz2-q": lambda: _section5(2, 2, [1, -1], [Fraction(3, 5), Fraction(-7, 2)]),
    "s5-qz2": lambda: _section5(2, 1, [1, -1], [1]),  # delta != 0
    "m3qz2-transported": lambda: _transported("m3qz2-transported", 10),  # D > 1
    "m2z2-gf5-transported": lambda: _transported("m2z2-gf5-transported", 5),
    "sweedler": _sweedler,
}


def _bumped(m, rng):
    """m with one seeded entry moved by a nonzero scalar."""
    field = m.field
    c = (Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5])) if field.p is None
         else field(rng.randrange(1, field.p)))
    entry = (rng.randrange(m.rows), rng.randrange(m.cols))
    return Matrix(field, m.rows, m.cols, m.data | {entry: m.data.get(entry, 0) + c})


def _data(case):
    """The case's datum, then 10 seeded one-entry perturbations of delta and 5 of sigma:
    (label, wb, sigma, delta, g, sigma perturbed)."""
    wb, sigma, delta, g = CASES[case]()
    rng = random.Random(f"delta-linear/{case}")
    out = [("datum", wb, sigma, delta, g, False)]
    out += [(f"delta#{n}", wb, sigma, _bumped(delta, rng), g, False) for n in range(10)]
    out += [(f"sigma#{n}", wb, _bumped(sigma, rng), delta, g, True) for n in range(5)]
    return out


def _leibniz_message(wb, failure):
    i, j, lhs, rhs = failure
    return (f"Leibniz rule fails at basis pair ({i},{j}): delta(bi*bj) = "
            f"{wb.format_element(lhs)} but delta(bi)*bj + sigma(bi)*delta(bj) = "
            f"{wb.format_element(rhs)}")


@functools.lru_cache(maxsize=None)
def _verdicts(case):
    """(label, condition, package's (passed, witness), reference's) for every datum of
    the case and every delta-linear condition; "leibniz" is the residual's first pair,
    "NotDerivation" the message of skew_derivation when sigma is not perturbed."""
    out = []
    for label, wb, sigma, delta, g, sigma_bumped in _data(case):
        lambda_g, lambda_1 = wb.left_mult_matrix(g), wb.left_mult_matrix(wb.unit)
        ref = reference_leibniz_failure(wb, sigma, delta)
        key = first_failure(leibniz_residual(wb, sigma), delta)
        out.append((label, "leibniz", (key is None, key and key[:2]),
                    (ref is None, ref and ref[:2])))
        out.append((label, "is_sigma_derivation", is_sigma_derivation(wb, sigma, delta),
                    ref is None and not delta.apply(wb.unit)))
        if not sigma_bumped:
            try:
                skew_derivation(wb, sigma, delta)
                message = None
            except NotDerivation as exc:
                message = str(exc)
            out.append((label, "NotDerivation", message, ref and _leibniz_message(wb, ref)))

        clauses = PanovClauses(wb, sigma, delta, g)
        k = reference_coderivation_failure(wb, delta, lambda_g, lambda_1)
        eps = reference_eps_a_delta_b_zero(wb, delta)
        reference = {
            "delta_is_skew_coderivation": (k is None, None),
            "coproduct_delta_twisted_leibniz": (k is None, None if k is None else (wb.labels[k],)),
            "counit_delta_orthogonal": (eps is None, eps),
            "delta_kills_source_base": reference_delta_kills_source_base(wb, delta),
            "antipode_delta_compat": reference_antipode_delta_compat(wb, sigma, delta, lambda_g),
        }
        for name in CLAUSES:
            result = clauses.result(name)
            out.append((label, name, (result.passed, result.witness), reference[name]))
    return out


@pytest.mark.parametrize("case", CASES)
def test_delta_linear_conditions_equal_the_field_references(case):
    """On the datum and on seeded one-entry perturbations of delta and of sigma, each
    condition's verdict and witness, and the NotDerivation message, equal the
    reference evaluator's in field scalars."""
    for label, condition, got, want in _verdicts(case):
        assert got == want, (case, label, condition)


def test_every_delta_linear_condition_fails_and_passes_in_the_data():
    """No condition passes vacuously: each fails on some datum and passes on another."""
    outcomes = {}
    for case in CASES:
        for _, condition, _, want in _verdicts(case):
            passed = want is None if condition == "NotDerivation" else (
                want if condition == "is_sigma_derivation" else want[0])
            outcomes.setdefault(condition, set()).add(passed)
    assert set(outcomes) == {"leibniz", "is_sigma_derivation", "NotDerivation", *CLAUSES}
    assert all(seen == {True, False} for seen in outcomes.values()), outcomes


# -- the compiled residuals -------------------------------------------------------------

COMPILED_CASES = {
    **{name: CASES[name] for name in ("s5-m2qz2-q", "m3qz2-transported",
                                      "m2z2-gf5-transported")},
    "s5-m2z4-gf5": lambda: _section5(4, 2, [1, 2, 4, 3], [2, 3], Field.prime(5)),
}


def _lcm_of_denominators(*tables):
    """The lcm of the denominators of the scalars in the dicts, 1 over GF(p)."""
    return math.lcm(*(c.denominator for t in tables for c in t.values()
                      if isinstance(c, Fraction)))


@pytest.mark.parametrize("case", COMPILED_CASES)
def test_compiled_delta_linear_residuals_have_the_reference_rows(case, monkeypatch):
    """Each residual the conditions pass to first_failure, compiled in dim^2 unknowns,
    has exactly the distinct rows of its field-scalar reference builder: each int row
    is S times its field row over QQ (sigma, R's scale D and R_s carrying
    denominators in the QQ cases), its residues over GF(5), and no row repeats."""
    wb, sigma, delta, g = COMPILED_CASES[case]()
    captured, read = [], weakhopf.coderivations.first_failure

    def capture(residual, delta):
        captured.append(residual)
        return read(residual, delta)
    for module in (weakhopf.coderivations, weakhopf.panov):
        monkeypatch.setattr(module, "first_failure", capture)
    assert is_sigma_derivation(wb, sigma, delta)
    clauses = PanovClauses(wb, sigma, delta, g)
    for name in ("coproduct_delta_twisted_leibniz", "counit_delta_orthogonal",
                 "delta_kills_source_base", "antipode_delta_compat"):
        clauses.result(name)
    assert len(captured) == 5

    D, S = wb.integer_view.scale, wb.antipode_matrix
    lambda_g, lambda_1 = wb.left_mult_matrix(g), wb.left_mult_matrix(wb.unit)
    basis_s = base_subalgebras(wb)[1]
    expected = [
        (reference_leibniz_rows(wb, sigma), D * _lcm_of_denominators(sigma.data)),
        (reference_coderivation_rows(wb, lambda_g, lambda_1),
         D * _lcm_of_denominators(lambda_g.data, lambda_1.data)),
        (reference_counit_delta_rows(wb), D * D),
        (reference_source_base_rows(wb, basis_s), _lcm_of_denominators(*basis_s)),
        (reference_antipode_delta_rows(wb, sigma, lambda_g),
         _lcm_of_denominators((S * sigma).data, (lambda_g * S).data)),
    ]
    for residual, (reference, scale) in zip(captured, expected):
        compiled = constraint_matrix(wb.field, wb.dim ** 2, residual)
        assert reference and field_rows(compiled, scale) == reference
        assert compiled.rows == len(reference)
