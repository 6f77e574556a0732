"""Axiom reports: per-check pass/fail with concrete counterexamples.

A report never aborts at the first failure; sweeps record every failing
tuple.  Witness ordering is canonical (sorted by index tuple) so merged
reports produce identical output.  ``record_passes``, ``mark_all_degrees`` and
``merge`` return the report, so they chain: ``AxiomReport().merge(a, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    passed: bool
    witness: tuple | None = None
    lhs: str | None = None
    rhs: str | None = None


def _fmt_witness(w):
    return "(" + ",".join(str(x) for x in w) + ")"


class AxiomReport:
    """Collects results of axiom sweeps, keyed by axiom name.

    A report of a sweep to a degree bound (``degree_bound``, as
    ``ore.verify_extension`` makes one) also keeps the axioms it decided in
    every degree (:meth:`mark_all_degrees`); :meth:`scope` says which.
    """

    def __init__(self, degree_bound=None):
        self.degree_bound = degree_bound
        self._pass_counts = {}
        self._failures = {}
        self._all_degrees = set()

    def record(self, axiom, passed, witness=None, lhs=None, rhs=None):
        self.record_passes(axiom, 1 if passed else 0)
        if not passed:
            self._failures[axiom].append(CheckResult(axiom, False, witness, lhs, rhs))

    def record_passes(self, axiom, n):
        """Record n passing checks of one axiom at once."""
        if axiom not in self._pass_counts:
            self._pass_counts[axiom] = 0
            self._failures[axiom] = []
        self._pass_counts[axiom] += n
        return self

    def check(self, axiom, lhs, rhs, witness=None, fmt=str):
        """Record equality of two evaluated sides."""
        ok = lhs == rhs
        self.record(axiom, ok, witness, None if ok else fmt(lhs), None if ok else fmt(rhs))
        return ok

    def mark_all_degrees(self, axiom):
        """Record that the verdict on axiom holds in every degree, not only up to the bound."""
        self._all_degrees.add(axiom)
        return self

    def scope(self, axiom):
        """"all degrees" for an axiom marked by :meth:`mark_all_degrees`, else
        "degree <= D" at the report's degree bound D; None on a report without one."""
        if axiom in self._all_degrees:
            return "all degrees"
        return None if self.degree_bound is None else f"degree <= {self.degree_bound}"

    @property
    def passed(self):
        return all(not f for f in self._failures.values())

    def failures(self, axiom=None):
        if axiom is not None:
            return sorted(self._failures.get(axiom, []), key=lambda r: (r.witness or ()))
        out = []
        for name in self._pass_counts:
            out.extend(self.failures(name))
        return out

    def merge(self, *others):
        """Add the checks, failures and marks of the others, in order; they are not changed."""
        for other in others:
            for name, n in other._pass_counts.items():
                self._pass_counts[name] = self._pass_counts.get(name, 0) + n
                self._failures.setdefault(name, []).extend(other._failures[name])
            self._all_degrees |= other._all_degrees
        return self

    def lines(self):
        out = []
        for name in self._pass_counts:
            fails = self.failures(name)
            if not fails:
                out.append(f"AXIOM {name} PASS")
            else:
                w = fails[0].witness
                suffix = f" witness={_fmt_witness(w)}" if w is not None else ""
                out.append(f"AXIOM {name} FAIL{suffix}")
        return out
