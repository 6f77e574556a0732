"""Axiom reports: per-check pass/fail with concrete counterexamples.

A report never aborts at the first failure; sweeps record every failing
tuple.  Witness ordering is canonical (sorted by index tuple) so merged or
parallel sweeps produce identical output.
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
    """Collects results of axiom sweeps, keyed by axiom name."""

    def __init__(self):
        self._order = []
        self._pass_counts = {}
        self._failures = {}

    def record(self, axiom, passed, witness=None, lhs=None, rhs=None):
        self.record_passes(axiom, 1 if passed else 0)
        if not passed:
            self._failures[axiom].append(CheckResult(axiom, False, witness, lhs, rhs))

    def record_passes(self, axiom, n):
        """Record n passing checks of one axiom at once."""
        if axiom not in self._pass_counts:
            self._order.append(axiom)
            self._pass_counts[axiom] = 0
            self._failures[axiom] = []
        self._pass_counts[axiom] += n

    def check(self, axiom, lhs, rhs, witness=None, fmt=str):
        """Record equality of two evaluated sides."""
        ok = lhs == rhs
        self.record(axiom, ok, witness, None if ok else fmt(lhs), None if ok else fmt(rhs))
        return ok

    @property
    def passed(self):
        return all(not f for f in self._failures.values())

    def axiom_names(self):
        return list(self._order)

    def axiom_passed(self, axiom):
        return axiom in self._failures and not self._failures[axiom]

    def failures(self, axiom=None):
        if axiom is not None:
            return sorted(self._failures.get(axiom, []), key=lambda r: (r.witness or ()))
        out = []
        for name in self._order:
            out.extend(self.failures(name))
        return out

    def merge(self, other):
        for name in other._order:
            if name not in self._pass_counts:
                self._order.append(name)
                self._pass_counts[name] = 0
                self._failures[name] = []
            self._pass_counts[name] += other._pass_counts[name]
            self._failures[name].extend(other._failures[name])
        return self

    def lines(self):
        out = []
        for name in self._order:
            fails = self.failures(name)
            if not fails:
                out.append(f"AXIOM {name} PASS")
            else:
                w = fails[0].witness
                suffix = f" witness={_fmt_witness(w)}" if w is not None else ""
                out.append(f"AXIOM {name} FAIL{suffix}")
        return out
