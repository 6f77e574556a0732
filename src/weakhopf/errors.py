"""Exception hierarchy shared across the package."""


class WeakHopfError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(WeakHopfError):
    """Construction-time validation failed."""


class NotAssociative(ValidationError):
    def __init__(self, i, j, k, lhs, rhs):
        self.witness = (i, j, k)
        self.lhs, self.rhs = lhs, rhs
        super().__init__(f"multiplication not associative at basis triple {self.witness}: "
                         f"(b{i}*b{j})*b{k} = {lhs} but b{i}*(b{j}*b{k}) = {rhs}")


class UnitFails(ValidationError):
    def __init__(self, i, side, value):
        self.witness = (i,)
        self.side = side
        super().__init__(f"unit fails on basis element {i} ({side} product gives {value})")


class NotCoassociative(ValidationError):
    def __init__(self, k):
        self.witness = (k,)
        super().__init__(f"comultiplication not coassociative on basis element {k}")


class CounitFails(ValidationError):
    def __init__(self, k, side):
        self.witness = (k,)
        super().__init__(f"counit axiom ({side}) fails on basis element {k}")


class AxiomFailure(ValidationError):
    """A validated structure failed an axiom sweep; carries the full report."""

    def __init__(self, what, report):
        self.report = report
        failing = ", ".join(sorted({f.axiom for f in report.failures()}))
        super().__init__(f"{what} fails axioms: {failing}")


class DimensionMismatch(WeakHopfError):
    pass


class NotAutomorphism(WeakHopfError):
    pass


class NotDerivation(WeakHopfError):
    def __init__(self, i, j, lhs, rhs):
        self.witness = (i, j)
        super().__init__(f"Leibniz rule fails at basis pair ({i},{j}): "
                         f"delta(bi*bj) = {lhs} but delta(bi)*bj + sigma(bi)*delta(bj) = {rhs}")


class NotCentral(WeakHopfError):
    pass


class NotGrouplike(WeakHopfError):
    pass


class ConditionsFailed(WeakHopfError):
    """An extension was requested but the decision procedure rejected the data."""

    def __init__(self, verdict):
        self.verdict = verdict
        failing = [c.clause for c in verdict.clauses if not c.passed]
        super().__init__(f"extension conditions failed: {', '.join(failing)}")


class TooLarge(WeakHopfError):
    pass


class ParseError(WeakHopfError):
    def __init__(self, message, where=None):
        self.where = where
        super().__init__(message if where is None else f"{message} (at {where})")


class InvalidGroupCharacter(WeakHopfError):
    pass


class ZeroScale(WeakHopfError):
    pass
