import collections
import numbers
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from weakhopf.fields import Field
from weakhopf.fixtures import sweedler_data, twisted_derivation_data
from weakhopf.groupoid import (GroupPresentation, build_groupoid_algebra, group_algebra,
                               matrix_algebra)

# Every property test draws the same examples on every run, and keeps no example database.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def no_float(monkeypatch):
    """Exactness gate: any Fraction -> float conversion, mixed arithmetic included, fails the test."""
    def refuse(self):
        raise AssertionError(f"float conversion of the exact scalar {self!r}")
    monkeypatch.setattr(numbers.Rational, "__float__", refuse)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) wraps the weakhopf functions of those names in every weakhopf
    module that binds them, or for "Class.method" that method of each weakhopf class of
    that name; the returned Counter of calls per name fills as they run.  A function
    bound in several modules gets one wrapper, so it stays one object to a cache keyed
    by it.  A name that wraps nothing raises, so no count can stay 0 because its name
    went away."""
    counts = collections.Counter()

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(*names):
        modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "weakhopf"]
        for name in names:
            owner, _, method = name.rpartition(".")
            if owner:
                classes = {id(c): c for m in modules if isinstance(c := vars(m).get(owner), type)}
                targets = [(cls, method) for cls in classes.values() if method in vars(cls)]
            else:
                targets = [(m, name) for m in modules if callable(vars(m).get(name))]
            if not targets:
                raise LookupError(f"count_calls: {name} names nothing in any weakhopf module")
            wrappers = {}
            for target, attr in targets:
                fn = vars(target)[attr]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = counted(fn, name)
                monkeypatch.setattr(target, attr, wrappers[id(fn)])
        return counts
    return install


@pytest.fixture(scope="session")
def M2():
    return matrix_algebra(2)


@pytest.fixture(scope="session")
def M3():
    return matrix_algebra(3)


@pytest.fixture(scope="session")
def QZ2():
    return group_algebra(GroupPresentation.cyclic(2))


@pytest.fixture(scope="session")
def QZ3():
    return group_algebra(GroupPresentation.cyclic(3))


@pytest.fixture(scope="session")
def QZ4():
    return group_algebra(GroupPresentation.cyclic(4))


@pytest.fixture(scope="session")
def M2Z2():
    return build_groupoid_algebra(GroupPresentation.cyclic(2), 2)


@pytest.fixture(scope="session")
def sweedler():
    return sweedler_data()


@pytest.fixture(scope="session")
def s5_qz2():
    return twisted_derivation_data(GroupPresentation.cyclic(2), 1,
                                   rho=[Fraction(1), Fraction(-1)], q=[Fraction(1)])


@pytest.fixture(scope="session")
def s5_m2qz2():
    return twisted_derivation_data(GroupPresentation.cyclic(2), 2,
                                   rho=[Fraction(1), Fraction(-1)],
                                   q=[Fraction(1), Fraction(1)])


@pytest.fixture(scope="session")
def M2F2():
    return matrix_algebra(2, Field.prime(2))


@pytest.fixture(scope="session")
def F2Z2():
    return group_algebra(GroupPresentation.cyclic(2), Field.prime(2))
