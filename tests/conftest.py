import glob
import os
import signal
from contextlib import contextmanager

import pytest

from quiverhh.cli import parse_algebra
from quiverhh.exactla import Field
from quiverhh.groebner import complete
from quiverhh.pathalg import Quiver, FreeElement, compose
from quiverhh.quotient import build_quotient

DATA = os.path.join(os.path.dirname(__file__), "data")
# every algebra file, as a path relative to the tests directory
TESTS = os.path.dirname(__file__)
ALG_FILES = sorted(os.path.relpath(p, TESTS) for d in ("data", "golden")
                   for p in glob.glob(os.path.join(TESTS, d, "*.alg")))
ALG_FIXTURES = [
    "trivial_ext_kronecker.alg", "x_cubed_f3.alg", "x_cubed_q.alg",
    "loops_char2.alg", "commuting_loops.alg"]


def data_text(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return fh.read()


def fixture_algebra(name):
    """A fresh QuotientAlgebra (empty caches) of an algebra file in DATA."""
    field, quiver, rels = parse_algebra(data_text(name))
    return build_quotient(complete(rels, quiver=quiver, field=field))


def written(quiver, *names):
    """Path from arrow names given in written (left to right) order."""
    return quiver.written_path(names)


def wnames(quiver, path):
    """Arrow names of a path in written order."""
    return tuple(quiver.arrow_names[i] for i in path.written())


def elem(field, quiver, *terms):
    """FreeElement from (coeff, path) pairs."""
    out = None
    for coeff, path in terms:
        t = FreeElement.from_path(path, field, field.of(coeff))
        out = t if out is None else out.add(t)
    return out


@pytest.fixture
def rationals():
    return Field(0)


@pytest.fixture
def two_loops():
    # x > y (y declared first)
    return Quiver(["e"], [("y", "e", "e"), ("x", "e", "e")])


class Overran(BaseException):
    """A time limit that expired inside a Hypothesis example.  Hypothesis
    takes an Exception for a failing example and replays and shrinks it,
    running the hanging input again; a BaseException passes through it at
    once, and pytest still reports the test as failed."""


@contextmanager
def time_limit(seconds, error=TimeoutError, what=""):
    """Raise ``error`` in the block after ``seconds`` of wall time, so a
    hang fails the test instead of stalling the suite (main thread only);
    ``what`` names the input in the message."""
    def expire(signum, frame):
        raise error("no result within %s s%s" % (seconds, what))

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
