"""Shared fixtures."""

from collections import Counter
from fractions import Fraction

import pytest

from eulerlab import linalg, polytope
from eulerlab.linalg import Hyperplane


@pytest.fixture
def work_counts(monkeypatch) -> Counter:
    """Counts of exact pivot steps, span row steps, hyperplane side tests
    and Fraction hashes made while the test runs; clear() it to start a
    count.  "pivot" counts the LP's dictionary exchange steps.  "step" counts
    a span's row steps: one per stored row for each row it reduces
    (`_reduce`, `contains`), and one per pair of rows when it builds its
    RREF.  The hull's integer side tests count one per plane of each
    `_sides` call.  None depends on the machine."""
    counts = Counter()
    pivot, side, fraction_hash = linalg._pivot, Hyperplane.side, Fraction.__hash__
    sides = polytope._sides
    SpanBuilder = linalg.SpanBuilder
    reduce, contains, rref = SpanBuilder._reduce, SpanBuilder.contains, SpanBuilder._rows.fget

    def counting_pivot(*args):
        counts["pivot"] += 1
        return pivot(*args)

    def counting_reduce(self, v):
        counts["step"] += self.rank
        return reduce(self, v)

    def counting_contains(self, v):
        counts["step"] += self.rank
        return contains(self, v)

    def counting_rref(self):
        if self._rref is None:
            counts["step"] += self.rank * (self.rank - 1) // 2
        return rref(self)

    def counting_side(self, point):
        counts["side"] += 1
        return side(self, point)

    def counting_sides(planes, q):
        result = sides(planes, q)
        counts["side"] += len(result)
        return result

    def counting_hash(self):
        counts["hash"] += 1
        return fraction_hash(self)

    monkeypatch.setattr(linalg, "_pivot", counting_pivot)
    monkeypatch.setattr(SpanBuilder, "_reduce", counting_reduce)
    monkeypatch.setattr(SpanBuilder, "contains", counting_contains)
    monkeypatch.setattr(SpanBuilder, "_rows", property(counting_rref))
    monkeypatch.setattr(Hyperplane, "side", counting_side)
    monkeypatch.setattr(polytope, "_sides", counting_sides)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    return counts


@pytest.fixture
def flip_first_shadow(monkeypatch):
    """Patch a harness's shadow builder, module.name, so that the first
    shadow it builds gives the wrong answer for one vertex image."""

    def patch(module, name: str) -> None:
        build = getattr(module, name)

        def first_flipped(*args):
            shadow = build(*args)
            if not flipped:
                key = next(k for k in shadow.face_image if len(k) == 1)
                shadow.face_image[key] = not shadow.face_image[key]
                flipped.append(key)
            return shadow

        flipped = []
        monkeypatch.setattr(module, name, first_flipped)

    return patch
