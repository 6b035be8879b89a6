"""Shared fixtures."""

from collections import Counter
from fractions import Fraction

import pytest

from eulerlab import linalg, polytope
from eulerlab.linalg import Hyperplane


@pytest.fixture
def work_counts(monkeypatch) -> Counter:
    """Counts of exact pivot steps, hyperplane side tests and Fraction hashes
    made while the test runs; clear() it to start a count.  The hull's
    integer side tests count one per plane of each `_sides` call.  None
    depends on the machine."""
    counts = Counter()
    pivot, side, fraction_hash = linalg._pivot, Hyperplane.side, Fraction.__hash__
    sides = polytope._sides

    def counting_pivot(*args):
        counts["pivot"] += 1
        return pivot(*args)

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
