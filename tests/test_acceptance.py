"""The release acceptance matrix, one test per criterion.

Each criterion is implemented in eulerlab.acceptance and shared with the
`eulerlab selftest` command; the assertions here are exact, with no
tolerances.
"""

import pytest

from eulerlab import folded_flags
from eulerlab.acceptance import ALL_CRITERIA, criterion_6


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA, ids=[fn.__name__ for fn in ALL_CRITERIA]
)
def test_criterion(criterion):
    outcome = criterion()
    status = "PASS" if outcome.passed else "FAIL"
    print(f"[{outcome.number:2d}] {status}  {outcome.title}")
    for line in outcome.details:
        print(f"      {line}")
    assert outcome.passed, "\n".join(outcome.details)


def test_criterion_6_fails_when_a_flag_is_not_collinear(monkeypatch):
    # Criterion 6 does not re-fold the flags; the collinearity check inside
    # each folded run must be enough to make it FAIL.
    monkeypatch.setattr(
        folded_flags, "flag_collinear_with_assigned_point", lambda flag, line: False
    )
    outcome = criterion_6()
    assert not outcome.passed
    assert any("not collinear with its facet point" in d for d in outcome.details)
    # Failure lines give points as rational strings, not Python reprs.
    assert not any("Fraction(" in d for d in outcome.details)
