"""Exception types shared across the package, and the seed in a run's raises."""

from contextlib import contextmanager
from typing import Iterator


class EulerlabError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInputError(EulerlabError, ValueError):
    """Input point set cannot define a polytope (too few distinct points)."""


class DimensionMismatchError(EulerlabError, ValueError):
    """Vectors of inconsistent lengths were mixed in one operation."""


class OracleBoundError(EulerlabError, ValueError):
    """Instance exceeds the brute-force oracle's vertex bound."""


class SamplingBudgetError(EulerlabError, RuntimeError):
    """Rejection sampling exhausted its retry budget."""


class GeneralPositionError(EulerlabError, RuntimeError):
    """A certified general-position assumption failed at runtime.

    This signals a certification bug: with a valid certificate, the
    conditions checked by the raising code are theorems.
    """


@contextmanager
def naming_seed(seed: int) -> Iterator[None]:
    """Re-raise a GeneralPositionError from the block with "(seed N)" after
    its text, so that an aborted run names the seed that broke it."""
    try:
        yield
    except GeneralPositionError as err:
        raise GeneralPositionError(f"{err} (seed {seed})") from err
