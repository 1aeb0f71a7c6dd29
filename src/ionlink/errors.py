"""Exception types shared across the package, and the one range check on inputs."""

import math

__all__ = ["MAX_ROWS", "ChainError", "DomainError", "NoCrossingError", "NumericError", "check",
           "steps"]

#: Most rows a grid export may have: 8x the 0.5 x 1 degree emission grid.
MAX_ROWS = 2**20


class DomainError(ValueError):
    """An input violates a documented physical or numerical precondition."""


class ChainError(DomainError):
    """Stages in a conversion chain do not connect (wavelength mismatch)."""


class NoCrossingError(DomainError):
    """The raw fiber never loses to the converted one, so no crossover distance exists."""


class NumericError(RuntimeError):
    """A linear solve or other numerical step failed on malformed input."""


def check(name: str, value: float, lo: float = 0.0, hi: float = math.inf, *,
          open_lo: bool = False) -> float:
    """``value`` if it is finite and lies in [lo, hi] ((lo, hi] when ``open_lo``).

    NaN and +-inf always fail.  The DomainError names ``name`` and the value.
    """
    if not (math.isfinite(value) and (lo < value if open_lo else lo <= value) and value <= hi):
        raise DomainError(
            f"{name} out of range: {value} (must be finite and lie in "
            f"{'(' if open_lo else '['}{lo:g}, {hi:g}{')' if hi == math.inf else ']'})"
        )
    return value


def steps(name: str, step: float, span: float, hi: float = math.inf) -> int:
    """Whole grid steps in ``span`` for a step in (0, hi], at most :data:`MAX_ROWS`; a
    ``span / step`` within 1e-9 below a whole number counts as it, so the span's end is kept."""
    n = span / check(name, step, 0.0, hi, open_lo=True)
    if not n < MAX_ROWS:
        raise DomainError(f"{name} {step} is too small: the grid would exceed {MAX_ROWS} rows")
    return int(math.floor(n + 1e-9))
