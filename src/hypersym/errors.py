"""Exception types shared across the toolkit."""

import os


class HypersymError(Exception):
    """Base class for toolkit errors."""


class ConfigError(HypersymError):
    """Invalid experiment configuration or serialized input."""


class WeightOverflowError(HypersymError):
    """Exponential weight exceeds the double-precision safety budget."""


class StabilityMarginError(HypersymError):
    """Matrix is not safely Hurwitz (stability margin below threshold)."""


class NotRealRootedError(HypersymError):
    """Polynomial claimed real-rooted has roots off the real axis."""


class BudgetError(HypersymError):
    """Memory or iteration budget exceeded."""


class SamplingError(HypersymError):
    """Time path sampled too coarsely for the requested mollifier width."""


class NumericAbortError(HypersymError):
    """Evolution produced NaN/overflow; carries the last healthy time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


def require_memory(need: float, what: str) -> None:
    """Refuse, as a configuration error, arrays of ``need`` bytes that the
    machine's physical memory cannot hold; ``what`` names the setting."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"{what} need {need:.3g} bytes, past the {have:.3g} bytes of memory")
