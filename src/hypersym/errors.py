"""Exception types shared across the toolkit, and the boundary checks that raise them."""

import math
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


_JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool,
               "object": dict, "array": list}


def is_json(value, kind: str) -> bool:
    """Whether ``value`` is a JSON value of the schema type ``kind``."""
    # bool subclasses int in Python, but a JSON boolean is not a number
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "number" and isinstance(value, (int, float)):
        # Python's json reads NaN, Infinity and integers past the double
        # range, which JSON numbers, as doubles, exclude
        try:
            return math.isfinite(value)
        except OverflowError:
            return False
    return isinstance(value, _JSON_TYPES[kind])
