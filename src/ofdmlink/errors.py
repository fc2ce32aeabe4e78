"""Exception types shared across the simulator, and the two checks that
every stage runs on a number it is given."""

import math
import numbers


class SimError(ValueError):
    """Base class for all simulator errors."""


class ConfigurationError(SimError):
    """Invalid parameter or configuration file entry."""


class FramingError(SimError):
    """Input length does not match the expected frame structure."""


class SingularChannelError(SimError):
    """Zero-forcing attempted on a (near-)zero channel coefficient."""

    def __init__(self, bin_index, magnitude):
        self.bin_index = bin_index
        self.magnitude = magnitude
        super().__init__(
            f"channel response on bin {bin_index} has magnitude {magnitude:.3e}; "
            "cannot zero-force"
        )


class DivergenceError(SimError):
    """Adaptive filter weights blew up."""

    def __init__(self, step, step_size, detail=""):
        self.step = step
        self.step_size = step_size
        msg = f"LMS diverged at update {step} with step size {step_size}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def check_integer(name, value, lo, hi):
    """value as an int; ConfigurationError unless it is an integer, not a
    bool, in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not lo <= int(value) <= hi:
        raise ConfigurationError(f"{name} must be in {lo}..{hi}, got {value}")
    return int(value)


def check_real(name, value, low=None, strict=False):
    """ConfigurationError unless value is a finite real number, not a bool,
    and, if low is given, >= low (> low when strict)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int too large for a double
        finite = False
    in_range = low is None or (value > low if strict else value >= low)
    if not (finite and in_range):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ConfigurationError(f"{name} must be finite{bound}, got {value}")
