"""Exception taxonomy shared across the toolkit, the two checks that
every setting's single-value rule goes through, and the check that refuses
a size before it is allocated.

ConfigError and ParseError are user-facing (CLI exit code 1), as is a training
step that accepted settings take out of the float range; ContractError
signals a violated internal precondition (CLI exit code 2).

`require_range` and `require_choice` raise a ConfigError that names the
setting, its bounds or choices, and the value given, such as
``lr_pretrain must be in (7.0064923e-46, 3.4028235e+38], got -1e+308``.
A NaN lies in no range, so every range refuses it. A float setting that
scales float32 arrays keeps the default upper bound, FLOAT32_MAX, and a
setting that must stay positive in float32 takes the open lower bound
2**-150: a positive float rounds to 0 in float32 exactly when it is at most
that. No check casts to float32, which would warn on overflow.

`require_memory` refuses an estimate of what a run would allocate when it
exceeds the machine's physical memory, before anything is allocated or
written, where numpy would otherwise end in a MemoryError traceback.
"""

import math
import os

# the largest float32 value, exactly
FLOAT32_MAX = (2 - 2**-23) * 2.0**127


class CogentError(Exception):
    pass


class ConfigError(CogentError):
    """Invalid configuration value, unknown key, or incompatible checkpoint."""


class ParseError(CogentError):
    """Malformed corpus file; message carries file and line."""


class ContractError(CogentError):
    """A documented precondition was violated by the caller."""


def require_range(name, value, lo, hi=FLOAT32_MAX, *, open_lo=False, open_hi=False):
    """Raise ConfigError unless lo <= value <= hi, with < at an open bound.
    An infinite `hi` (an integer setting's) is shown as an open bound."""
    above = value > lo if open_lo else value >= lo
    below = value < hi if open_hi else value <= hi
    if not (above and below):
        left = "(" if open_lo else "["
        right = ")" if open_hi or hi == math.inf else "]"
        raise ConfigError(
            f"{name} must be in {left}{lo:.8g}, {hi:.8g}{right}, got {value}"
        )


def require_choice(name, value, choices):
    """Raise ConfigError unless `value` is one of `choices`."""
    if value not in choices:
        raise ConfigError(f"unknown {name} {value!r}; use {choices}")


def require_memory(what: str, nbytes: int) -> None:
    """Raise ConfigError when `nbytes`, an estimate of what `what` needs,
    exceeds this machine's physical memory. Where that cannot be read the
    allocation itself decides."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not on every platform
        return
    if 0 < total < nbytes:
        raise ConfigError(
            f"{what} needs about {nbytes:.3g} bytes, more than this machine's "
            f"{total:.3g} bytes of memory"
        )
