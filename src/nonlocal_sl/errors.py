"""Exception types shared across the library.

InputError (and subclasses) mark bad arguments or configuration; the CLI maps
them to exit code 2.  NumericalError subclasses mark failures of the numerics
themselves and map to exit code 3.

The readers behind every `from_dict` and the CLI's config checks live here
too, in the standard library alone (the CLI reads a config before its thread
cap lets numpy load): `_Ctx` collects each problem with its path, and the
helpers below read numbers, orders and [re, im] pairs into it.  An
InputError may name the argument it rejects (`field`), so a reader reports
a constructor's value rule at that argument's path.
"""

import math
from numbers import Integral


class InputError(ValueError):
    """Invalid argument, state, or configuration; `field`, where given, names the argument at fault."""

    def __init__(self, message: str = "", *, field: str | None = None):
        super().__init__(message)
        self.field = field


class DomainError(InputError):
    """Mismatched domains, e.g. a sampled function vs a measure on a different interval."""


class ConfigError(InputError):
    """Config validation failure; carries (path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.errors))


class NumericalError(ArithmeticError):
    """Base class for numerical failures."""


class RangeError(NumericalError):
    """Requested evaluation exceeds the overflow budget even with log scaling."""


class PoleProximityError(NumericalError):
    """Evaluation point too close to a pole of a Weyl-type quotient."""


class ContourError(NumericalError):
    """An argument-principle contour could not be certified."""


class CollinearityError(NumericalError):
    """A trace pair expected to be collinear is not (not an eigenvalue?)."""


class _Ctx:
    """The (path, message) problems found while reading a dict, collected."""

    def __init__(self):
        self.errors: list = []

    def err(self, path: str, msg: str):
        self.errors.append((path or ".", msg))

    def strict(self, d: dict, path: str, allowed):
        for k in d:
            if k not in allowed:
                self.err(f"{path}.{k}", "unknown field")

    def obj(self, d, path: str, allowed=None) -> bool:
        """True for a dict (its fields outside `allowed`, when given, reported); else reports path."""
        if not isinstance(d, dict):
            self.err(path, "expected an object")
            return False
        if allowed is not None:
            self.strict(d, path, allowed)
        return True

    def build(self, path: str, make, *args, at: str | None = None):
        """make(*args), or None with its problems reported: a ConfigError's fields below `path`,
        where the made object's dict sits, an InputError naming its field at that field below
        `path`, and any other InputError at `at` (default `path`)."""
        try:
            return make(*args)
        except ConfigError as e:
            self.errors.extend((path + p, m) for p, m in e.errors)
        except InputError as e:
            self.err(f"{path}.{e.field}" if e.field else path if at is None else at, str(e))
        return None


def _read(reader, d, *args):
    """reader(ctx, d, "", *args): a `from_dict`'s value, or one ConfigError naming every problem."""
    ctx = _Ctx()
    out = reader(ctx, d, "", *args)
    if ctx.errors:
        raise ConfigError(ctx.errors)
    return out


def _integer(name: str, v, low: int):
    """v if it is an integer of at least `low`; else an InputError naming `name` (booleans are not integers)."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise InputError(f"{name} must be an integer, got {v!r}", field=name)
    if v < low:
        raise InputError(f"{name} must be at least {low}", field=name)
    return v


def _real(v) -> bool:
    return not isinstance(v, bool) and isinstance(v, (int, float))


def _reals(v, min_len=0) -> bool:
    """True for a list of at least min_len real numbers (booleans are not numbers)."""
    return isinstance(v, list) and len(v) >= min_len and all(_real(u) for u in v)


def _scalar(ctx, v, path, integer=False):
    """v if it is a number (an integer, when asked), whatever its value; else None, reported."""
    if not _real(v) or integer and not isinstance(v, int):
        ctx.err(path, "expected an integer" if _real(v) else "expected a number")
        return None
    return v


def _number(ctx, v, path, positive=False, integer=False, minimum=None):
    if _scalar(ctx, v, path, integer) is None:
        return None
    if not math.isfinite(v):
        ctx.err(path, "must be finite")
        return None
    if positive and not v > 0:
        ctx.err(path, "must be positive")
        return None
    if minimum is not None and v < minimum:
        ctx.err(path, f"must be at least {minimum}")
        return None
    return v


def _order(ctx, v, path):
    if type(v) is not int or v not in (0, 1):  # true == 1 and 1.0 == 1 are not orders
        ctx.err(path, "expected 0 or 1")
        return None
    return v


def _is_pair(v) -> bool:
    return _reals(v) and len(v) == 2


def _pair(ctx, v, path):
    if not _is_pair(v):
        ctx.err(path, "expected a [re, im] pair")
        return None
    return complex(v[0], v[1])


def _pair_list(ctx, v, path, min_len=1):
    if not isinstance(v, list) or len(v) < min_len:
        ctx.err(path, f"expected a list of at least {min_len} [re, im] pairs")
        return None
    out = [_pair(ctx, u, f"{path}[{i}]") for i, u in enumerate(v)]
    return None if any(c is None for c in out) else out


def _whole(ctx, v, path, low):
    """v if it is an integer of at least `low`, 0 or 1 (booleans are not integers)."""
    if type(v) is not int or v < low:
        ctx.err(path, f"expected a {('non-negative', 'positive')[low]} integer")
        return None
    return v
