"""Shared exception types, and the one test of a count and of a sign.

PreconditionError marks bad input: a library entry point raises it where
it validates what a caller passed in, and it is the only exception the
CLI reports as exit code 2.  InternalCheckError marks a failed
cross-check of something the theory guarantees (exit 3).  `is_count` is
what a rank, a dimension or a generator count must satisfy, in the
library and on the wire alike; `check_count` refuses a count below a
least value (a cover degree, a power, an order), and `check_sign` a sign
other than +-1.  `shown` is the one cut of a refused value a message echoes.
"""

_SHOWN_LIMIT = 200  # the most characters of a refused value a message echoes


class PreconditionError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    pass


def shown(obj, show=repr):
    """show(obj), cut to _SHOWN_LIMIT characters and an ellipsis."""
    text = show(obj)
    return text if len(text) <= _SHOWN_LIMIT else text[:_SHOWN_LIMIT] + "..."


def is_count(x):
    """Whether x is an int >= 0 and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def check_count(name, n, least):
    """PreconditionError unless n is an int >= least and not a bool."""
    if not is_count(n) or n < least:
        raise PreconditionError(f"{name} must be an int >= {least}, not {shown(n)}")


def check_sign(sign):
    """PreconditionError unless sign is the int 1 or -1, not a bool."""
    if type(sign) is not int or sign not in (1, -1):
        raise PreconditionError(f"sign must be +1 or -1, not {shown(sign)}")
