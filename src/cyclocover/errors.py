"""Shared exception types, and the one test of a count.

PreconditionError marks bad input: a library entry point raises it where
it validates what a caller passed in, and it is the only exception the
CLI reports as exit code 2.  InternalCheckError marks a failed
cross-check of something the theory guarantees (exit 3).  `is_count` is
what a rank, a dimension or a generator count must satisfy, in the
library and on the wire alike.
"""


class PreconditionError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    pass


def is_count(x):
    """Whether x is an int >= 0 and not a bool."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0
