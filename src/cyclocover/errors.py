"""Shared exception types.

PreconditionError marks bad input: a library entry point raises it where
it validates what a caller passed in, and it is the only exception the
CLI reports as exit code 2.  InternalCheckError marks a failed
cross-check of something the theory guarantees (exit 3).
"""


class PreconditionError(ValueError):
    pass


class InternalCheckError(RuntimeError):
    pass
