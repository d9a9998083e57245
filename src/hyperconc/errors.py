"""Library exceptions shared by every layer."""


class ConsistencyError(Exception):
    """Two computations that must agree did not: a bug, not a bad input.

    Deliberately not a ``ValueError``, so callers that reject bad arguments
    never mistake it for one; the command line maps it to exit code 2.
    """
