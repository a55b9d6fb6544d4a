"""The two exception types, one per way the CLI handles a failure, and
the only exceptions the program raises itself.

Every error carries a message that says what went wrong.  An InvalidConfig
is a bad flag, config key or setting value and exits 2; every other
OctCystError, like any OSError, is a bad or missing input or a failed run
and exits 1.
"""


class OctCystError(Exception):
    """A bad or missing input, or a failed run (exit 1)."""


class InvalidConfig(OctCystError, ValueError):
    """A bad flag, config key or setting value (exit 2)."""
