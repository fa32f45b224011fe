"""Exception types, and the one range rule, shared across the toolkit.

Every number a constructor or entry point checks goes through one of five
checks: finite, finite and >= 0, finite and > 0, within [0, 1], and an integer
from 1 to the float range. Each refuses with a DomainError in one grammar,
`<what> must be <rule>[ <unit>], got <value>`, and an integer past the float
range as `<what> exceeds the float range`, without its digits: past Python's
int-string digit limit they cannot be written out. A subject that names an
instance is a template, `what.format(name)`, so that a value which passes
builds no string. A check of another rule that refuses in the same grammar
builds its error with `refusal`.
"""

import sys

_MAX = sys.float_info.max


class WattplanError(Exception):
    """Base class for all wattplan errors."""


class DomainError(WattplanError):
    """A value violates a documented precondition or invariant."""


class DataFormatError(WattplanError):
    """An input file is malformed or does not match its schema."""


def refusal(value, what: str, rule: str, unit: str = "", name=None, show=str) -> DomainError:
    """The rule's DomainError for a value that breaks `rule`, shown by `show`."""
    what = what.format(name)
    if isinstance(value, int) and not -_MAX <= value <= _MAX:
        return DomainError(f"{what} exceeds the float range")
    return DomainError(f"{what} must be {rule}{' ' + unit if unit else ''}, got {show(value)}")


def check_finite(value, what: str, name=None) -> None:
    if not -_MAX <= value <= _MAX:
        raise refusal(value, what, "finite", "", name)


def check_nonnegative(value, what: str, unit: str = "", name=None) -> None:
    if not 0.0 <= value <= _MAX:
        raise refusal(value, what, ">= 0", unit, name)


def check_positive(value, what: str, unit: str = "", name=None) -> None:
    if not 0.0 < value <= _MAX:
        raise refusal(value, what, "> 0", unit, name)


def check_fraction(value, what: str, name=None) -> None:
    if not 0.0 <= value <= 1.0:
        raise refusal(value, what, "within [0, 1]", "", name)


def check_count(value, what: str, name=None) -> None:
    if not (isinstance(value, int) and 1 <= value <= _MAX):
        # a count that is not an int is shown by repr, which names its type
        raise refusal(value, what, "an integer >= 1", "", name, repr)
