"""Exception types, and the one count message, shared across the toolkit."""

import sys


class WattplanError(Exception):
    """Base class for all wattplan errors."""


class DomainError(WattplanError):
    """A value violates a documented precondition or invariant."""


class DataFormatError(WattplanError):
    """An input file is malformed or does not match its schema."""


def count_fault(name: str, count, rule: str) -> str:
    """Why a count breaks its rule. An integer past the float range is said to
    be so and not written out: past Python's int-string digit limit, it cannot be."""
    if isinstance(count, int) and abs(count) > sys.float_info.max:
        return f"{name} exceeds the float range"
    return f"{name} {rule}, got {count!r}"
