"""ISO-8601 UTC timestamp handling for file formats and CLI arguments, and
the one rule for naive datetimes: they are taken as UTC."""

from __future__ import annotations

from datetime import datetime, timezone

from .errors import DataFormatError


def aware(ts: datetime) -> datetime:
    """ts, with a naive timestamp taken as UTC."""
    return ts.replace(tzinfo=timezone.utc) if ts.tzinfo is None else ts


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are interpreted as UTC."""
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataFormatError(f"invalid ISO-8601 timestamp: {text!r}") from None
    try:
        return aware(ts).astimezone(timezone.utc)
    except OverflowError:
        raise DataFormatError(
            f"timestamp is outside the years 1 to 9999 in UTC: {text!r}"
        ) from None


def format_timestamp(ts: datetime) -> str:
    """Render a timestamp as ISO-8601 UTC with a trailing Z."""
    return aware(ts).astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"
