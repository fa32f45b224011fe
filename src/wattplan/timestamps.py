"""ISO-8601 UTC timestamp handling for file formats and CLI arguments."""

from __future__ import annotations

from datetime import datetime, timezone

from .errors import DataFormatError


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 timestamp; naive values are interpreted as UTC."""
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataFormatError(f"invalid ISO-8601 timestamp: {text!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise DataFormatError(
            f"timestamp is outside the years 1 to 9999 in UTC: {text!r}"
        ) from None


def format_timestamp(ts: datetime) -> str:
    """Render a timestamp as ISO-8601 UTC with a trailing Z."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.isoformat() + "Z"
