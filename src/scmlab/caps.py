"""Desk-scale enumeration guardrails, one table row per cap.

Each cap has a default sized so every exhaustive sweep finishes in minutes
on one core; the environment variable of the same name is the only way to
override it. `check` is the one refusal every capped entry point calls,
`snapshot` the key memos are read under, and reports embed `all_caps` so
runs stay reproducible.
"""

import math
import os
from typing import NamedTuple

from .errors import BadRangeError, MTooLargeError, NTooLargeError, SupportTooLargeError


class Cap(NamedTuple):
    default: int
    error: type  # what `check` raises on refusal


CAPS = {
    # max number of exogenous enumeration points per distribution
    "SCMLAB_SUPPORT_CAP": Cap(2**24, SupportTooLargeError),
    # int_all enumerates 3^n mutilations
    "SCMLAB_INTALL_NMAX": Cap(12, NTooLargeError),
    # mass lines of one int_all oracle, over all of its components
    "SCMLAB_INTALL_LINE_CAP": Cap(2**22, SupportTooLargeError),
    # n^(n-1) rooted labeled trees
    "SCMLAB_TREE_NMAX": Cap(7, NTooLargeError),
    # 2^(m*m) layer graphs
    "SCMLAB_GRAPH_MMAX": Cap(3, MTooLargeError),
    # exhaustive oracle-equality accounting per trial
    "SCMLAB_NFL_MMAX": Cap(3, MTooLargeError),
}


def cap(name: str) -> int:
    """Return the cap named `name`, honoring an environment override.

    An override that is not a nonnegative integer raises BadRangeError.
    """
    default = CAPS[name].default
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadRangeError(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise BadRangeError(f"{name}={value} must be nonnegative")
    return value


def all_caps() -> dict[str, int]:
    """Snapshot of every active cap, for embedding in reports."""
    return {name: cap(name) for name in sorted(CAPS)}


def snapshot() -> tuple:
    """The active caps as a memo key, so a lowered cap refuses work
    memoized under the caps before it."""
    return tuple(all_caps().items())


def check(name: str, value: int, what: str, work, unit: str) -> None:
    """Refuse `value` above cap `name` before any work, raising the row's
    error "<what> exceeds NAME=limit: refused <work> <unit>". `what` is
    formatted with `value`, and `work()` gives the refused work as
    {base: exponent}; both are read only on refusal."""
    limit = cap(name)
    if value > limit:
        raise CAPS[name].error(
            f"{what.format(value)} exceeds {name}={limit}: "
            f"refused {work_text(work())} {unit}"
        )


def work_text(factors: dict[int, int]) -> str:
    """A product of powers as a refusal states it: {3: 9} gives
    "3^9 = 19683" and {2: 5, 3: 2} gives "2^5*3^2 = 288". The value is
    left out when too long to print."""
    if not factors:
        return "1"
    text = "*".join(f"{base}^{exp}" for base, exp in sorted(factors.items()))
    if sum(exp * base.bit_length() for base, exp in factors.items()) <= 128:
        text += f" = {math.prod(base**exp for base, exp in factors.items())}"
    return text
