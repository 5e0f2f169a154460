"""Desk-scale enumeration guardrails.

Each cap has a default sized so every exhaustive sweep finishes in minutes
on one core. Environment variables of the same name override the defaults;
reports embed the active snapshot so runs stay reproducible.
"""

import math
import os

from .errors import BadRangeError

_DEFAULTS = {
    # max number of exogenous enumeration points per distribution
    "SCMLAB_SUPPORT_CAP": 2**24,
    # int_all enumerates 3^n mutilations
    "SCMLAB_INTALL_NMAX": 12,
    # n^(n-1) rooted labeled trees
    "SCMLAB_TREE_NMAX": 7,
    # 2^(m*m) layer graphs
    "SCMLAB_GRAPH_MMAX": 3,
    # exhaustive oracle-equality accounting per trial
    "SCMLAB_NFL_MMAX": 3,
}


def cap(name: str) -> int:
    """Return the cap named `name`, honoring an environment override.

    An override that is not a nonnegative integer raises BadRangeError.
    """
    if name not in _DEFAULTS:
        raise KeyError(name)
    raw = os.environ.get(name)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise BadRangeError(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise BadRangeError(f"{name}={value} must be nonnegative")
    return value


def all_caps() -> dict[str, int]:
    """Snapshot of every active cap, for embedding in reports."""
    return {name: cap(name) for name in sorted(_DEFAULTS)}


def in_force(name: str, override: int | None, argument: str) -> tuple[int, str]:
    """The cap in force and how a refusal names it: `argument=value` for an
    explicit override, else `name=value` from the environment or default."""
    if override is None:
        value = cap(name)
        return value, f"{name}={value}"
    return override, f"{argument}={override}"


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
