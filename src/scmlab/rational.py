"""Text form for exact probabilities: always "num/den", even for integers."""

import math
import re
import sys
from fractions import Fraction

from .errors import OracleFormatError

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def frac_str(x: Fraction) -> str:
    """Render in lowest terms with an explicit denominator, e.g. "1/1". A
    number past the interpreter's digit limit for int-to-text conversion
    raises OracleFormatError."""
    return _fraction_text(x.numerator, x.denominator)


def mass_line(outcome: str, num: int, den: int) -> str:
    """The one rendering of an oracle mass line, "<outcome>=<num>/<den>",
    for a mass num/den given in lowest terms; a number too long to write
    raises OracleFormatError, as in `frac_str`."""
    return f"{outcome}={_fraction_text(num, den)}"


def _fraction_text(num: int, den: int) -> str:
    try:
        return f"{num}/{den}"
    except ValueError:  # past the interpreter's digit limit for int-to-text conversion
        raise OracleFormatError(
            f"a fraction of {max(num, den).bit_length()} bits has more than "
            f"{sys.get_int_max_str_digits()} digits, too long to write"
        ) from None


def frac_repr(x: Fraction) -> str:
    """`repr(x)`, or for a number past the interpreter's digit limit for
    int-to-text conversion a placeholder naming its type and size."""
    try:
        return repr(x)
    except ValueError:
        return (f"<Fraction too long to write: {x.numerator.bit_length()}-bit "
                f"numerator, {x.denominator.bit_length()}-bit denominator>")


# digits without leading zeros, so every value has exactly one spelling
_FRACTION_RE = re.compile(r"(0|[1-9][0-9]*)/(0|[1-9][0-9]*)")


def frac_parse(text: str) -> Fraction:
    """Parse "num/den"; reject anything but the one canonical spelling."""
    match = _FRACTION_RE.fullmatch(text)
    if not match:
        raise OracleFormatError(f"malformed fraction {text!r}")
    try:
        num, den = int(match.group(1)), int(match.group(2))
    except ValueError:  # past the interpreter's digit limit for int conversion
        raise OracleFormatError(f"fraction of {len(text)} characters is too long") from None
    if den == 0:
        raise OracleFormatError(f"zero denominator in {text!r}")
    if math.gcd(num, den) != 1:
        raise OracleFormatError(f"fraction {text!r} is not in lowest terms")
    return Fraction(num, den)
