"""Typed exceptions for the whole package.

Every class carries a stable ``code`` string so callers can dispatch on
the failure kind without parsing messages, and the process ``exit_code``
the CLI returns for it:

* 3, an enumeration cap was exceeded: ``NTooLargeError``,
  ``MTooLargeError``, ``SupportTooLargeError``;
* 2, invalid input or a decode failure: ``OracleDecodeError`` and its
  subclasses, ``OracleFormatError``, ``InvalidScmError``,
  ``InvalidTreeError``, ``InvalidSequenceError``, ``LengthMismatchError``,
  ``KindMismatchError``, ``BadRangeError``, ``BadPositionError``,
  ``NotMemberError``;
* 1, everything else: ``ScmLabError`` itself, ``CycleError``,
  ``ArityMismatchError``.
"""


class ScmLabError(Exception):
    """Base class for all package errors."""

    code = "ERROR"
    exit_code = 1

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class InvalidScmError(ScmLabError):
    """An SCM failed validation; ``issues`` holds the violation list."""

    code = "INVALID_SCM"
    exit_code = 2

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class CycleError(ScmLabError):
    code = "CYCLE"


class ArityMismatchError(ScmLabError):
    code = "ARITY_MISMATCH"


class SupportTooLargeError(ScmLabError):
    code = "SUPPORT_TOO_LARGE"
    exit_code = 3


class NTooLargeError(ScmLabError):
    code = "N_TOO_LARGE"
    exit_code = 3


class MTooLargeError(ScmLabError):
    code = "M_TOO_LARGE"
    exit_code = 3


class LengthMismatchError(ScmLabError):
    code = "LENGTH_MISMATCH"
    exit_code = 2


class KindMismatchError(ScmLabError):
    code = "KIND_MISMATCH"
    exit_code = 2


class BadPositionError(ScmLabError):
    code = "BAD_POSITION"
    exit_code = 2


class OracleFormatError(ScmLabError):
    """Serialized oracle bytes violate the canonical grammar."""

    code = "BAD_ORACLE"
    exit_code = 2


class OracleDecodeError(ScmLabError):
    """Base for decoder failures on oracles outside a family's image."""

    code = "DECODE"
    exit_code = 2


class NotTreeLikeError(OracleDecodeError):
    code = "NOT_TREE_LIKE"


class AmbiguousParentError(OracleDecodeError):
    code = "AMBIGUOUS_PARENT"


class NotBipartiteLikeError(OracleDecodeError):
    code = "NOT_BIPARTITE_LIKE"


class NotXorLikeError(OracleDecodeError):
    code = "NOT_XOR_LIKE"


class InvalidTreeError(ScmLabError):
    code = "INVALID_TREE"
    exit_code = 2


class InvalidSequenceError(ScmLabError):
    code = "INVALID_SEQUENCE"
    exit_code = 2


class NotMemberError(ScmLabError):
    code = "NOT_MEMBER"
    exit_code = 2


class BadRangeError(ScmLabError):
    code = "BAD_RANGE"
    exit_code = 2
