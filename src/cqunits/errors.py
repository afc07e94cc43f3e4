"""Exception taxonomy shared by all modules.

Every error carries a short machine-readable slug and the process exit
status used by the CLI: 1 hypothesis violation, 2 parse error,
3 math/domain error, 4 size or enumeration budget exceeded.  Any other
exception is a bug, reported as "internal-error" with exit status 5.
"""

from __future__ import annotations

INTERNAL_ERROR_SLUG = "internal-error"
INTERNAL_ERROR_EXIT = 5


class ToolkitError(Exception):
    exit_code = 3
    slug = "error"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


class HypothesisViolation(ToolkitError):
    """A hypothesis of the instance (or of the requested result) fails."""

    exit_code = 1
    slug = "hypothesis-violation"


class ParseError(ToolkitError):
    exit_code = 2
    slug = "parse-error"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class MathDomainError(ToolkitError):
    exit_code = 3
    slug = "domain-error"


class BudgetExceeded(ToolkitError):
    exit_code = 4
    slug = "budget-exceeded"


# field layer

class NotPrime(HypothesisViolation):
    slug = "not-prime"


class ReducibleModulus(HypothesisViolation):
    slug = "reducible-modulus"


class QDoesNotDivide(HypothesisViolation):
    slug = "q-does-not-divide"


class ZeroInverse(MathDomainError):
    slug = "zero-inverse"


class CtxMismatch(MathDomainError):
    """Operands belong to different fields, groups or algebras."""

    slug = "ctx-mismatch"


# group layer

class NotAutomorphism(HypothesisViolation):
    slug = "not-automorphism"


class ActionOrderWrong(HypothesisViolation):
    slug = "action-order-wrong"


class NotFixedPointFree(HypothesisViolation):
    slug = "not-fixed-point-free"


# algebra / unit-group layer

class NotAUnit(MathDomainError):
    slug = "not-a-unit"


class NotSkew(MathDomainError):
    slug = "not-skew"


class NotInGamma(MathDomainError):
    slug = "not-in-gamma"


class NotUnitary(MathDomainError):
    slug = "not-unitary"


class NotInOnePlusGamma(MathDomainError):
    slug = "not-in-one-plus-gamma"


class RepeatedProjections(MathDomainError):
    slug = "repeated-projections"


class BadCentralizerElement(MathDomainError):
    slug = "bad-centralizer-element"


# verifier layer

class BranchMismatch(HypothesisViolation):
    slug = "branch-mismatch"


class HypothesisFail(HypothesisViolation):
    slug = "hypothesis-fail"
