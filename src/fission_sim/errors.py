"""Exception types shared across the protocol library and simulators."""


class FissionError(Exception):
    """Base class for all protocol and simulation errors."""


# --- transaction / ledger ---

class InvalidSignature(FissionError):
    pass


class NonPositiveValue(FissionError):
    pass


class InsufficientBalance(FissionError):
    pass


class BadNonce(FissionError):
    pass


class UnknownAccount(FissionError):
    pass


class MissingEagerLog(FissionError):
    pass


class DoubleCredit(FissionError):
    pass


class DuplicateDebit(FissionError):
    pass


class CreditMismatch(FissionError):
    pass


# --- chain structure ---

class AlternationViolation(FissionError):
    pass


class BadInterimLink(FissionError):
    pass


class RootMismatch(FissionError):
    pass


class InsufficientVotes(FissionError):
    pass


class PartitionMismatch(FissionError):
    pass


# --- sortition / crypto ---

class DomainError(FissionError):
    pass


class VerificationFailure(FissionError):
    pass


class ApproximationUnsound(FissionError):
    pass


# --- relay / retrieval games ---

class EmptySpace(FissionError):
    pass


# --- configuration and harness ---

class ParseError(FissionError):
    pass


class ValidationError(FissionError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


class InvariantViolation(FissionError):
    """Raised when a mid-run invariant check fails; carries module and invariant name."""

    def __init__(self, module: str, invariant: str, detail: str = ""):
        msg = f"[{module}] invariant '{invariant}' violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.module = module
        self.invariant = invariant
