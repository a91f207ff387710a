"""Exception types shared across the protocol library and simulators."""


class FissionError(Exception):
    """Base class for all protocol and simulation errors."""


# --- transaction / ledger ---

class TransactionRejected(FissionError):
    """A transaction or sub-transaction that the ledger refuses; the epoch
    pipeline counts it as invalid traffic and goes on."""


class InvalidSignature(TransactionRejected):
    pass


class NonPositiveValue(TransactionRejected):
    pass


class InsufficientBalance(TransactionRejected):
    pass


class BadNonce(TransactionRejected):
    pass


class UnknownAccount(TransactionRejected):
    pass


class MissingEagerLog(TransactionRejected):
    pass


class DoubleCredit(TransactionRejected):
    pass


class DuplicateDebit(TransactionRejected):
    pass


class CreditMismatch(TransactionRejected):
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


class MalformedCertificate(FissionError):
    """A vote certificate whose columns do not have one entry per voter."""


class PartitionMismatch(FissionError):
    pass


# --- sortition / crypto ---

class DomainError(FissionError):
    """A value outside its domain; ``parameter`` names the parameter at
    fault when the check knows it."""

    def __init__(self, message: str, parameter: str | None = None):
        super().__init__(message)
        self.parameter = parameter


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
