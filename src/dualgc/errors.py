"""Exception types shared across the package."""


class DualGCError(Exception):
    """Base class for every error raised by this package."""


class InputShapeError(DualGCError):
    """An input bit vector does not match the circuit's input map."""


class EncodingCoverageError(DualGCError):
    """Garbling was asked to run without an encoding for every input wire."""


class EvaluationError(DualGCError):
    """No garbled table row authenticated; tampered circuit or wrong labels."""


class DecodeError(DualGCError):
    """An output label matched neither label of its wire encoding."""


class OpeningError(DualGCError):
    """A commitment opening failed verification.

    ``party`` is the role whose opening failed, as the caller named it,
    when known.
    """

    def __init__(self, message: str, party=None):
        super().__init__(message)
        self.party = party


class CoinTossCheatError(OpeningError):
    """A coin-toss reveal contradicted the matching commitment."""


class FramingError(DualGCError):
    """A length-prefixed frame was truncated or malformed."""


class ProtocolError(DualGCError):
    """An unknown message type tag or an out-of-order protocol message."""


class TransportError(DualGCError):
    """A transport send/receive failed."""


class TransportTimeout(TransportError):
    """A role stayed silent past the configured receive deadline."""


class WidthError(DualGCError):
    """An auction intermediate would overflow the declared bit widths."""


class UsageError(DualGCError):
    """Bad command-line arguments (unknown adversary name, bad grid, ...)."""
