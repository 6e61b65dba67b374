"""Exception hierarchy shared by every layer of the toolkit.

Decryption-side failures all derive from :class:`DecryptError` so callers
that only care about "plaintext or not" can catch one class, while tests
and diagnostics can still distinguish the concrete failure.
"""

from __future__ import annotations


class MlabeError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------------------
# Policy language
# ---------------------------------------------------------------------------

class PolicyError(MlabeError):
    """Base class for access-policy errors."""


class PolicySyntaxError(PolicyError):
    """Policy text failed to parse.

    Carries, when known, the character offset of the offending token and
    what the parser expected there. An error rebuilt from its message
    alone, as a client does, has neither.
    """

    def __init__(self, message: str, position: int | None = None,
                 expected: str | None = None):
        detail = message if position is None else f"{message} at position {position}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class EmptyPolicyError(PolicyError):
    """Policy text was empty or whitespace-only."""


# ---------------------------------------------------------------------------
# Key management
# ---------------------------------------------------------------------------

class UnsupportedParameter(MlabeError):
    """Security parameter outside the supported set."""


class EmptyAttributeSet(MlabeError):
    """Key generation requires at least one attribute."""


class MissingTimestamp(MlabeError):
    """Key generation requires the issuance timestamp attribute."""


# ---------------------------------------------------------------------------
# Encryption side
# ---------------------------------------------------------------------------

class MessageTooLong(MlabeError):
    """Message exceeds the backend's encapsulation width."""


class EmptyPlaintext(MlabeError):
    """Hybrid encryption of an empty payload is not meaningful."""


class EntropyFailure(MlabeError):
    """The injected entropy source failed or returned malformed output."""


class BackendMismatch(MlabeError):
    """Key/ciphertext objects belong to different backends."""


# ---------------------------------------------------------------------------
# Decryption side (the bottom family; all map to an opaque failure at the
# API boundary but stay distinguishable for diagnostics)
# ---------------------------------------------------------------------------

class DecryptError(MlabeError):
    """Base class for every way a decryption can fail."""


class MalformedCiphertext(DecryptError):
    """Ciphertext bytes are structurally broken or fail authentication."""


class MalformedLayer(DecryptError):
    """A removable-layer container is structurally broken or tampered."""


class PolicyUnsatisfied(DecryptError):
    """The key's attributes do not satisfy the relevant access policy."""

    def __init__(self, message: str = "attributes do not satisfy policy",
                 layer_index: int | None = None):
        if layer_index is not None:
            message = f"{message} (layer {layer_index})"
        super().__init__(message)
        self.layer_index = layer_index


class FoCheckFailed(DecryptError):
    """The re-encryption equality check rejected the encapsulation."""


class AeadTagFailure(DecryptError):
    """Payload AEAD authentication failed."""


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------

class EmptyPolicyList(MlabeError):
    """Layer addition requires at least one policy."""


class KeepExceedsLayers(MlabeError):
    """Requested to keep more layers than the ciphertext carries."""


# ---------------------------------------------------------------------------
# Exchange services
# ---------------------------------------------------------------------------

class ExchangeError(MlabeError):
    """Base class for service-level failures."""


class Unauthorized(ExchangeError):
    """Caller is not allowed to perform the requested operation."""


class NotFound(ExchangeError):
    """Requested record does not exist."""


class EngineUnreachable(ExchangeError):
    """Engine endpoint could not be reached after retries."""


class StoreFailure(ExchangeError):
    """Persistent store rejected or lost a write."""


# ---------------------------------------------------------------------------
# Bench / CLI
# ---------------------------------------------------------------------------

class ConfigError(MlabeError):
    """Benchmark or CLI configuration is invalid."""


def _with_subclasses(cls: type[MlabeError]) -> list[type[MlabeError]]:
    return [cls] + [sub for direct in cls.__subclasses__()
                    for sub in _with_subclasses(direct)]


# Registry used by the wire transport to rehydrate typed errors client-side:
# every class above, each of which can be rebuilt from its message alone.
ERROR_CLASSES: dict[str, type[MlabeError]] = {
    cls.__name__: cls for cls in _with_subclasses(MlabeError)
}
