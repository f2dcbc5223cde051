"""Exception hierarchy for the V2FS reproduction.

Every failure mode in the system raises a subclass of :class:`ReproError`,
so callers can catch the whole family or a specific condition.  Verification
failures are deliberately separated from operational errors: a
:class:`VerificationError` means an *integrity* property was violated
(potentially an attack), while the other subclasses signal ordinary misuse
or resource problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class VerificationError(ReproError):
    """An integrity check failed (tampered data, forged proof/certificate)."""


class CertificateError(VerificationError):
    """A DCert or V2FS certificate failed validation."""


class ProofError(VerificationError):
    """A Merkle proof failed to reconstruct the expected root."""


class StorageError(ReproError):
    """A filesystem/page-store operation failed (missing file, bad offset)."""


class FileNotFoundInStoreError(StorageError):
    """The requested path does not exist in the page store."""


class TornPageError(StorageError):
    """A page failed its checksum epilogue: a torn or corrupt write was
    detected on read-back instead of being silently returned."""


class SQLError(ReproError):
    """Base class for database-engine errors."""


class SQLParseError(SQLError):
    """The SQL text could not be tokenized or parsed."""


class SQLCatalogError(SQLError):
    """Reference to an unknown table/column/index, or a duplicate definition."""


class SQLTypeError(SQLError):
    """A value had the wrong type for the requested operation."""


class SQLExecutionError(SQLError):
    """A runtime failure while executing a query plan."""


class ChainError(ReproError):
    """A blockchain structural rule was violated (bad link, height, etc.)."""


class EnclaveError(ReproError):
    """Illegal use of the simulated SGX enclave boundary."""


class NetworkError(ReproError):
    """A simulated network transport failure."""


class FleetError(NetworkError):
    """A sharded-fleet coordination failure (unroutable path, conflicting
    per-shard proofs during VO stitching, partial ``sync_update`` fan-out).
    A :class:`NetworkError` on the wire: clients treat it as a transient
    service failure, never as verified data."""


class RpcError(NetworkError):
    """A failure on the real (socket-backed) client-ISP RPC path."""


class WireFormatError(RpcError):
    """A frame or message violated the wire protocol (malformed, corrupt,
    truncated, or oversized input).  Raised instead of ever crashing on —
    or silently accepting — bytes from an untrusted peer."""


class RpcConnectionError(RpcError):
    """Could not establish or keep a connection to the RPC peer."""


class RpcTimeoutError(RpcError):
    """An RPC did not complete within its per-request timeout."""


class DeadlineExceededError(RpcTimeoutError):
    """A request's end-to-end deadline budget ran out before it completed.

    Distinct from :class:`RpcTimeoutError` (one socket round trip took
    too long): the *whole call* — retries, backoff, router fan-out —
    spent its budget.  A deadline abort is always a typed refusal,
    never a partial or unverified answer."""


class OverloadedError(RpcError):
    """The server shed this request at admission (bounded-queue
    overload).  Carries ``retry_after_s``, the server's backpressure
    hint; clients honor it instead of hammering a saturated endpoint.
    Shedding never counts against the endpoint's circuit breaker — an
    overloaded server is alive, not dead."""

    def __init__(
        self, message: str, retry_after_s: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class EpochError(FleetError):
    """The fleet's shard map changed epoch (a failover promotion)
    while this session was in flight.  The routing the session pinned
    is no longer valid, so it aborts typed rather than stitch a proof
    across two fleet topologies; the client reopens and retries."""


class SanitizerError(ReproError):
    """The runtime lock-order checker accumulated reports (lock-order
    inversions) that the caller asserted could not occur."""
