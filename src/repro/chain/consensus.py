"""Light-client consensus check for simulated source chains.

The paper's query client checks that every observed header "conforms to the
consensus protocol" (Algorithm 4, line 8).  We model a proof-of-work-style
rule: a header is valid if its digest falls below a per-chain difficulty
target.  Difficulty is deliberately tiny (a few leading zero bits) so block
production stays fast while still giving the light client a real,
forgeable-only-by-mining predicate to test.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.block import BlockHeader
from repro.errors import ChainError

#: Default number of leading zero bits required of a header digest.
DEFAULT_DIFFICULTY_BITS = 8

_MAX_NONCE = 1 << 32


@dataclass(frozen=True)
class SimulatedPoW:
    """Proof-of-work parameters for one chain."""

    difficulty_bits: int = DEFAULT_DIFFICULTY_BITS

    def target(self) -> int:
        return 1 << (256 - self.difficulty_bits)

    def check(self, header: BlockHeader) -> bool:
        """Return True iff the header satisfies the difficulty target."""
        return int.from_bytes(header.digest(), "big") < self.target()

    def mine(self, header: BlockHeader) -> BlockHeader:
        """Find a nonce satisfying the target (deterministic scan from 0)."""
        candidate = header
        for nonce in range(_MAX_NONCE):
            candidate = header.with_nonce(nonce)
            if self.check(candidate):
                return candidate
        raise ChainError("exhausted nonce space while mining")


def check_header(
    header: BlockHeader, pow_params: SimulatedPoW, chain_id: str
) -> None:
    """Raise :class:`~repro.errors.ChainError` unless the header is valid
    for ``chain_id`` under ``pow_params`` — the light-client check."""
    if header.chain_id != chain_id:
        raise ChainError(
            f"header chain id {header.chain_id!r} != expected {chain_id!r}"
        )
    if not pow_params.check(header):
        raise ChainError(
            f"header at height {header.height} fails the consensus check"
        )
