"""Seeded synthetic activity generators for the simulated source chains.

The paper's dataset is one week of Bitcoin + Ethereum mainnet activity.
These generators produce the laptop-scale equivalent: two chains sharing a
:class:`Universe` of addresses, ERC-20-style tokens, and NFT assets, so
that cross-chain queries (NFT provenance across marketplaces, total value
locked across networks) have meaningful joins and unions.

Activity is skewed: addresses and assets are sampled Zipfian, so a small
set of hot accounts dominates — this is what makes the paper's inter-query
page cache effective, and it is preserved deliberately.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.chain.chain import Blockchain


def _zipf_weights(n: int, exponent: float = 1.1) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


@dataclass
class Universe:
    """Shared addresses and assets sampled by both chain generators."""

    seed: int = 7
    n_addresses: int = 200
    n_tokens: int = 12
    n_nft_collections: int = 8
    nfts_per_collection: int = 25
    addresses: List[str] = field(default_factory=list)
    tokens: List[Dict[str, str]] = field(default_factory=list)
    nfts: List[Dict[str, str]] = field(default_factory=list)
    marketplaces: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self.addresses = [
            "0x%040x" % rng.getrandbits(160) for _ in range(self.n_addresses)
        ]
        symbols = [
            "USDT", "USDC", "WETH", "WBTC", "DAI", "LINK",
            "UNI", "AAVE", "CRV", "MKR", "SNX", "COMP",
        ]
        self.tokens = [
            {
                "address": "0x%040x" % rng.getrandbits(160),
                "symbol": symbols[i % len(symbols)],
            }
            for i in range(self.n_tokens)
        ]
        self.nfts = [
            {
                "collection": f"collection-{c}",
                "token_id": "0x%04x" % ((c << 8) | i),
            }
            for c in range(self.n_nft_collections)
            for i in range(self.nfts_per_collection)
        ]
        self.marketplaces = ["opensea", "blur", "magiceden", "looksrare"]
        self._addr_weights = _zipf_weights(len(self.addresses))
        self._token_weights = _zipf_weights(len(self.tokens))
        self._nft_weights = _zipf_weights(len(self.nfts))

    def pick_address(self, rng: random.Random) -> str:
        return rng.choices(self.addresses, weights=self._addr_weights)[0]

    def pick_token(self, rng: random.Random) -> Dict[str, str]:
        return rng.choices(self.tokens, weights=self._token_weights)[0]

    def pick_nft(self, rng: random.Random) -> Dict[str, str]:
        return rng.choices(self.nfts, weights=self._nft_weights)[0]

    def pick_marketplace(self, rng: random.Random) -> str:
        return rng.choice(self.marketplaces)


#: Default wall-clock start: 2023-05-12 00:00:00 UTC (the paper's window).
DEFAULT_START_TIME = 1_683_849_600


class _GeneratorBase:
    """Shared machinery: a chain, a clock, and a seeded RNG."""

    chain_id = "base"
    block_interval_s = 600

    def __init__(
        self,
        universe: Universe,
        seed: int = 1,
        start_time: int = DEFAULT_START_TIME,
        txs_per_block: int = 12,
    ) -> None:
        self.universe = universe
        # crc32, not hash(): str hashes are salted per process
        # (PYTHONHASHSEED), and the generated history must not be.
        self.rng = random.Random(
            (seed << 16) ^ zlib.crc32(self.chain_id.encode()) & 0xFFFF
        )
        self.clock = start_time
        self.txs_per_block = txs_per_block
        self.chain = Blockchain(self.chain_id)
        self._tx_counter = 0

    def next_tx_id(self) -> str:
        self._tx_counter += 1
        return f"{self.chain_id}-tx-{self._tx_counter:08d}"

    def make_transactions(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def advance_block(self) -> None:
        """Mine and append one block of synthetic activity."""
        txs = self.make_transactions()
        self.chain.mine_and_append(txs, self.clock)
        self.clock += self.block_interval_s

    def advance_blocks(self, count: int) -> None:
        for _ in range(count):
            self.advance_block()


class BitcoinLikeGenerator(_GeneratorBase):
    """UTXO-style activity: transactions with inputs/outputs and fees,
    plus ordinals-style NFT inscriptions so cross-chain NFT queries span
    both chains."""

    chain_id = "btc"
    block_interval_s = 600

    def make_transactions(self) -> List[Dict[str, Any]]:
        rng, uni = self.rng, self.universe
        txs: List[Dict[str, Any]] = []
        for _ in range(self.txs_per_block):
            n_in = rng.randint(1, 3)
            n_out = rng.randint(1, 3)
            inputs = [
                {
                    "address": uni.pick_address(rng),
                    "value": rng.randint(10_000, 5_000_000),
                }
                for _ in range(n_in)
            ]
            total_in = sum(i["value"] for i in inputs)
            fee = rng.randint(200, 5_000)
            spendable = max(total_in - fee, n_out)
            outputs = []
            remaining = spendable
            for i in range(n_out):
                value = (
                    remaining
                    if i == n_out - 1
                    else rng.randint(1, max(1, remaining - (n_out - 1 - i)))
                )
                remaining -= value
                outputs.append(
                    {"address": uni.pick_address(rng), "value": value}
                )
            tx: Dict[str, Any] = {
                "kind": "btc_tx",
                "tx_id": self.next_tx_id(),
                "fee": fee,
                "inputs": inputs,
                "outputs": outputs,
            }
            if rng.random() < 0.15:
                nft = uni.pick_nft(rng)
                tx["nft_transfer"] = {
                    "collection": nft["collection"],
                    "token_id": nft["token_id"],
                    "from_address": uni.pick_address(rng),
                    "to_address": uni.pick_address(rng),
                    "marketplace": uni.pick_marketplace(rng),
                    "price": round(rng.uniform(0.01, 25.0), 4),
                }
            txs.append(tx)
        return txs


class EthereumLikeGenerator(_GeneratorBase):
    """Account-style activity: value transfers, ERC-20 token transfers,
    NFT marketplace trades, and event logs."""

    chain_id = "eth"
    block_interval_s = 600

    def make_transactions(self) -> List[Dict[str, Any]]:
        rng, uni = self.rng, self.universe
        txs: List[Dict[str, Any]] = []
        for _ in range(self.txs_per_block):
            tx: Dict[str, Any] = {
                "kind": "eth_tx",
                "hash": self.next_tx_id(),
                "from_address": uni.pick_address(rng),
                "to_address": uni.pick_address(rng),
                "value": rng.randint(0, 10_000_000),
                "gas_used": rng.randint(21_000, 400_000),
                "gas_price": rng.randint(10, 150),
            }
            roll = rng.random()
            if roll < 0.40:
                token = uni.pick_token(rng)
                tx["token_transfers"] = [
                    {
                        "token_address": token["address"],
                        "symbol": token["symbol"],
                        "from_address": uni.pick_address(rng),
                        "to_address": uni.pick_address(rng),
                        "value": rng.randint(1, 1_000_000),
                    }
                    for _ in range(rng.randint(1, 2))
                ]
            elif roll < 0.60:
                nft = uni.pick_nft(rng)
                tx["nft_transfer"] = {
                    "collection": nft["collection"],
                    "token_id": nft["token_id"],
                    "from_address": uni.pick_address(rng),
                    "to_address": uni.pick_address(rng),
                    "marketplace": uni.pick_marketplace(rng),
                    "price": round(rng.uniform(0.01, 120.0), 4),
                }
            if rng.random() < 0.3:
                tx["logs"] = [
                    {
                        "address": uni.pick_address(rng),
                        "topic": f"topic-{rng.randint(0, 15)}",
                    }
                ]
            txs.append(tx)
        return txs
