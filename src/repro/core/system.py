"""End-to-end system assembly (the paper's Figure 4).

:class:`V2FSSystem` wires all five parties together:

* two simulated source chains (Bitcoin-like, Ethereum-like) with shared
  activity so cross-chain queries are meaningful;
* one DCert CI per chain certifying each new block;
* the V2FS CI maintaining the authenticated database inside a simulated
  SGX enclave and issuing ``C_V2FS``;
* the ISP replicating the certified storage and serving clients;
* query clients in any of the four cache modes.

``advance_block`` pushes one new block through the whole pipeline
(generation → DCert → V2FS maintenance → ISP sync), exactly the paper's
steps 1-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.chain.datagen import (
    DEFAULT_START_TIME,
    BitcoinLikeGenerator,
    EthereumLikeGenerator,
    Universe,
)
from repro.chain.etl import extract_rows, full_schema
from repro.client.query_client import QueryClient
from repro.client.vfs import QueryMode
from repro.core.certificate import V2fsCertificate
from repro.core.ci import MaintenanceReport, V2fsCertificateIssuer
from repro.db.engine import Engine
from repro.dcert.certifier import DCertCertificate, DCertIssuer
from repro.errors import ChainError
from repro.isp.server import IspServer
from repro.network.transport import NetworkCostModel
from repro.sgx.attestation import AttestationService
from repro.vfs.local import LocalFilesystem

#: Indexes created at bootstrap: (index name, table, column).
DEFAULT_INDEXES: List[Tuple[str, str, str]] = [
    ("idx_btc_tx_time", "btc_transactions", "block_time"),
    ("idx_btc_tx_id", "btc_transactions", "tx_id"),
    ("idx_btc_in_time", "btc_inputs", "block_time"),
    ("idx_btc_in_addr", "btc_inputs", "address"),
    ("idx_btc_in_tx", "btc_inputs", "tx_id"),
    ("idx_btc_out_time", "btc_outputs", "block_time"),
    ("idx_btc_out_addr", "btc_outputs", "address"),
    ("idx_btc_out_tx", "btc_outputs", "tx_id"),
    ("idx_btc_nft_time", "btc_nft_transfers", "block_time"),
    ("idx_btc_nft_token", "btc_nft_transfers", "token_id"),
    ("idx_btc_blocks_height", "btc_blocks", "height"),
    ("idx_eth_tx_time", "eth_transactions", "block_time"),
    ("idx_eth_tx_hash", "eth_transactions", "hash"),
    ("idx_eth_tx_from", "eth_transactions", "from_address"),
    ("idx_eth_tt_time", "eth_token_transfers", "block_time"),
    ("idx_eth_tt_tx", "eth_token_transfers", "tx_hash"),
    ("idx_eth_nft_time", "eth_nft_transfers", "block_time"),
    ("idx_eth_nft_token", "eth_nft_transfers", "token_id"),
    ("idx_eth_nft_tx", "eth_nft_transfers", "tx_hash"),
    ("idx_eth_logs_time", "eth_logs", "block_time"),
    ("idx_eth_logs_tx", "eth_logs", "tx_hash"),
    ("idx_eth_blocks_height", "eth_blocks", "height"),
]


def ingest_block(engine: Engine, block: Block) -> None:
    """The CI's per-block work: Blockchain-ETL rows into their tables."""
    for table, rows in extract_rows(block).items():
        if not rows:
            continue
        schema = engine.catalog.table(table)
        ordered = [
            [row[column] for column, _ in schema.columns]
            for row in rows
        ]
        engine.insert_rows(table, ordered)


@dataclass
class SystemConfig:
    """Knobs for building a system instance.

    The defaults are the laptop-scale equivalent of the paper's setup:
    one block per simulated hour per chain (so the paper's 3-48 h query
    windows span 3-48 blocks), a dozen transactions per block, and a
    VBF sized for the scaled page population (the paper's 100,000-slot
    filter is configurable).
    """

    seed: int = 7
    txs_per_block: int = 12
    block_interval_s: int = 3600
    start_time: int = DEFAULT_START_TIME
    use_sgx: bool = True
    vbf_slots: int = 8192
    vbf_hashes: int = 5
    network: NetworkCostModel = field(default_factory=NetworkCostModel)


class V2FSSystem:
    """All five parties, wired."""

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        self.config = config if config is not None else SystemConfig()
        cfg = self.config
        self.universe = Universe(seed=cfg.seed)
        self.generators = {
            "btc": BitcoinLikeGenerator(
                self.universe, seed=cfg.seed, start_time=cfg.start_time,
                txs_per_block=cfg.txs_per_block,
            ),
            "eth": EthereumLikeGenerator(
                self.universe, seed=cfg.seed + 1, start_time=cfg.start_time,
                txs_per_block=cfg.txs_per_block,
            ),
        }
        for generator in self.generators.values():
            generator.block_interval_s = cfg.block_interval_s
        self.chains = {
            chain_id: generator.chain
            for chain_id, generator in self.generators.items()
        }
        self.dcert_issuers = {
            chain_id: DCertIssuer(chain_id)
            for chain_id in self.chains
        }
        self._dcert_certs: Dict[str, List[DCertCertificate]] = {
            chain_id: [] for chain_id in self.chains
        }
        self.ci = V2fsCertificateIssuer(
            dcert_public_keys={
                chain_id: issuer.public_key
                for chain_id, issuer in self.dcert_issuers.items()
            },
            use_sgx=cfg.use_sgx,
            vbf_slots=cfg.vbf_slots,
            vbf_hashes=cfg.vbf_hashes,
        )
        self.isp = IspServer()
        self.attestation = AttestationService()
        self.attestation_report = self.attestation.quote(self.ci.enclave)
        #: One entry per maintenance run: certificate and metrics, *not*
        #: the write batch (see :meth:`certified_state`).
        self.update_reports: List[MaintenanceReport] = []
        self._bootstrap_schema()

    # ------------------------------------------------------------------
    # Bootstrap and block pipeline
    # ------------------------------------------------------------------

    def _bootstrap_schema(self) -> None:
        """Create every table and index through the maintenance path."""

        def setup(engine: Engine) -> None:
            for table, columns in sorted(full_schema().items()):
                column_defs = ", ".join(
                    f"{name} {sql_type}" for name, sql_type in columns
                )
                engine.execute(f"CREATE TABLE {table} ({column_defs})")
            for index_name, table, column in DEFAULT_INDEXES:
                engine.execute(
                    f"CREATE INDEX {index_name} ON {table} ({column})"
                )

        self._publish(self.ci.bootstrap(setup))

    def _publish(self, report: MaintenanceReport) -> None:
        self.isp.sync_update(
            report.writes, report.new_sizes, report.certificate
        )
        self.update_reports.append(report.without_batch())

    def advance_block(self, chain_id: str) -> MaintenanceReport:
        """Generate, certify, ingest, and replicate one new block."""
        return self.advance_blocks(chain_id, 1)

    def advance_blocks(self, chain_id: str, count: int) -> MaintenanceReport:
        """Push ``count`` new blocks of one chain through the pipeline
        as a single maintenance batch (Fig. 8's batching axis)."""
        generator = self.generators.get(chain_id)
        if generator is None:
            raise ChainError(f"unknown chain {chain_id!r}")
        issuer = self.dcert_issuers[chain_id]
        chain = generator.chain
        batch: List[Tuple[Block, DCertCertificate]] = []
        for _ in range(count):
            prev_block = (
                chain.block_at(chain.height) if len(chain) else None
            )
            prev_certs = self._dcert_certs[chain_id]
            prev_cert = prev_certs[-1] if prev_certs else None
            generator.advance_block()
            block = chain.block_at(chain.height)
            dcert = issuer.certify(prev_block, prev_cert, block)
            prev_certs.append(dcert)
            batch.append((block, dcert))

        report = self.ci.process_blocks(batch, ingest_block)
        self._publish(report)
        return report

    def certified_state(
        self,
    ) -> Tuple[Dict[str, Dict[int, bytes]], Dict[str, int], V2fsCertificate]:
        """``(writes, new_sizes, certificate)`` of the current state.

        One write batch holding every live page of the CI's storage at
        its certified root, plus the latest certificate: applied to an
        empty ISP, shard or replica it lands on the certified root (the
        ADS is history-independent), which is how a late joiner catches
        up without the superseded page versions of every past block.
        """
        ads, root = self.ci.storage, self.ci.storage_root
        writes: Dict[str, Dict[int, bytes]] = {}
        new_sizes: Dict[str, int] = {}
        for path in ads.list_files(root):
            node = ads.file_node(root, path)
            new_sizes[path] = node.size
            writes[path] = {
                page_id: ads.get_page(root, path, page_id)
                for page_id in range(node.page_count)
            }
        return writes, new_sizes, self.ci.certificate

    def advance_all(self, blocks_per_chain: int) -> None:
        """Advance both chains in lockstep, one block at a time."""
        for _ in range(blocks_per_chain):
            for chain_id in sorted(self.generators):
                self.advance_block(chain_id)

    @property
    def latest_time(self) -> int:
        """Latest block timestamp across chains (workload anchor)."""
        return max(
            chain.latest_header().timestamp
            for chain in self.chains.values()
            if len(chain)
        )

    # ------------------------------------------------------------------
    # Clients and baselines
    # ------------------------------------------------------------------

    def make_client(
        self,
        mode: QueryMode = QueryMode.INTER_VBF,
        cache_bytes: int = 1 << 30,
        isp=None,
    ) -> QueryClient:
        """A verifying client of this system's chains and enclave,
        querying ``isp`` (default: the system's own ISP)."""
        return QueryClient(
            isp=self.isp if isp is None else isp,
            chains=self.chains,
            attestation_report=self.attestation_report,
            attestation_root=self.attestation.root_public_key,
            expected_measurement=self.ci.enclave.measurement,
            mode=mode,
            cache_bytes=cache_bytes,
            cost_model=self.config.network,
        )

    def plain_replica(self) -> Engine:
        """An unverified local replica of the database (Fig. 12 baseline).

        Copies every file byte-for-byte out of the certified storage
        into a plain local filesystem and returns an engine on top —
        the same data and engine with zero verification and zero
        network, i.e. "ordinary SQLite".
        """
        local = LocalFilesystem()
        writes, new_sizes, _ = self.certified_state()
        for path, pages in writes.items():
            content = b"".join(pages[pid] for pid in range(len(pages)))
            local.write_all(path, content[:new_sizes[path]])
        return Engine(local)
