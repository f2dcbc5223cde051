"""The query client: end-to-end verifiable query execution.

One :class:`QueryClient` models the paper's lightweight client node: it
observes block headers from the source-chain networks, holds the
attestation root of trust, owns what it carries across queries
(:class:`~repro.client.state.CarriedState`), and runs an unmodified
database engine over the client V2FS.

``query(sql)`` performs the full Algorithm 4 cycle:

1. *initialize* — fetch and validate ``C_V2FS`` against the attested
   enclave key and the observed chain heads;
2. *compute* — run the SQL engine; every page it touches flows through
   :class:`~repro.client.vfs.ClientSession` with the configured cache
   mode; external-sort temp files stay local (Appendix A);
3. *finalize* — fetch the consolidated VO and verify every recorded
   digest against the certificate's ADS root.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.chain import Blockchain
from repro.chain.consensus import SimulatedPoW, check_header
from repro.client.state import CarriedState, QueryMode
from repro.client.vfs import ClientSession, ClientVfs
from repro.core.certificate import V2fsCertificate
from repro.crypto.signature import PublicKey
from repro.db.engine import Engine, ResultSet
from repro.errors import CertificateError, ReproError
from repro.isp.server import IspServer
from repro.network.transport import (
    CATEGORY_CERT,
    CATEGORY_CHECK,
    CATEGORY_META,
    CATEGORY_PAGE,
    CATEGORY_VO,
    NetworkCostModel,
    NetworkStats,
    Transport,
)
from repro.obs import metrics as obs
from repro.sgx.attestation import AttestationReport, AttestationService

logger = logging.getLogger("repro.client")


@dataclass
class QueryStats:
    """Per-query metrics matching the paper's evaluation breakdown."""

    exec_s: float = 0.0
    net_s: float = 0.0
    page_requests: int = 0
    check_requests: int = 0
    meta_requests: int = 0
    vo_bytes: int = 0
    bytes_transferred: int = 0
    network: NetworkStats = field(default_factory=NetworkStats)

    @property
    def latency_s(self) -> float:
        return self.exec_s + self.net_s


@dataclass
class VerifiedResult:
    """A verified query answer plus its cost profile."""

    columns: List[str]
    rows: List[tuple]
    stats: QueryStats

    def __len__(self) -> int:
        return len(self.rows)


def _record_traffic(net: NetworkStats) -> None:
    """Feed one query's round trips to the metrics registry, once.

    The transport already counted each of them; repeating that per
    request cost two locked registry calls per page.
    """
    requests = net.requests
    obs.add("client.cert.requests", requests.get(CATEGORY_CERT, 0))
    obs.add("client.meta.requests", requests.get(CATEGORY_META, 0))
    obs.add("client.page.requests", requests.get(CATEGORY_PAGE, 0))
    obs.add("client.check.requests", requests.get(CATEGORY_CHECK, 0))
    obs.add("client.vo.requests", requests.get(CATEGORY_VO, 0))
    obs.add("client.vo.bytes", net.bytes_received.get(CATEGORY_VO, 0))
    obs.add("client.net.bytes", net.total_bytes())


class QueryClient:
    """A lightweight verifying client bound to one ISP."""

    def __init__(
        self,
        isp: IspServer,
        chains: Dict[str, Blockchain],
        attestation_report: AttestationReport,
        attestation_root: PublicKey,
        expected_measurement: bytes,
        mode: QueryMode = QueryMode.INTER_VBF,
        cache_bytes: int = 1 << 30,
        pow_params: Optional[Dict[str, SimulatedPoW]] = None,
        cost_model: Optional[NetworkCostModel] = None,
    ) -> None:
        self.isp = isp
        self.chains = dict(chains)
        self.mode = mode
        self.pow_params = dict(pow_params or {})
        self.transport = Transport(cost_model)
        #: Everything this client carries from one query to the next.
        self.state = CarriedState(mode, cache_bytes)
        # Establish pk_sgx once, through attestation (not by trusting
        # the ISP): the quote binds the measurement to the enclave key.
        self.pk_sgx = AttestationService.verify_report(
            attestation_report, attestation_root, expected_measurement
        )

    # ------------------------------------------------------------------

    def query(self, sql: str) -> VerifiedResult:
        """Run one verifiable query (Algorithm 4)."""
        before_net = self.transport.stats.snapshot()
        started = time.perf_counter()
        try:
            result, vo_bytes = self._execute_verified(sql)
            exec_s = time.perf_counter() - started
        finally:
            # A failed query's traffic happened too: count it.
            net = self.transport.stats.delta_since(before_net)
            if obs.ACTIVE:
                _record_traffic(net)
        if obs.ACTIVE:
            obs.inc("client.query.count")
            obs.observe("client.query.latency_s", exec_s)
        stats = QueryStats(
            exec_s=exec_s,
            net_s=net.simulated_time_s,
            page_requests=net.requests.get("page", 0),
            check_requests=net.requests.get("check", 0),
            meta_requests=net.requests.get("meta", 0),
            vo_bytes=vo_bytes,
            bytes_transferred=net.total_bytes(),
            network=net,
        )
        return VerifiedResult(
            columns=result.columns, rows=result.rows, stats=stats
        )

    def _execute_verified(self, sql: str) -> Tuple[ResultSet, int]:
        """The three phases; returns the verified rows and the VO size."""
        certificate = self._fetch_and_validate_certificate()
        state = self.state
        session = ClientSession(self.isp, self.transport, certificate, state)
        # One filesystem serves both roles (Appendix A / Algorithm 6):
        # remote pages verifiably, locally created temp files directly.
        vfs = ClientVfs(session)
        engine = Engine(vfs, temp_vfs=vfs, node_memo=state.nodes,
                        catalog_memo=state.catalog)
        try:
            result: ResultSet = engine.execute(sql)
            return result, session.finalize()
        except Exception as error:
            # Whatever went wrong (malformed data from the ISP, proof
            # failure, engine error), nothing this query read is proven:
            # the one rollback drops what it may have left in the
            # carried state.  Deliberately broad and strictly
            # re-raising: the rollback is cleanup, never recovery
            # (crash-hygiene verifies the re-raise statically).
            logger.debug(
                "query failed before verification completed (%s); "
                "rolling back the carried state",
                type(error).__name__,
            )
            state.rollback(session.inserted)
            try:
                # Close the ISP session as well: an open one pins its
                # snapshot root against pruning.  Best effort — it is
                # already closed when finalize() itself failed.
                self.isp.finalize_session(session.session_id)
            except ReproError:
                pass
            raise
        finally:
            vfs.drop_temp_files()
            if state.pages is not None:
                state.pages.end_query()

    # ------------------------------------------------------------------

    def _fetch_and_validate_certificate(self) -> V2fsCertificate:
        """Algorithm 4, initialize phase (lines 2-8)."""
        certificate = self.isp.get_certificate()
        self.transport.account(
            CATEGORY_CERT, 8, certificate.byte_size()
        )
        hit = False
        try:
            hit = certificate.verify_signature(self.pk_sgx,
                                               self.state.signature)
        finally:  # a rejected certificate is a miss too
            if obs.ACTIVE:
                if hit:
                    obs.inc("client.cert.memo.hit")
                else:
                    obs.inc("client.cert.memo.miss")
        for chain_id, chain in self.chains.items():
            header = chain.latest_header()  # observed from the network
            digest, height = certificate.chain_state(chain_id)
            if digest != header.digest() or height != header.height:
                raise CertificateError(
                    f"certificate is stale for chain {chain_id!r}"
                )
            pow_params = self.pow_params.get(chain_id, SimulatedPoW())
            check_header(header, pow_params, chain_id)
        return certificate
