"""The query client: end-to-end verifiable query execution.

One :class:`QueryClient` models the paper's lightweight client node: it
observes block headers from the source-chain networks, holds the
attestation root of trust, owns what it carries across queries
(:class:`~repro.client.state.CarriedState`), and runs an unmodified
database engine over the client V2FS.

``query(sql)`` performs the full Algorithm 4 cycle:

1. *initialize* — fetch and validate ``C_V2FS`` against the attested
   enclave key and the observed chain heads (in the cached modes, the
   certificate held from the last query is validated again instead,
   while no chain head has moved);
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

from repro.chain.block import BlockHeader
from repro.chain.chain import Blockchain
from repro.chain.consensus import SimulatedPoW, check_header
from repro.client.state import CarriedState, QueryMode
from repro.client.vfs import ClientSession, ClientVfs
from repro.core.certificate import V2fsCertificate
from repro.crypto.signature import PublicKey
from repro.db.engine import Engine, ResultSet
from repro.errors import CertificateError, NetworkError, ReproError, RpcError
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
        state = self.state
        session: Optional[ClientSession] = None
        try:
            session = self._open_session()
            # One filesystem serves both roles (Appendix A / Algorithm
            # 6): remote pages verifiably, locally created temp files
            # directly.
            vfs = ClientVfs(session)
            engine = Engine(vfs, temp_vfs=vfs, node_memo=state.nodes,
                            catalog_memo=state.catalog,
                            statements=state.statements)
            try:
                result: ResultSet = engine.execute(sql)
                return result, session.finalize()
            finally:
                vfs.drop_temp_files()
        except Exception as error:
            # Whatever went wrong (a refused certificate, malformed data
            # from the ISP, proof failure, engine error), nothing this
            # query read is proven: the one rollback drops what it may
            # have left in the carried state.  Deliberately broad and
            # strictly re-raising: the rollback is cleanup, never
            # recovery.
            logger.debug(
                "query failed before verification completed (%s); "
                "rolling back the carried state",
                type(error).__name__,
            )
            state.rollback(session.inserted if session is not None else [])
            if session is not None:
                try:
                    # Close the ISP session as well: an open one pins
                    # its snapshot root against pruning.  Best effort —
                    # it is already closed when finalize() itself
                    # failed.
                    self.isp.finalize_session(session.session_id)
                except ReproError:
                    pass
            raise
        finally:
            if state.pages is not None:
                state.pages.end_query()

    # ------------------------------------------------------------------

    def _open_session(self) -> ClientSession:
        """Algorithm 4, initialize phase (lines 2-8), and the session.

        Every chain head is read once.  While each equals its chain
        state in the held certificate, that certificate is validated
        again instead of fetched: under those heads a fetch could
        return nothing fresher.  A new version under unmoved heads (a
        maintenance run) is the one exception, and the ISP reports it
        when it refuses the session: the held certificate is then given
        up for a fetched one, once.
        """
        heads = {chain_id: chain.latest_header()  # observed from the network
                 for chain_id, chain in self.chains.items()}
        held = self.state.held
        if held is not None and any(
            held.chain_state(chain_id) != (header.digest(), header.height)
            for chain_id, header in heads.items()
        ):
            held = None
        if held is not None:
            self._validate_certificate(held, heads)
            try:
                return ClientSession(self.isp, self.transport, held,
                                     self.state)
            except RpcError:
                raise  # the link failed: a fetch would fail the same way
            except NetworkError:  # the ISP refused the session
                logger.debug("session refused for the held certificate; "
                             "fetching one")
        certificate = self.isp.get_certificate()
        self.transport.account(CATEGORY_CERT, 8, certificate.byte_size())
        self._validate_certificate(certificate, heads)
        return ClientSession(self.isp, self.transport, certificate,
                             self.state)

    def _validate_certificate(self, certificate: V2fsCertificate,
                              heads: Dict[str, BlockHeader]) -> None:
        """The same checks for a fetched and a held certificate: the
        signature under ``pk_sgx``, then each observed head against the
        chain state it certifies."""
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
        for chain_id, header in heads.items():
            digest, height = certificate.chain_state(chain_id)
            if digest != header.digest() or height != header.height:
                raise CertificateError(
                    f"certificate is stale for chain {chain_id!r}"
                )
            pow_params = self.pow_params.get(chain_id, SimulatedPoW())
            check_header(header, pow_params, chain_id)
