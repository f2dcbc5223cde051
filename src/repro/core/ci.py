"""The V2FS certificate issuer (CI).

Runs the paper's Algorithms 1-3.  The CI hosts a simulated SGX enclave
containing the database engine and the ADS verification logic; its
outside-enclave storage layer is a content-addressed
:class:`~repro.merkle.ads.V2fsAds` reached only through metered OCalls.

For each new source-chain block the CI:

1. **initialize** — validates the block's DCert certificate and the
   chain condition against the chain states of the previous V2FS
   certificate (Algorithm 1; that certificate never left the enclave,
   so its signature is not proven again);
2. **compute** — runs the database update (Blockchain-ETL ingestion)
   through a :class:`~repro.vfs.maintenance.MaintenanceSession`
   (Algorithm 2);
3. **finalize** — verifies ``pi_r``/``pi_w`` against the previous root,
   recomputes the new root from ``P_w``, advances the versioned bloom
   filter, signs the new certificate, and flushes ``P_w`` to storage
   (Algorithm 3).

The ``use_sgx=False`` variant runs the identical pipeline with a free
enclave boundary — the paper's "without SGX" configuration in Figure 8.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.chain.consensus import SimulatedPoW, check_header
from repro.core.certificate import ChainState, V2fsCertificate
from repro.crypto.signature import PublicKey
from repro.db.btree import KeptNodes
from repro.db.engine import Engine
from repro.dcert.certifier import DCertCertificate, dcert_valid
from repro.errors import CertificateError, ProofError, StorageError
from repro.merkle.ads import V2fsAds
from repro.merkle.proof import collect_proof_files
from repro.obs import metrics as obs
from repro.sgx.enclave import Enclave, OCallCostModel
from repro.vfs.maintenance import MaintenanceSession, register_storage_ocalls


#: ``(writes, new_sizes)``: page bytes by path and page id, and the
#: post-write byte size of every written file.
WriteBatch = Tuple[Dict[str, Dict[int, bytes]], Dict[str, int]]


@dataclass
class MaintenanceReport:
    """Metrics from one maintenance run (one block, or a batch)."""

    certificate: V2fsCertificate
    wall_time_s: float
    sgx_overhead_s: float
    ocalls: int
    proof_bytes: int
    pages_read: int
    pages_written: int
    #: Raw write batch ``(writes, new_sizes)``, so the ISP can
    #: synchronize its storage layer (footnote 1 of the paper:
    #: deterministic replication of updates); None once dropped.
    batch: Optional[WriteBatch] = None

    @property
    def total_time_s(self) -> float:
        return self.wall_time_s + self.sgx_overhead_s

    @property
    def writes(self) -> Dict[str, Dict[int, bytes]]:
        return self._retained_batch()[0]

    @property
    def new_sizes(self) -> Dict[str, int]:
        return self._retained_batch()[1]

    def _retained_batch(self) -> WriteBatch:
        if self.batch is None:
            raise StorageError(
                f"the write batch of certificate version "
                f"{self.certificate.version} was not retained; bring a "
                f"replica up to date from V2FSSystem.certified_state()"
            )
        return self.batch

    def without_batch(self) -> "MaintenanceReport":
        """The certificate and metrics alone (what a history keeps: the
        ADS is history-independent, so superseded pages need no pin)."""
        return replace(self, batch=None)


class V2fsCertificateIssuer:
    """The SGX-backed party that certifies the V2FS state."""

    def __init__(
        self,
        dcert_public_keys: Dict[str, PublicKey],
        pow_params: Optional[Dict[str, SimulatedPoW]] = None,
        use_sgx: bool = True,
        vbf_slots: int = 100_000,
        platform_seed: bytes = b"platform-0",
    ) -> None:
        from repro.vbf.versioned_bloom import VersionedBloomFilter

        cost_model = OCallCostModel() if use_sgx else OCallCostModel(0.0, 0.0)
        self.use_sgx = use_sgx
        self.enclave = Enclave(
            b"v2fs-ci", platform_seed=platform_seed, cost_model=cost_model
        )
        self.dcert_public_keys = dict(dcert_public_keys)
        self.pow_params = dict(pow_params or {})
        # Outside-enclave (untrusted) storage layer.
        self.storage = V2fsAds()
        self.storage_root = self.storage.root
        register_storage_ocalls(
            self.enclave, self.storage, lambda: self.storage_root
        )
        # Enclave-resident state.
        self._vbf = VersionedBloomFilter(vbf_slots)
        self._certificate: Optional[V2fsCertificate] = None
        self._retain_roots: List = [self.storage_root]
        #: The write path's decoded nodes, keyed on their exact page
        #: bytes and held across runs; each file keeps the pages its
        #: last run read or wrote (DESIGN §4g).
        self._kept_nodes = KeptNodes()

    @property
    def public_key(self) -> PublicKey:
        """``pk_sgx``: verifies every certificate this CI signs."""
        return self.enclave.public_key

    @property
    def certificate(self) -> Optional[V2fsCertificate]:
        return self._certificate

    # ------------------------------------------------------------------
    # Maintenance runs
    # ------------------------------------------------------------------

    def bootstrap(
        self, setup: Callable[[Engine], None]
    ) -> MaintenanceReport:
        """Genesis maintenance run: create schema before any block."""
        return self._run(setup, chain_updates={})

    def process_block(
        self,
        block: Block,
        dcert_cert: DCertCertificate,
        work: Callable[[Engine], None],
    ) -> MaintenanceReport:
        """Ingest one certified block (Algorithms 1-3)."""
        return self.process_blocks(
            [(block, dcert_cert)], lambda engine, _: work(engine)
        )

    def process_blocks(
        self,
        blocks: List[Tuple[Block, DCertCertificate]],
        work: Callable[[Engine, Block], None],
    ) -> MaintenanceReport:
        """Ingest one or more certified blocks in a single run.

        Batching shares the P_r/P_w collections across blocks, which is
        the paper's mitigation for SGX overhead (Fig. 8: more input
        blocks, lower per-block cost).  Blocks of the same chain must be
        consecutive heights; the initialize phase validates the whole
        hand-off chain from the previous certificate.
        """
        expected = self._certified_states()
        for block, cert in blocks:
            self._initialize_checks(block, cert, expected)
            expected[block.header.chain_id] = (
                block.header.digest(), block.header.height
            )

        def batched(engine: Engine) -> None:
            for block, _ in blocks:
                work(engine, block)

        updates = {
            block.header.chain_id: (
                block.header.digest(), block.header.height
            )
            for block, _ in blocks
        }
        return self._run(batched, chain_updates=updates)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _certified_states(self) -> Dict[str, Tuple[bytes, int]]:
        """The chain states of the CI's own certificate, unverified:
        ``_certificate`` is enclave-resident and only ever assigned at
        the end of :meth:`_run`, from the ``sign_inside`` over these very
        fields.  A path that restores it from outside the enclave must
        verify it there."""
        if self._certificate is None:
            return {}
        return {
            chain_id: (digest, height)
            for chain_id, digest, height in self._certificate.chain_states
        }

    def _initialize_checks(
        self,
        block: Block,
        dcert_cert: DCertCertificate,
        expected: Dict[str, Tuple[bytes, int]],
    ) -> None:
        """Algorithm 1 (minus the P_r/P_w setup)."""
        chain_id = block.header.chain_id
        pk = self.dcert_public_keys.get(chain_id)
        if pk is None:
            raise CertificateError(f"unknown source chain {chain_id!r}")
        dcert_valid(dcert_cert, block.header, pk)
        pow_params = self.pow_params.get(chain_id, SimulatedPoW())
        check_header(block.header, pow_params, chain_id)
        if chain_id in expected:
            digest, height = expected[chain_id]
            if block.header.height != height + 1:
                raise CertificateError(
                    f"block height {block.header.height} does not "
                    f"extend certified height {height}"
                )
            if block.header.prev_digest != digest:
                raise CertificateError(
                    "block does not link to the certified chain state"
                )
        elif block.header.height != 0:
            raise CertificateError(
                "first certified block of a chain must be genesis"
            )

    def _run(
        self,
        work: Callable[[Engine], None],
        chain_updates: Dict[str, Tuple[bytes, int]],
    ) -> MaintenanceReport:
        started = time.perf_counter()
        self.enclave.stats.reset()

        # -- compute phase (enclave) ------------------------------------
        session = MaintenanceSession(self.enclave, self.storage_root)
        engine = Engine(session, kept_nodes=self._kept_nodes)
        try:
            work(engine)
        finally:
            self._kept_nodes.keep_only(
                [*session.pages_read, *session.pages_written])

        # -- finalize phase ----------------------------------------------
        writes = session.written_by_file()
        new_meta = session.new_meta()
        read_keys = session.read_page_keys()
        # OCalls: proofs are produced by the untrusted storage layer.
        pi_r = self.storage.gen_read_proof(self.storage_root, read_keys)
        pi_w = self.storage.gen_write_proof(
            self.storage_root, {p: set(w) for p, w in writes.items()}
        )
        proof_bytes = pi_r.byte_size() + pi_w.byte_size()
        # Inside the enclave: authenticate the read set.
        if read_keys:
            claims = {
                key: V2fsAds.page_digest(session.pages_read[key])
                for key in read_keys
            }
            V2fsAds.verify_read_proof(pi_r, self.storage_root, claims)
            self._check_claimed_metas(pi_r, session)
        self._check_claimed_metas(pi_w.ads, session)
        # Inside the enclave: recompute the new root from P_w + pi_w.
        new_leaves = {
            path: {
                pid: V2fsAds.page_digest(page)
                for pid, page in pages.items()
            }
            for path, pages in writes.items()
        }
        if new_leaves:
            new_root = V2fsAds.compute_updated_root(
                pi_w, self.storage_root, new_leaves, new_meta
            )
        else:
            new_root = self.storage_root

        # Advance the VBF and sign the new certificate inside the enclave.
        version = (
            self._certificate.version + 1
            if self._certificate is not None
            else 1
        )
        for path, pages in writes.items():
            for pid in pages:
                self._vbf.mark_written(path, pid, version)
        chain_states = self._next_chain_states(chain_updates)
        vbf_encoded = self._vbf.encode()
        signature = self.enclave.sign_inside(
            V2fsCertificate.message_bytes(
                new_root, chain_states, version, vbf_encoded
            )
        )
        certificate = V2fsCertificate(
            ads_root=new_root,
            chain_states=chain_states,
            version=version,
            signature=signature,
            vbf_encoded=vbf_encoded,
        )

        # Flush P_w to the outside-enclave storage and update its ADS.
        if writes:
            flushed_root = self.storage.apply_writes(
                self.storage_root,
                writes,
                {p: new_meta[p][0] for p in new_meta},
            )
            if flushed_root != new_root:
                raise ProofError(
                    "storage flush diverged from the enclave-computed root"
                )
            self.storage_root = flushed_root
            # Snapshot isolation: keep only the two latest roots alive.
            self._retain_roots.append(flushed_root)
            if len(self._retain_roots) > 2:
                self._retain_roots = self._retain_roots[-2:]
            self.storage.prune(self._retain_roots)
        self._certificate = certificate

        wall = time.perf_counter() - started
        overhead = self.enclave.stats.simulated_overhead_s
        if obs.ACTIVE:
            obs.inc("ci.maintenance.runs")
            obs.add("ci.proof.bytes", proof_bytes)
            obs.add("ci.pages.read", len(read_keys))
            obs.add("ci.pages.written",
                    sum(len(p) for p in writes.values()))
        return MaintenanceReport(
            certificate=certificate,
            wall_time_s=wall,
            sgx_overhead_s=overhead if self.use_sgx else 0.0,
            ocalls=self.enclave.stats.calls,
            proof_bytes=proof_bytes,
            pages_read=len(read_keys),
            pages_written=sum(len(p) for p in writes.values()),
            batch=(writes, {p: new_meta[p][0] for p in new_meta}),
        )

    def _check_claimed_metas(self, proof, session: MaintenanceSession) -> None:
        """Cross-check OCall-claimed file metadata against proof skeletons.

        A lying storage layer could report wrong sizes at ``open``; the
        trie skeleton is authenticated against the previous root, so any
        divergence is detected here (before the new root is signed).
        """
        trie = proof.trie if hasattr(proof, "trie") else proof
        for path, meta in collect_proof_files(trie).items():
            claimed = session.metas.get(path)
            if claimed is None or not claimed.existed:
                continue
            if (claimed.old_size != meta.size
                    or claimed.old_page_count != meta.page_count):
                raise ProofError(
                    f"storage lied about metadata of {path}"
                )

    def _next_chain_states(
        self, chain_updates: Dict[str, Tuple[bytes, int]]
    ) -> Tuple[ChainState, ...]:
        states: Dict[str, Tuple[bytes, int]] = {}
        if self._certificate is not None:
            for chain_id, digest, height in self._certificate.chain_states:
                states[chain_id] = (digest, height)
        states.update(chain_updates)
        return tuple(
            (chain_id, digest, height)
            for chain_id, (digest, height) in sorted(states.items())
        )
