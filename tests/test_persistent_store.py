"""Tests for the disk-backed node store (the RocksDB analog)."""

import os
import random

import pytest

from repro.crypto.hashing import hash_bytes
from repro.errors import StorageError
from repro.faults import registry
from repro.faults.chaos import _build_durable_system
from repro.faults.registry import InjectedFault, SimulatedCrash
from repro.isp.server import IspServer
from repro.merkle.ads import V2fsAds
from repro.merkle.node_store import DirNode, FileNode, PageData, PairNode
from repro.merkle.persistent_store import PersistentNodeStore


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "nodes.log")


class TestRoundtrips:
    @pytest.mark.parametrize("node", [
        PairNode(hash_bytes(b"l"), hash_bytes(b"r")),
        PageData(b"some page bytes" * 10),
        DirNode("var", (("a", hash_bytes(b"a")), ("b", hash_bytes(b"b")))),
        DirNode("/", ()),
        FileNode("main.db", hash_bytes(b"t"), 12345, 4),
    ])
    def test_node_roundtrip(self, store_path, node):
        with PersistentNodeStore(store_path) as store:
            digest = store.put(node)
            assert store.get(digest) == node
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(digest) == node

    def test_unknown_digest(self, store_path):
        with PersistentNodeStore(store_path) as store:
            with pytest.raises(StorageError):
                store.get(hash_bytes(b"nothing"))

    def test_idempotent_put(self, store_path):
        with PersistentNodeStore(store_path) as store:
            node = PageData(b"x")
            store.put(node)
            size_before = os.path.getsize(store_path)
            store.put(node)
            assert os.path.getsize(store_path) == size_before


class TestDurability:
    def test_ads_survives_reopen(self, store_path):
        with PersistentNodeStore(store_path) as store:
            ads = V2fsAds(store)
            root = ads.apply_writes(
                ads.root,
                {"/db/t": {i: b"page-%d" % i for i in range(5)}},
                {"/db/t": 5 * 4096},
            )
        with PersistentNodeStore(store_path) as reopened:
            ads2 = V2fsAds(reopened)
            assert ads2.get_page(root, "/db/t", 3) == b"page-3"
            claims = {("/db/t", 3): V2fsAds.page_digest(b"page-3")}
            proof = ads2.gen_read_proof(root, list(claims))
            V2fsAds.verify_read_proof(proof, root, claims)

    def test_torn_tail_truncated(self, store_path):
        with PersistentNodeStore(store_path) as store:
            digest = store.put(PageData(b"complete"))
        with open(store_path, "ab") as log:
            log.write(b"\x00" * 20)  # a half-written record
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(digest) == PageData(b"complete")
            # The torn bytes are gone; new appends work.
            other = reopened.put(PageData(b"after-crash"))
        with PersistentNodeStore(store_path) as again:
            assert again.get(other) == PageData(b"after-crash")


class TestIspReopen:
    """``IspServer.reopen``: one recovery path for a durable ISP."""

    def test_reopened_isp_serves_the_published_certificate(self, store_path):
        system = _build_durable_system(1, 2, store_path)
        certificate = system.isp.certificate
        system.isp.ads.store.close()
        system.isp = IspServer.reopen(store_path, certificate)
        assert system.isp.root == certificate.ads_root
        assert system.isp.ads.root == certificate.ads_root
        assert system.isp.certificate.version == certificate.version
        rows = system.make_client().query(
            "SELECT COUNT(*) FROM btc_transactions").rows
        assert rows == [(2,)]
        system.isp.ads.store.close()


class TestCompaction:
    def test_prune_compacts_log(self, store_path):
        with PersistentNodeStore(store_path) as store:
            ads = V2fsAds(store)
            root = ads.root
            for generation in range(5):
                root = ads.apply_writes(
                    root,
                    {"/f": {0: b"gen-%d" % generation}},
                    {"/f": 4096},
                )
            size_before = os.path.getsize(store_path)
            dropped = store.prune([root])
            assert dropped > 0
            assert os.path.getsize(store_path) < size_before
            assert ads.get_page(root, "/f", 0) == b"gen-4"
        with PersistentNodeStore(store_path) as reopened:
            assert V2fsAds(reopened).get_page(root, "/f", 0) == b"gen-4"

    def test_prune_noop_when_all_live(self, store_path):
        with PersistentNodeStore(store_path) as store:
            ads = V2fsAds(store)
            root = ads.apply_writes(
                ads.root, {"/f": {0: b"only"}}, {"/f": 4096}
            )
            ads.prune([root])  # drops just the empty-trie root
            size = os.path.getsize(store_path)
            assert store.prune([root]) == 0
            assert os.path.getsize(store_path) == size

    def test_stale_compact_temp_is_removed_on_open(self, store_path):
        with PersistentNodeStore(store_path) as store:
            digest = store.put(PageData(b"live"))
        temp = store_path + ".compact"
        with open(temp, "wb") as handle:
            handle.write(b"half-written compaction")
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(digest) == PageData(b"live")
        assert not os.path.exists(temp)

    def test_crash_before_replace_keeps_the_old_log(self, store_path):
        store = PersistentNodeStore(store_path)
        digests = [store.put(PageData(b"gen-%d" % i)) for i in range(4)]
        store.sync()
        registry.arm("store.compact.pre_replace", "crash", times=1)
        with pytest.raises(SimulatedCrash):
            store.prune([digests[-1]])
        registry.reset()
        store.simulate_crash()
        with PersistentNodeStore(store_path) as reopened:
            # Nothing was replaced: every record is still present.
            for i, digest in enumerate(digests):
                assert reopened.get(digest) == PageData(b"gen-%d" % i)

    def test_crash_after_replace_keeps_the_compacted_log(self, store_path):
        store = PersistentNodeStore(store_path)
        digests = [store.put(PageData(b"gen-%d" % i)) for i in range(4)]
        store.sync()
        registry.arm("store.compact.post_replace", "crash", times=1)
        with pytest.raises(SimulatedCrash):
            store.prune([digests[-1]])
        registry.reset()
        store.simulate_crash()  # log handle already swapped shut
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(digests[-1]) == PageData(b"gen-3")
            with pytest.raises(StorageError):
                reopened.get(digests[0])  # compacted away


class TestFaultedAppends:
    def test_sync_advances_the_durable_boundary(self, store_path):
        store = PersistentNodeStore(store_path)
        assert store.durable_size == 0
        store.put(PageData(b"buffered"))
        assert store.durable_size == 0  # put only buffers
        store.sync()
        assert store.durable_size == os.path.getsize(store_path) > 0
        store.close()

    def test_simulated_crash_abandons_unsynced_appends(self, store_path):
        store = PersistentNodeStore(store_path)
        durable = store.put(PageData(b"durable"))
        store.sync()
        lost = store.put(PageData(b"lost"))
        store.simulate_crash()  # no rng: drop the whole dirty tail
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(durable) == PageData(b"durable")
            with pytest.raises(StorageError):
                reopened.get(lost)

    def test_crash_mid_append_leaves_a_recoverable_torn_tail(
        self, store_path
    ):
        store = PersistentNodeStore(store_path)
        durable = store.put(PageData(b"durable"))
        store.sync()
        registry.arm("store.append.mid", "crash", times=1)
        with pytest.raises(SimulatedCrash):
            store.put(PageData(b"torn"))
        registry.reset()
        # Keep a random prefix of the dirty tail: a torn header record.
        store.simulate_crash(random.Random(2))
        with PersistentNodeStore(store_path) as reopened:
            assert reopened.get(durable) == PageData(b"durable")
            fresh = reopened.put(PageData(b"after-recovery"))
            reopened.sync()
            assert reopened.get(fresh) == PageData(b"after-recovery")

    def test_injected_fault_mid_append_truncates_the_partial_record(
        self, store_path
    ):
        store = PersistentNodeStore(store_path)
        registry.arm("store.append.mid", "raise", times=1)
        size_before = os.path.getsize(store_path)
        with pytest.raises(InjectedFault):
            store.put(PageData(b"interrupted"))
        registry.reset()
        store.sync()
        # The half-written header was rolled back in-process.
        assert os.path.getsize(store_path) == size_before
        digest = store.put(PageData(b"interrupted"))
        assert store.get(digest) == PageData(b"interrupted")
        store.close()

    def test_corrupted_payload_is_detected_on_reopen(self, store_path):
        store = PersistentNodeStore(store_path)
        registry.seed(4)
        registry.arm("store.append.payload", "corrupt", times=1)
        digest = store.put(PageData(b"to-be-corrupted" * 4))
        registry.reset()
        store.close()
        with PersistentNodeStore(store_path) as reopened:
            with pytest.raises(StorageError, match="corrupt node record"):
                reopened.get(digest)


#: One record of every kind whose payload has structure to misparse.
STRUCTURED_NODES = [
    PairNode(hash_bytes(b"l"), hash_bytes(b"r")),
    DirNode("vär", (("a", hash_bytes(b"a")), ("bé", hash_bytes(b"b")))),
    FileNode("main.db", hash_bytes(b"t"), 12345, 4),
]


def assert_corrupt_or_intact(path, digest):
    """Reading ``digest`` back either fails typed or returns content
    that hashes to its key — never an untyped error, never a wrong node."""
    with PersistentNodeStore(path) as reopened:
        try:
            node = reopened.get(digest)
        except StorageError:
            return False
        assert node.digest() == digest
        return True


@pytest.mark.parametrize(
    "node", STRUCTURED_NODES, ids=lambda node: type(node).__name__
)
class TestHostileRecords:
    """The log is untrusted after a crash: a structured record that no
    longer parses must be a :class:`StorageError` like one that no
    longer hashes, because the decoder runs before the digest check."""

    def test_corrupted_append_of_every_kind_is_typed(self, tmp_path, node):
        for seed in range(16):
            path = str(tmp_path / f"seed-{seed}.log")
            store = PersistentNodeStore(path)
            registry.seed(seed)
            registry.arm("store.append.payload", "corrupt", times=1)
            digest = store.put(node)
            registry.reset()
            store.close()
            assert not assert_corrupt_or_intact(path, digest)

    def test_every_flip_and_truncation_of_the_payload_is_typed(
        self, tmp_path, node
    ):
        path = str(tmp_path / "nodes.log")
        with PersistentNodeStore(path) as store:
            digest = store.put(node)
        with open(path, "rb") as handle:
            log = handle.read()
        header, payload = log[:37], log[37:]
        assert len(payload) == int.from_bytes(header[33:37], "big")
        mutants = [
            header + payload[:i] + bytes([payload[i] ^ flip])
            + payload[i + 1:]
            for i in range(len(payload)) for flip in (0x01, 0x80, 0xFF)
        ] + [  # a shorter record whose header agrees with its length
            header[:33] + cut.to_bytes(4, "big") + payload[:cut]
            for cut in range(len(payload))
        ]
        for mutant in mutants:
            with open(path, "wb") as handle:
                handle.write(mutant)
            assert not assert_corrupt_or_intact(path, digest)

    def test_log_truncated_under_an_open_store_is_typed(
        self, tmp_path, node
    ):
        path = str(tmp_path / "nodes.log")
        with PersistentNodeStore(path, cache_nodes=0) as store:
            digest = store.put(node)
            store.put(PageData(b"evicts the cached node"))
            for size in range(37 + 8):  # inside the header, then payload
                os.truncate(path, size)
                with pytest.raises(StorageError):
                    store.get(digest)
