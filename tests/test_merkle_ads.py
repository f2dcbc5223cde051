"""Tests for the ADS facade: read/write proofs, MVCC, tampering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProofError, StorageError
from repro.merkle import page_tree
from repro.merkle.ads import AdsError, V2fsAds
from repro.merkle.proof import AdsProof, collect_proof_files


def build_ads():
    ads = V2fsAds()
    root = ads.apply_writes(
        ads.root,
        {
            "/db/main.tbl": {i: b"page-%d" % i for i in range(6)},
            "/db/aux.idx": {0: b"idx-0", 1: b"idx-1"},
            "/etc/catalog": {0: b"schema"},
        },
        {"/db/main.tbl": 6 * 4096, "/db/aux.idx": 2 * 4096,
         "/etc/catalog": 64},
    )
    return ads, root


class TestSnapshotReads:
    def test_get_page(self):
        ads, root = build_ads()
        assert ads.get_page(root, "/db/main.tbl", 3) == b"page-3"

    def test_page_beyond_eof(self):
        ads, root = build_ads()
        with pytest.raises(StorageError):
            ads.get_page(root, "/db/aux.idx", 2)

    def test_file_node_metadata(self):
        ads, root = build_ads()
        node = ads.file_node(root, "/etc/catalog")
        assert node.size == 64
        assert node.page_count == 1

    def test_list_files(self):
        ads, root = build_ads()
        assert ads.list_files(root) == [
            "/db/aux.idx", "/db/main.tbl", "/etc/catalog",
        ]

    def test_mvcc_snapshots(self):
        ads, root = build_ads()
        root2 = ads.apply_writes(
            root, {"/db/main.tbl": {3: b"CHANGED"}},
            {"/db/main.tbl": 6 * 4096},
        )
        assert ads.get_page(root, "/db/main.tbl", 3) == b"page-3"
        assert ads.get_page(root2, "/db/main.tbl", 3) == b"CHANGED"

    def test_prune_keeps_live_root(self):
        ads, root = build_ads()
        root2 = ads.apply_writes(
            root, {"/db/main.tbl": {0: b"NEW"}},
            {"/db/main.tbl": 6 * 4096},
        )
        ads.prune([root2])
        assert ads.get_page(root2, "/db/main.tbl", 0) == b"NEW"
        with pytest.raises(StorageError):
            ads.get_page(root, "/db/main.tbl", 3)


class TestReadProofs:
    def test_roundtrip(self):
        ads, root = build_ads()
        claims = {
            ("/db/main.tbl", 1): V2fsAds.page_digest(b"page-1"),
            ("/db/aux.idx", 0): V2fsAds.page_digest(b"idx-0"),
        }
        proof = ads.gen_read_proof(root, list(claims))
        V2fsAds.verify_read_proof(proof, root, claims)

    def test_tampered_page_rejected(self):
        ads, root = build_ads()
        claims = {("/db/main.tbl", 1): V2fsAds.page_digest(b"EVIL")}
        proof = ads.gen_read_proof(
            root, [("/db/main.tbl", 1)]
        )
        with pytest.raises(AdsError):
            V2fsAds.verify_read_proof(proof, root, claims)

    def test_wrong_root_rejected(self):
        ads, root = build_ads()
        claims = {("/db/main.tbl", 1): V2fsAds.page_digest(b"page-1")}
        proof = ads.gen_read_proof(root, list(claims))
        other = ads.apply_writes(
            root, {"/db/main.tbl": {1: b"x"}}, {"/db/main.tbl": 6 * 4096}
        )
        with pytest.raises(AdsError):
            V2fsAds.verify_read_proof(proof, other, claims)

    def test_uncovered_path_rejected(self):
        ads, root = build_ads()
        proof = ads.gen_read_proof(root, [("/db/main.tbl", 0)])
        claims = {("/db/aux.idx", 0): V2fsAds.page_digest(b"idx-0")}
        with pytest.raises(AdsError):
            V2fsAds.verify_read_proof(proof, root, claims)

    def test_node_claims(self):
        ads, root = build_ads()
        height = page_tree.height_for(6)
        tree_root = ads.file_node(root, "/db/main.tbl").tree_root
        claims = {("/db/main.tbl", height, 0): tree_root}
        proof = ads.gen_read_proof(root, [], list(claims))
        V2fsAds.verify_read_proof(proof, root, {}, claims)

    def test_established_values_returned(self):
        ads, root = build_ads()
        claims = {("/db/main.tbl", 0): V2fsAds.page_digest(b"page-0")}
        proof = ads.gen_read_proof(root, list(claims))
        values = V2fsAds.verify_read_proof(proof, root, claims)
        height = page_tree.height_for(6)
        assert (height, 0) in values["/db/main.tbl"]

    def test_proof_encoding_roundtrip(self):
        ads, root = build_ads()
        claims = {
            ("/db/main.tbl", i): V2fsAds.page_digest(b"page-%d" % i)
            for i in range(3)
        }
        proof = ads.gen_read_proof(root, list(claims))
        decoded = AdsProof.decode(proof.encode())
        V2fsAds.verify_read_proof(decoded, root, claims)
        assert decoded.byte_size() == proof.byte_size()

    def test_skeleton_carries_metadata(self):
        ads, root = build_ads()
        proof = ads.gen_read_proof(root, [("/etc/catalog", 0)])
        files = collect_proof_files(proof.trie)
        assert files["/etc/catalog"].size == 64


class TestWriteProofs:
    def test_enclave_matches_storage(self):
        ads, root = build_ads()
        writes = {"/db/main.tbl": {2: b"NEW2", 7: b"NEW7"},
                  "/fresh/file": {0: b"hello"}}
        sizes = {"/db/main.tbl": 8 * 4096, "/fresh/file": 4096}
        proof = ads.gen_write_proof(
            root, {p: set(w) for p, w in writes.items()}
        )
        new_leaves = {
            p: {pid: V2fsAds.page_digest(data)
                for pid, data in pages.items()}
            for p, pages in writes.items()
        }
        meta = {"/db/main.tbl": (8 * 4096, 8), "/fresh/file": (4096, 1)}
        derived = V2fsAds.compute_updated_root(proof, root, new_leaves,
                                               meta)
        stored = ads.apply_writes(root, writes, sizes)
        assert derived == stored

    def test_stale_proof_rejected(self):
        ads, root = build_ads()
        proof = ads.gen_write_proof(root, {"/db/main.tbl": {0}})
        root2 = ads.apply_writes(
            root, {"/db/main.tbl": {0: b"x"}}, {"/db/main.tbl": 6 * 4096}
        )
        with pytest.raises(ProofError):
            V2fsAds.compute_updated_root(
                proof, root2,
                {"/db/main.tbl": {0: V2fsAds.page_digest(b"y")}},
                {"/db/main.tbl": (6 * 4096, 6)},
            )

    def test_a_missing_file_node_is_no_new_file(self):
        # PR 3's defect: a trie node missing from the store read as "no
        # such file", so the write started the file from an empty page
        # tree and certified a root without its other pages.
        ads, root = build_ads()
        db = ads.store.get_dir(ads.store.get_dir(root).child_digest("db"))
        del ads.store._nodes[db.child_digest("main.tbl")]
        with pytest.raises(StorageError, match="unknown node digest"):
            ads.apply_writes(
                root, {"/db/main.tbl": {0: b"x"}},
                {"/db/main.tbl": 6 * 4096},
            )

    def test_missing_metadata_rejected(self):
        ads, root = build_ads()
        proof = ads.gen_write_proof(root, {"/db/main.tbl": {0}})
        with pytest.raises(ProofError):
            V2fsAds.compute_updated_root(
                proof, root,
                {"/db/main.tbl": {0: V2fsAds.page_digest(b"y")}},
                {},
            )

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_write_batches(self, data):
        ads, root = build_ads()
        paths = data.draw(st.sets(
            st.sampled_from(
                ["/db/main.tbl", "/db/aux.idx", "/new/a", "/new/b"]
            ),
            min_size=1, max_size=3,
        ))
        writes = {}
        sizes = {}
        for path in paths:
            old_count = (
                ads.file_node(root, path).page_count
                if ads.file_exists(root, path) else 0
            )
            pids = data.draw(st.sets(
                st.integers(0, old_count + 4), min_size=1, max_size=5
            ))
            writes[path] = {pid: b"w|%s|%d" % (path.encode(), pid)
                            for pid in pids}
            new_count = max(old_count, max(pids) + 1)
            sizes[path] = new_count * 4096
        proof = ads.gen_write_proof(
            root, {p: set(w) for p, w in writes.items()}
        )
        new_leaves = {
            p: {pid: V2fsAds.page_digest(d) for pid, d in pages.items()}
            for p, pages in writes.items()
        }
        meta = {p: (sizes[p], sizes[p] // 4096) for p in writes}
        derived = V2fsAds.compute_updated_root(
            proof, root, new_leaves, meta
        )
        stored = ads.apply_writes(root, writes, sizes)
        assert derived == stored
