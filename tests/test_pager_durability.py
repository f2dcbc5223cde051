"""Pager durability: checksum epilogues, torn writes, and the shadow FS."""

import random

import pytest

from repro.db.btree import BTree
from repro.db.pager import (
    PAGE_CONTENT_SIZE,
    Pager,
    check_page,
    seal_page,
)
from repro.errors import StorageError, TornPageError
from repro.faults import registry
from repro.faults.registry import SimulatedCrash
from repro.faults.shadowfs import ShadowFilesystem
from repro.vfs.interface import PAGE_SIZE
from repro.vfs.local import LocalFilesystem


# ---------------------------------------------------------------------------
# seal/check primitives
# ---------------------------------------------------------------------------


def test_sealed_page_roundtrips_and_verifies():
    sealed = seal_page(b"hello world")
    assert len(sealed) == PAGE_SIZE
    check_page(sealed, "test")  # must not raise
    assert sealed[:11] == b"hello world"


def test_seal_rejects_oversized_content():
    with pytest.raises(StorageError):
        seal_page(b"x" * (PAGE_CONTENT_SIZE + 1))


def test_all_zero_page_is_a_hole_and_passes():
    check_page(b"\x00" * PAGE_SIZE, "test")


def test_torn_prefix_with_zero_trailer_is_detected():
    # The classic torn 4 KiB write: a prefix of the new page landed, the
    # trailer region is still zero.
    torn = b"\x07" * 100 + b"\x00" * (PAGE_SIZE - 100)
    with pytest.raises(TornPageError):
        check_page(torn, "test")


def test_single_bit_flip_is_detected():
    sealed = bytearray(seal_page(b"payload"))
    sealed[3] ^= 0x01
    with pytest.raises(TornPageError):
        check_page(bytes(sealed), "test")


def test_bad_trailer_magic_is_detected():
    sealed = bytearray(seal_page(b"payload"))
    sealed[PAGE_CONTENT_SIZE] ^= 0xFF
    with pytest.raises(TornPageError):
        check_page(bytes(sealed), "test")


# ---------------------------------------------------------------------------
# Torn-write regression through the full pager
# ---------------------------------------------------------------------------


def _force_torn_crash(fs: ShadowFilesystem) -> None:
    """Crash the shadow FS with every un-synced page forced to tear."""
    fs._rng = random.Random(0)
    original = fs._rng.choice
    fs._rng.choice = lambda options: "torn"
    try:
        fs.crash()
    finally:
        fs._rng.choice = original


def test_torn_page_write_is_detected_on_reopen():
    fs = ShadowFilesystem()
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([1], b"committed")
    pager.flush()  # header + page durable

    # New un-synced write to the same leaf, then power loss that tears it.
    tree.insert([2], b"doomed" * 30)
    _force_torn_crash(fs)

    reopened = Pager(fs, "t.tbl")
    with pytest.raises(TornPageError):
        BTree(reopened).get([1])


def test_flush_makes_writes_crash_proof():
    fs = ShadowFilesystem(rng=random.Random(3))
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    for key in range(40):
        tree.insert([key], f"value-{key}".encode())
    pager.flush()
    fs.crash()  # nothing dirty: everything must survive verbatim

    reopened = BTree(Pager(fs, "t.tbl"))
    assert [k[0] for k, _ in reopened.items()] == list(range(40))
    assert reopened.get([17]) == b"value-17"


def test_unsynced_writes_may_be_lost_but_never_lie(tmp_path):
    rng = random.Random(11)
    fs = ShadowFilesystem(rng=rng)
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([1], b"durable")
    pager.flush()
    tree.insert([2], b"dirty")  # never synced
    fs.crash()
    try:
        reopened = BTree(Pager(fs, "t.tbl"))
        values = {k[0]: v for k, v in reopened.items()}
    except (TornPageError, StorageError):
        return  # detected corruption is a correct outcome
    assert values.get(1, b"durable") == b"durable"
    assert values.get(2, b"dirty") == b"dirty"


def test_local_filesystem_sync_is_wired_through():
    # The default VirtualFile.sync is a no-op: flush/close must work on
    # filesystems with no durability model of their own.
    fs = LocalFilesystem()
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([5], b"hello")
    pager.close()
    reopened = BTree(Pager(fs, "t.tbl"))
    assert reopened.get([5]) == b"hello"


def test_authenticating_filesystems_skip_the_read_checksum():
    # A VFS whose pages are verified end-to-end (ClientVfs) opts out of
    # the torn-write check: tampering must surface through *its* error
    # taxonomy (VerificationError), not as a local storage fault.
    fs = ShadowFilesystem()
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([5], b"hello")
    pager.close()

    # Shear the last 16 bytes off the data page, destroying its trailer
    # (the same shape as an ISP understating a file's size).
    with fs.open("t.tbl") as handle:
        raw = handle.read_page(1)
        handle.write_page(1, raw[:-16] + b"\x00" * 16)
    fs.sync_file("t.tbl")

    with pytest.raises(TornPageError):
        BTree(Pager(fs, "t.tbl")).get([5])

    fs.authenticates_pages = True
    # No local checksum error; the (garbage) page decodes or not, but
    # the pager itself stays out of the way.
    try:
        BTree(Pager(fs, "t.tbl")).get([5])
    except TornPageError:  # pragma: no cover - the regression
        pytest.fail("authenticating VFS must bypass the local checksum")
    except Exception:
        pass  # engine-level decode errors are fine


# ---------------------------------------------------------------------------
# Pager failpoints
# ---------------------------------------------------------------------------


def test_read_page_corruption_failpoint_is_caught_by_the_epilogue():
    fs = ShadowFilesystem()
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([1], b"data")
    registry.seed(5)
    registry.arm("pager.read_page", "corrupt", times=1)
    with pytest.raises(TornPageError):
        tree.get([1])
    registry.reset()
    assert tree.get([1]) == b"data"  # the file itself is intact


def test_write_page_corruption_failpoint_is_caught_on_read_back():
    fs = ShadowFilesystem()
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    registry.seed(6)
    registry.arm("pager.write_page.data", "corrupt", times=1)
    tree.insert([1], b"data")  # corrupted on its way to the file
    registry.reset()
    with pytest.raises(TornPageError):
        tree.get([1])


def test_crash_before_flush_sync_loses_only_unsynced_state():
    fs = ShadowFilesystem(rng=random.Random(9))
    pager = Pager(fs, "t.tbl", create=True)
    tree = BTree(pager)
    tree.insert([1], b"one")
    pager.flush()

    tree.insert([2], b"two")
    registry.arm("pager.flush.pre_sync", "crash", times=1)
    with pytest.raises(SimulatedCrash):
        pager.flush()  # dies between the header write and the sync
    registry.reset()
    fs.crash()
    try:
        reopened = BTree(Pager(fs, "t.tbl"))
        assert reopened.get([1]) == b"one"
    except (TornPageError, StorageError):
        pass  # torn un-synced pages detected on reopen: also correct


# ---------------------------------------------------------------------------
# Crash sweep: random inserts, commits and crashes over shadow files
# ---------------------------------------------------------------------------


def crash_sweep(seed, steps=300):
    """Random inserts, commits (``flush`` → ``sync``) and crashes with
    per-page persisted/lost/torn outcomes.  A reopen fails loudly (the
    file is then rebuilt from what was committed: restore-from-backup)
    or every recovered entry is a value that was written — exactly the
    committed contents when the crash hit a clean file.  Returns
    ``(crashes, torn pages detected)``."""
    rng, fs = random.Random(seed), ShadowFilesystem(rng=random.Random(seed + 1))
    committed, pending, crashes, torn = {}, {}, 0, 0
    path, tree = None, None
    for step in range(steps):
        if tree is None:  # (re)build the file from what survived
            path = f"sweep-{step}.tbl"
            tree = BTree(Pager(fs, path, create=True))
            for key in sorted(committed):
                tree.insert([key], committed[key])
            tree.pager.flush()
        roll = rng.random()
        if roll < 0.70:
            pending[step] = rng.randbytes(rng.randrange(16, 200))
            tree.insert([step], pending[step])
        elif roll < 0.85:
            tree.pager.flush()
            committed.update(pending)
            pending.clear()
        else:
            crashes, dirty, tree = crashes + 1, fs.dirty_pages(path), None
            fs.crash()
            try:
                found = {k[0]: v for k, v in BTree(Pager(fs, path)).items()}
            except StorageError as error:  # TornPageError included
                torn += isinstance(error, TornPageError)
                found = committed
            for key, value in found.items():
                assert value == pending.get(key, committed.get(key)), key
            assert dirty or found == committed
            committed, pending = found, {}
    if tree is not None:  # a clean flush, crash and reopen round-trips
        tree.pager.flush()
        committed.update(pending)
        fs.crash()
        assert {k[0]: v for k, v in BTree(Pager(fs, path)).items()} \
            == committed
    return crashes, torn


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_crash_sweep_is_detection_or_correctness(seed):
    assert crash_sweep(seed)[0] >= 10


def test_crash_sweep_detects_torn_writes_across_seeds():
    # Torn pages are probabilistic per seed; across these seeds the
    # checksum epilogue must have caught at least one.
    assert sum(crash_sweep(seed)[1] for seed in (1, 2, 3)) > 0
