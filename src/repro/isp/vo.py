"""Verification-object builder.

Per the paper, the ISP does not ship one Merkle proof per page; it
accumulates everything a query touched and emits a single consolidated VO
in the finalize phase.  The :class:`VOBuilder` collects three kinds of
claims and renders them into one :class:`~repro.merkle.proof.AdsProof`:

* **page claims** — pages transmitted to the client;
* **node claims** — internal ADS nodes whose digests the ISP confirmed
  during inter-query-cache freshness checks (Algorithm 5, line 22);
* **touched files** — files whose metadata the client used; their
  authenticated (size, page_count) ride along in the trie skeleton so a
  stale cached file length can never go unnoticed.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.crypto.hashing import Digest
from repro.merkle.ads import V2fsAds
from repro.merkle.proof import AdsProof
from repro.obs import metrics as obs


class VOBuilder:
    """Accumulates claims for one query session."""

    def __init__(self, ads: V2fsAds, root: Digest) -> None:
        self._ads = ads
        self._root = root
        self.page_keys: Set[Tuple[str, int]] = set()
        self.node_keys: Set[Tuple[str, int, int]] = set()
        self.touched_files: Set[str] = set()

    def add_page(self, path: str, page_id: int) -> None:
        self.page_keys.add((path, page_id))
        self.touched_files.add(path)

    def add_node(self, path: str, level: int, index: int) -> None:
        self.node_keys.add((path, level, index))
        self.touched_files.add(path)

    def add_file(self, path: str) -> None:
        self.touched_files.add(path)

    def build(self) -> AdsProof:
        """Render the consolidated VO."""
        if obs.ACTIVE:
            obs.observe("isp.vo.pages", len(self.page_keys))
            obs.observe("isp.vo.nodes", len(self.node_keys))
        # Files touched only through metadata (or fully VBF-fresh caches)
        # still need their trie entry in the skeleton.
        return self._ads.gen_read_proof(
            self._root, sorted(self.page_keys), sorted(self.node_keys),
            files=self.touched_files,
        )
