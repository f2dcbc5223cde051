"""IntegriDB-style accumulator-based verifiable database (baseline).

IntegriDB (Zhang, Katz, Papamanthou — CCS'15) authenticates SQL ranges
with *cryptographic set accumulators* arranged in authenticated interval
trees: every tree node holds an RSA-style accumulator of the rowids in
its value range.  Updates touch O(log n) accumulators, each costing a
modular exponentiation; range queries return canonical covering nodes
with subset witnesses whose computation is linear in the covered sets —
which is exactly why the paper measures it 57-209x slower on updates and
1,560-8,823x slower on queries than hash-based V2FS (Fig. 17).

This reimplementation is *functional*, not a stub: accumulators are real
``g^(prod h(e)) mod N`` values over a fixed 2048-bit modulus, witnesses
verify, and tampering is detected.  Element hashes are 128-bit odd
integers rather than primes — a standard simplification that preserves
the cost profile (the paper's shape depends on the exponentiation count,
not on primality).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.crypto.hashing import hash_bytes
from repro.errors import VerificationError

#: RSA-like modulus: the RFC 3526 group 14 prime, 2048 bits (factoring
#: hardness is not the point of the baseline — the exponentiation cost
#: profile is).
MODULUS = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 65537


def element_hash(value: object) -> int:
    """Map an element to an odd 128-bit exponent."""
    digest = hash_bytes(repr(value).encode("utf-8"))
    return int.from_bytes(digest[:16], "big") | 1


class Accumulator:
    """A multiplicative set accumulator ``g^(prod h(e)) mod N``."""

    __slots__ = ("value", "elements")

    def __init__(self) -> None:
        self.value = GENERATOR
        self.elements: List[object] = []

    def add(self, element: object) -> None:
        self.value = pow(self.value, element_hash(element), MODULUS)
        self.elements.append(element)

    def witness_for(self, subset: Sequence[object]) -> int:
        """Witness that ``subset`` is contained in the accumulated set.

        Costs one modular exponentiation per element *outside* the
        subset — the linear factor that dominates IntegriDB queries.
        """
        subset_hashes = sorted(element_hash(e) for e in subset)
        witness = GENERATOR
        for element in self.elements:
            h = element_hash(element)
            position = bisect.bisect_left(subset_hashes, h)
            in_subset = (
                position < len(subset_hashes)
                and subset_hashes[position] == h
            )
            if in_subset:
                subset_hashes.pop(position)
            else:
                witness = pow(witness, h, MODULUS)
        if subset_hashes:
            raise VerificationError("subset contains foreign elements")
        return witness

    @staticmethod
    def verify(
        accumulator_value: int, subset: Sequence[object], witness: int
    ) -> bool:
        current = witness
        for element in subset:
            current = pow(current, element_hash(element), MODULUS)
        return current == accumulator_value


@dataclass
class RangeProof:
    """Covering nodes + per-node witnesses for the matching rows.

    ``root_value``/``root_witness`` form the completeness component: a
    subset witness of the result against the whole column's accumulator.
    Computing it iterates the entire column — the O(n) group-operation
    cost that dominates real IntegriDB query proving (there realized as
    polynomial arithmetic in the exponent).
    """

    node_ids: List[int]
    accumulator_values: List[int]
    witnesses: List[int]
    rows_per_node: List[List[Tuple[object, int]]]
    root_value: int = 0
    root_witness: int = 0


class _IntervalTree:
    """Static-domain authenticated interval tree over one column.

    The tree is built over value *slots* (an order-preserving partition
    of a declared numeric domain); every node accumulates the
    (value, rowid) pairs falling in its range.  Inserts update the
    O(log n) accumulators on the leaf-to-root path.
    """

    def __init__(
        self, capacity_bits: int = 16, domain_max: int = 1 << 20
    ) -> None:
        self.capacity_bits = capacity_bits
        self.capacity = 1 << capacity_bits
        self.domain_max = domain_max
        self._accumulators: Dict[int, Accumulator] = {}

    def _slot(self, value: object) -> int:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            # Order-preserving bucketing over [0, domain_max].
            clamped = max(0, min(self.domain_max, int(value)))
            return clamped * self.capacity // (self.domain_max + 1)
        digest = hash_bytes(str(value).encode("utf-8"))
        return int.from_bytes(digest[:4], "big") % self.capacity

    def _node(self, node_id: int) -> Accumulator:
        accumulator = self._accumulators.get(node_id)
        if accumulator is None:
            accumulator = Accumulator()
            self._accumulators[node_id] = accumulator
        return accumulator

    def insert(self, value: object, rowid: int) -> None:
        node_id = self.capacity + self._slot(value)
        element = (value, rowid)
        while node_id >= 1:
            self._node(node_id).add(element)
            node_id //= 2

    def _canonical_nodes(self, low_slot: int, high_slot: int) -> List[int]:
        """Minimal node set covering [low_slot, high_slot] (segment-tree
        canonical decomposition, half-open form)."""
        nodes: List[int] = []
        lo = self.capacity + low_slot
        hi = self.capacity + high_slot + 1
        while lo < hi:
            if lo & 1:
                nodes.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                nodes.append(hi)
            lo >>= 1
            hi >>= 1
        return nodes

    def range_query(self, low: int, high: int) -> RangeProof:
        low_slot = self._slot(low)
        high_slot = self._slot(high)
        node_ids = self._canonical_nodes(low_slot, high_slot)
        accumulator_values: List[int] = []
        witnesses: List[int] = []
        rows_per_node: List[List[Tuple[object, int]]] = []
        for node_id in node_ids:
            accumulator = self._node(node_id)
            matching = [
                element for element in accumulator.elements
                if isinstance(element[0], (int, float))
                and low <= element[0] <= high
            ]
            accumulator_values.append(accumulator.value)
            witnesses.append(accumulator.witness_for(matching))
            rows_per_node.append(list(matching))
        all_matching = [
            element for per_node in rows_per_node for element in per_node
        ]
        root = self._node(1)
        return RangeProof(
            node_ids, accumulator_values, witnesses, rows_per_node,
            root_value=root.value,
            root_witness=root.witness_for(all_matching),
        )

    def verify_range(self, proof: RangeProof) -> List[Tuple[object, int]]:
        results: List[Tuple[object, int]] = []
        for value, subset, witness in zip(
            proof.accumulator_values, proof.rows_per_node, proof.witnesses
        ):
            if not Accumulator.verify(value, subset, witness):
                raise VerificationError("IntegriDB witness check failed")
            results.extend(subset)
        if not Accumulator.verify(
            proof.root_value, results, proof.root_witness
        ):
            raise VerificationError(
                "IntegriDB completeness witness check failed"
            )
        return results


class IntegriDbLike:
    """A one-table accumulator-verified database (the Fig. 17 baseline)."""

    def __init__(
        self,
        columns: Sequence[str],
        capacity_bits: int = 16,
        domain_max: int = 1 << 20,
    ) -> None:
        self.columns = list(columns)
        self._trees: Dict[str, _IntervalTree] = {
            column: _IntervalTree(capacity_bits, domain_max)
            for column in columns
        }
        self._rows: Dict[int, Tuple] = {}
        self._next_rowid = 1

    def insert(self, row: Sequence[object]) -> int:
        if len(row) != len(self.columns):
            raise ValueError("row width mismatch")
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = tuple(row)
        for column, value in zip(self.columns, row):
            self._trees[column].insert(value, rowid)
        return rowid

    def range_query(
        self, column: str, low: int, high: int
    ) -> Tuple[List[Tuple], RangeProof]:
        """Verifiable range query: returns rows and the proof."""
        proof = self._trees[column].range_query(low, high)
        rowids = sorted(
            rowid
            for per_node in proof.rows_per_node
            for _, rowid in per_node
        )
        rows = [self._rows[rowid] for rowid in rowids]
        return rows, proof

    def verify(
        self, column: str, proof: RangeProof
    ) -> List[Tuple[object, int]]:
        """Client-side verification of a range proof."""
        return self._trees[column].verify_range(proof)

    def __len__(self) -> int:
        return len(self._rows)
