"""Query client: verifiable query processing with cache optimizations.

Implements the paper's Algorithm 4 (baseline verifiable queries), the
intra-query and inter-query caches of Section V-A (Algorithm 5), the
VBF-integrated freshness check of Section V-B, and the local temp-file
handling of Appendix A.
"""

from repro.client.caches import CachedPage, InterQueryCache, IntraQueryCache
from repro.client.query_client import QueryClient, VerifiedResult
from repro.client.state import CarriedState
from repro.client.vfs import ClientSession, ClientVfs

__all__ = [
    "CachedPage",
    "CarriedState",
    "ClientSession",
    "ClientVfs",
    "InterQueryCache",
    "IntraQueryCache",
    "QueryClient",
    "VerifiedResult",
]
