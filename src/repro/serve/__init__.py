"""repro.serve — the event-loop serving path.

Thread-per-connection serving (:class:`~repro.rpc.server.RpcIspServer`)
costs one OS thread per client; at thousands of concurrent sessions the
scheduler, not the ISP, becomes the bottleneck.
:class:`AsyncIspServer` serves the same wire protocol from a single
``selectors`` event loop plus a bounded worker pool, which adds
out-of-order **pipelining** of id-carrying frames and
**snapshot-shared proof batching** of the data-plane requests that
arrive in one loop tick.  It is a transport only: the request pipeline,
the failpoints and the wire seam are ``RpcIspServer``'s, shared with the
threaded server.  See :mod:`repro.serve.server` and DESIGN.md §11.
"""

from repro.serve.server import AsyncIspServer

__all__ = ["AsyncIspServer"]
