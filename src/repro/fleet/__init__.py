"""Sharded, replicated ISP fleet with a proof-stitching router.

The single-node :class:`~repro.isp.server.IspServer` serves the whole
authenticated filesystem from one process.  This package scales it out
without touching the trust model:

* :mod:`repro.fleet.partition` — who owns which path (hash or range
  strategies over the key space, published as a versioned
  :class:`~repro.fleet.partition.ShardMap`);
* :mod:`repro.fleet.shard` — a shard primary: a full ADS *skeleton*
  (every digest) but page data only for its partition, so its root is
  byte-identical to the fleet-wide certified root;
* :mod:`repro.fleet.replication` — MVCC read replicas that replay the
  primary's certified write batches from a replication log;
* :mod:`repro.fleet.stitch` — merging per-shard consolidated VOs into
  one proof anchored at the certified root;
* :mod:`repro.fleet.router` — the stateless fan-out router clients
  talk to, speaking the unmodified :mod:`repro.rpc` wire protocol;
* :mod:`repro.fleet.lifecycle` — process orchestration: launch N
  shards + R replicas + a router, kill and restart shards.

The soundness invariant: the *client verifier is unchanged*.  Every
stitched proof must verify against the certificate exactly as a
single-node proof would, so a tampered or stale answer from any one
shard or replica fails client verification — the router is just as
untrusted as the ISP it replaces.
"""
