"""The stateless fan-out router: one ISP surface over many shards.

:class:`FleetIsp` exposes the exact client-facing surface of
:class:`~repro.isp.server.IspServer`, so the unmodified
:class:`~repro.client.query_client.QueryClient` (and the unmodified
wire protocol, via :class:`FleetRouterServer`) work against a sharded
fleet without knowing it is one:

* ``open_session`` pins a *fleet* session to one certificate version;
  per-shard sessions open lazily underneath, each forced to the same
  version (``open_session(expected_version=...)``), so every shard
  serves the same snapshot;
* reads route to the owning shard — a fresh replica when one is caught
  up to the pinned version (read/write splitting), the primary
  otherwise; slow page reads are *hedged* to a second endpoint of the
  same shard after an adaptive delay (:mod:`repro.fleet.resilience`);
* ``finalize_session`` collects every touched shard's consolidated VO
  (hedge sessions included) and stitches them
  (:mod:`repro.fleet.stitch`) into one proof the client verifies
  against the certificate exactly as before;
* ``sync_update`` fans the CI's batch to every shard primary and
  merges the acks, retry-idempotent per shard.

Failure-domain behavior: an optional
:class:`~repro.fleet.health.HealthTracker` lets the router skip
replicas already declared dead; a client deadline propagated through
the wire frame is spent across the whole fan-out (each sequential
sub-call gets a slice of the remaining budget); and a failover
promotion installs a new :class:`~repro.fleet.partition.ShardMap`
*epoch* — sessions opened under the old epoch abort with a typed
:class:`~repro.errors.EpochError` instead of stitching a proof across
two fleet topologies.

"Stateless" means *no authenticated state*: the router holds routing
tables and session bookkeeping, but no ADS and no trust.  It is as
untrusted as the ISP it fronts — the adversarial suite runs collusive
routers, and the client catches them.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.certificate import V2fsCertificate
from repro.errors import EpochError, FleetError, NetworkError, ReproError
from repro.faults import registry as faults
from repro.fleet.health import HealthTracker
from repro.fleet.partition import Endpoint, ShardMap, page_key
from repro.fleet.resilience import (
    HedgePolicy,
    ResilienceConfig,
    split_deadline,
)
from repro.fleet.stitch import stitch_proofs
from repro.isp.sessions import SessionRegistry
from repro.merkle.proof import AdsProof
from repro.obs import metrics as obs
from repro.rpc.client import RemoteIsp
from repro.rpc.deadline import Deadline
from repro.rpc.server import RpcIspServer
from repro.serve.server import AsyncIspServer

logger = logging.getLogger("repro.fleet")

#: Builds the proxy for one endpoint.  ``None`` means "build from the
#: fleet's :class:`ResilienceConfig`" (its hop timeout, plus the fixed
#: retry, breaker and netsplit-label policy beside it).  Tests swap in
#: fakes.
HandleFactory = Callable[[Endpoint], RemoteIsp]

#: One shard's share of a ``sync_update`` fan-out (provided by the
#: lifecycle: wraps the shard server's lock, the shard sync, and the
#: replication shipment).
SyncFn = Callable[[dict, dict, V2fsCertificate], None]


def _health_key(endpoint: Endpoint) -> str:
    return f"{endpoint[0]}:{endpoint[1]}"


class RouterSession:
    """Router-side state of one fleet query session."""

    def __init__(self, session_id: int, version: int, epoch: int = 1) -> None:
        self.session_id = session_id
        #: The certificate version every shard session must pin.
        self.version = version
        #: The shard-map epoch this session's routing was computed
        #: under.  A promotion bumps the router's epoch; stale sessions
        #: abort typed instead of stitching across topologies.
        self.epoch = epoch
        #: shard_id -> (handle, remote session id), opened lazily.
        self.shard_sessions: Dict[int, Tuple[RemoteIsp, int]] = {}
        #: shard_id -> (handle, remote session id) on the *hedge*
        #: endpoint, opened on first hedge fire.  Finalized and
        #: stitched alongside the primaries — both are views of the
        #: same pinned tree, so the union is sound.
        self.hedge_sessions: Dict[int, Tuple[RemoteIsp, int]] = {}
        self.touched_s = time.monotonic()

    def touch(self) -> None:
        self.touched_s = time.monotonic()

    def all_sessions(self) -> List[Tuple[RemoteIsp, int]]:
        """Every remote session this fleet session opened, primaries
        first, ordered by shard id (stitch determinism)."""
        pairs = [
            self.shard_sessions[sid]
            for sid in sorted(self.shard_sessions)
        ]
        pairs.extend(
            self.hedge_sessions[sid]
            for sid in sorted(self.hedge_sessions)
        )
        return pairs


class FleetIsp:
    """The fan-out router behind the standard ISP surface."""

    def __init__(
        self,
        shard_map: ShardMap,
        handle_factory: Optional[HandleFactory] = None,
        sync_fns: Optional[Dict[int, SyncFn]] = None,
        config: Optional[ResilienceConfig] = None,
        health: Optional[HealthTracker] = None,
    ) -> None:
        if not shard_map.shards:
            raise FleetError("shard map lists no shards")
        self.config = config or ResilienceConfig()
        self._handle_factory = handle_factory or self.config.make_handle
        self.health = health
        self.sessions = SessionRegistry("fleet.sessions", "fleet.router")
        #: Direct per-shard sync callables (in-process fleets).  When
        #: absent, ``sync_update`` refuses: the router never invents a
        #: write path.
        self.sync_fns = sync_fns or {}
        self._synced: Dict[int, int] = {}  # shard_id -> last acked version
        #: Bumped by :meth:`adopt_shard_map`; sessions pin it at open.
        self.epoch = 1
        self._hedge_policy = HedgePolicy(
            floor_s=self.config.hedge_floor_s,
            fallback_delay_s=max(
                self.config.hedge_floor_s, self.config.timeout_s / 4
            ),
        )
        self._install_shard_map(shard_map)

    def _install_shard_map(self, shard_map: ShardMap) -> None:
        self.shard_map = shard_map
        self.partitioner = shard_map.partitioner()
        self._primaries: Dict[int, RemoteIsp] = {}
        self._replicas: Dict[int, List[RemoteIsp]] = {}
        self._primary_endpoints: Dict[int, Endpoint] = {}
        self._replica_endpoints: Dict[int, List[Endpoint]] = {}
        self._handles_by_key: Dict[str, RemoteIsp] = {}
        for shard in shard_map.shards:
            primary = self._handle_factory(shard.primary)
            self._primaries[shard.shard_id] = primary
            self._primary_endpoints[shard.shard_id] = shard.primary
            self._handles_by_key[_health_key(shard.primary)] = primary
            replicas = []
            for endpoint in shard.replicas:
                replica = self._handle_factory(endpoint)
                replicas.append(replica)
                self._handles_by_key[_health_key(endpoint)] = replica
            self._replicas[shard.shard_id] = replicas
            self._replica_endpoints[shard.shard_id] = list(shard.replicas)

    def handle_for(self, key: str) -> Optional[RemoteIsp]:
        """The data-path handle serving ``"host:port"``, if any —
        health probing consults its traffic before spending an active
        probe on an endpoint that is demonstrably alive."""
        return self._handles_by_key.get(key)

    def adopt_shard_map(self, shard_map: ShardMap) -> None:
        """Install a newer routing epoch (failover promotion).

        Rebuilds every endpoint handle from the new map and bumps
        :attr:`epoch`: sessions opened under the old map abort with
        :class:`~repro.errors.EpochError` at their next touch rather
        than stitch per-shard proofs across two topologies.  Old
        handles are closed — their in-flight calls surface as typed
        connection errors, which the aborting session reports anyway.
        """
        if shard_map.version <= self.shard_map.version:
            raise FleetError(
                f"refusing shard map downgrade (have version "
                f"{self.shard_map.version}, offered {shard_map.version})"
            )
        old_handles = list(self._primaries.values())
        for handles in self._replicas.values():
            old_handles.extend(handles)
        self._install_shard_map(shard_map)
        self.epoch += 1
        logger.warning(
            "adopted shard map version %d (epoch %d)",
            shard_map.version, self.epoch,
        )
        for handle in old_handles:
            self._close_handle(handle)

    @staticmethod
    def _close_handle(handle) -> None:
        close = getattr(handle, "close", None)
        if close is None:
            return  # in-process test fake
        try:
            close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def close(self) -> None:
        # Finalize every outstanding fleet session first so the
        # lazily-opened per-shard sessions underneath are released —
        # otherwise each shard's session table keeps pinning snapshot
        # roots until its own idle sweep fires.
        self.prune_sessions(0.0)
        for handle in self._primaries.values():
            self._close_handle(handle)
        for handles in self._replicas.values():
            for handle in handles:
                self._close_handle(handle)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_for(self, key: str) -> int:
        shard_id = self.partitioner(key)
        if shard_id not in self._primaries:
            raise FleetError(
                f"key {key!r} maps to unknown shard {shard_id}"
            )
        return shard_id

    def shard_for_page(self, path: str, page_id: int) -> int:
        """The shard owning one page's *content* (page-granular key)."""
        return self.shard_for(page_key(path, page_id))

    def _session(self, session_id: int) -> RouterSession:
        session = self.sessions.get(session_id)
        if session is None:
            raise NetworkError(f"unknown session {session_id}")
        if session.epoch != self.epoch:
            self.sessions.remove(session_id)
            if obs.ACTIVE:
                obs.inc("fleet.epoch.abort")
            raise EpochError(
                f"shard map epoch changed ({session.epoch} -> "
                f"{self.epoch}) while session {session_id} was in "
                f"flight; reopen and retry"
            )
        session.touch()
        return session

    def _replica_is_up(self, shard_id: int, index: int) -> bool:
        if self.health is None:
            return True
        endpoints = self._replica_endpoints.get(shard_id, ())
        if index >= len(endpoints):
            return True
        return self.health.is_up(_health_key(endpoints[index]))

    def _pick_endpoint(
        self, shard_id: int, version: int,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[RemoteIsp, bool]:
        """The endpoint a read session on ``shard_id`` should use.

        Prefers a replica that has caught up to the pinned ``version``
        (offloading the primary); every lagging replica is counted as
        ``fleet.replica.stale`` and the primary serves instead.  An
        unreachable replica — or one the health tracker already
        declared down — is treated the same as a stale one.
        """
        for index, replica in enumerate(self._replicas.get(shard_id, ())):
            if not self._replica_is_up(shard_id, index):
                continue
            try:
                certificate = self._with_deadline(
                    replica.get_certificate, deadline
                )
            except (ReproError, OSError):
                continue
            if certificate.version >= version:
                return replica, True
            if obs.ACTIVE:
                obs.inc("fleet.replica.stale")
        return self._primaries[shard_id], False

    @staticmethod
    def _with_deadline(fn, deadline: Optional[Deadline], *args):
        """Call a handle method, passing ``deadline`` only when armed
        (in-process test fakes don't take the kwarg)."""
        if deadline is None:
            return fn(*args)
        return fn(*args, deadline=deadline)

    def _shard_session(
        self,
        session: RouterSession,
        shard_id: int,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[RemoteIsp, int]:
        """The (handle, remote session) for one shard, opened on first
        touch and pinned to the fleet session's version."""
        held = session.shard_sessions.get(shard_id)
        if held is not None:
            return held
        if faults.ACTIVE:
            # Severs fan-out to a shard mid-query: the injected fault
            # travels to the client as a typed wire error and the query
            # aborts — never a partial, unverifiable answer.
            faults.fire(
                "fleet.router.fanout",
                shard=shard_id, session=session.session_id,
            )
        handle, is_replica = self._pick_endpoint(
            shard_id, session.version, deadline
        )
        try:
            remote_sid = self._open_pinned(handle, session.version, deadline)
        except NetworkError:
            if not is_replica:
                raise
            # The replica raced past its certificate check (or died
            # mid-open); the primary is authoritative.
            handle = self._primaries[shard_id]
            remote_sid = self._open_pinned(handle, session.version, deadline)
            is_replica = False
        if obs.ACTIVE:
            obs.inc("fleet.router.fanout")
            if is_replica:
                obs.inc("fleet.replica.read")
        session.shard_sessions[shard_id] = (handle, remote_sid)
        return handle, remote_sid

    def _open_pinned(
        self, handle, version: int, deadline: Optional[Deadline]
    ) -> int:
        if deadline is None:
            return handle.open_session(expected_version=version)
        return handle.open_session(
            expected_version=version, deadline=deadline
        )

    # ------------------------------------------------------------------
    # Hedged reads
    # ------------------------------------------------------------------

    def _hedge_possible(self, shard_id: int, serving: RemoteIsp) -> bool:
        """Does this shard have anywhere to hedge?  Runs on *every*
        page read, so it answers with an identity compare when it can:
        a replica-served shard always has its primary as a hedge
        target.  Only the primary-served case (every replica stale or
        down — already a degraded shard) consults the health tracker,
        whose verdict costs a lock acquisition.
        """
        if self._primaries[shard_id] is not serving:
            return True
        return any(
            replica is not serving and self._replica_is_up(shard_id, index)
            for index, replica in enumerate(
                self._replicas.get(shard_id, ())
            )
        )

    def _hedge_candidates(
        self, shard_id: int, serving: RemoteIsp
    ) -> List[RemoteIsp]:
        """Endpoints of ``shard_id`` a hedge could go to (healthy, not
        the one already serving this session)."""
        candidates: List[RemoteIsp] = []
        primary = self._primaries[shard_id]
        if primary is not serving:
            candidates.append(primary)
        for index, replica in enumerate(self._replicas.get(shard_id, ())):
            if replica is serving:
                continue
            if not self._replica_is_up(shard_id, index):
                continue
            candidates.append(replica)
        return candidates

    def _hedge_session(
        self,
        session: RouterSession,
        shard_id: int,
        candidates: List[RemoteIsp],
        deadline: Optional[Deadline],
    ) -> Tuple[RemoteIsp, int]:
        """The hedge endpoint's remote session, opened on first fire
        and reused by every later hedge against the same shard."""
        held = session.hedge_sessions.get(shard_id)
        if held is not None:
            return held
        last: Optional[Exception] = None
        for handle in candidates:
            try:
                sid = self._open_pinned(handle, session.version, deadline)
            except (ReproError, OSError) as error:
                last = error
                continue
            session.hedge_sessions[shard_id] = (handle, sid)
            return handle, sid
        raise FleetError(
            f"no hedge endpoint available for shard {shard_id}"
            + (f" (last: {last})" if last else "")
        )

    # ------------------------------------------------------------------
    # The ISP client-facing surface
    # ------------------------------------------------------------------

    def get_certificate(
        self, deadline: Optional[Deadline] = None
    ) -> V2fsCertificate:
        """The fleet's current certificate, from any live member.

        Shard 0's primary is the canonical source, but every primary
        and replica adopts each certificate in the same fan-out and
        the client verifies the signature regardless of who served it
        — so a dead shard-0 primary must not take certificate service
        (and with it ``open_session``) down with it.
        """
        last: Optional[Exception] = None
        for shard_id in sorted(self._primaries):
            try:
                return self._with_deadline(
                    self._primaries[shard_id].get_certificate, deadline
                )
            except (ReproError, OSError) as error:
                last = error
        for shard_id in sorted(self._replicas):
            for replica in self._replicas[shard_id]:
                try:
                    return self._with_deadline(
                        replica.get_certificate, deadline
                    )
                except (ReproError, OSError) as error:
                    last = error
        raise FleetError(
            f"no fleet member could serve a certificate (last: {last})"
        )

    def open_session(
        self,
        expected_version: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> int:
        certificate = self.get_certificate(deadline)
        if (
            expected_version is not None
            and certificate.version != expected_version
        ):
            raise NetworkError(
                f"certificate superseded (now version "
                f"{certificate.version}, client validated "
                f"{expected_version}); refetch and retry"
            )
        session = RouterSession(
            self.sessions.next_id(), certificate.version, self.epoch
        )
        self.sessions.insert(session)
        return session.session_id

    def get_file_meta(
        self,
        session_id: int,
        path: str,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[bool, int, int]:
        session = self._session(session_id)
        handle, sid = self._shard_session(
            session, self.shard_for(path), deadline
        )
        return self._with_deadline(
            handle.get_file_meta, deadline, sid, path
        )

    def get_page(
        self,
        session_id: int,
        path: str,
        page_id: int,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        """One page read, hedged as a *tied request*.

        When the shard has another healthy endpoint, the serving
        endpoint's read is capped at the hedging policy's adaptive p99
        delay (via the per-call deadline machinery, so the abandoned
        read fails typed and its socket is discarded, never reused
        desynced).  A read that outlives the cap is re-issued inline to
        the hedge endpoint with the caller's remaining budget.  This
        costs no thread spawn on the ~99% of reads that beat the cap —
        the fault-free overhead budget is a few microseconds per read.  A consistently-slow endpoint accumulates breaker
        failures from its abandoned reads and starts failing fast,
        which is exactly the failover pressure we want.  The total
        elapsed time is observed either way, so a uniformly slow fleet
        raises the estimate instead of hedging every read twice.
        """
        session = self._session(session_id)
        shard_id = self.shard_for_page(path, page_id)
        handle, sid = self._shard_session(session, shard_id, deadline)
        # The cap requires the handle to enforce a per-call deadline
        # (RemoteIsp does; bare in-process fakes don't and get the
        # plain read path).  The candidate list itself — which may
        # consult the health tracker — is only built when a hedge
        # actually fires; the fast path just asks whether one exists.
        hedged = (
            self.config.hedge_enabled
            and getattr(handle, "supports_deadline", False)
            and self._hedge_possible(shard_id, handle)
        )
        start = time.monotonic()
        if not hedged:
            page = self._with_deadline(
                handle.get_page, deadline, sid, path, page_id
            )
            self._hedge_policy.observe(time.monotonic() - start)
            return page
        cap_s = self._hedge_policy.delay_s()
        if deadline is not None:
            cap_s = min(cap_s, deadline.remaining())
        try:
            page = handle.get_page(
                sid, path, page_id, deadline=Deadline.after(cap_s)
            )
        except (ReproError, OSError) as primary_error:
            if deadline is not None:
                deadline.check("hedged page read")
            if obs.ACTIVE:
                obs.inc("fleet.hedge.fired")
            try:
                hedge_handle, hedge_sid = self._hedge_session(
                    session,
                    shard_id,
                    self._hedge_candidates(shard_id, handle),
                    deadline,
                )
                page = self._with_deadline(
                    hedge_handle.get_page, deadline,
                    hedge_sid, path, page_id,
                )
            except (ReproError, OSError):
                # The hedge was a bonus attempt, not the authority on
                # what went wrong: the primary's error surfaces.
                raise primary_error
            if obs.ACTIVE:
                obs.inc("fleet.hedge.won")
        self._hedge_policy.observe(time.monotonic() - start)
        return page

    def validate_path(
        self, session_id, path, page_id, digs_path,
        deadline: Optional[Deadline] = None,
    ):
        # The fallback answer serves page bytes, so this routes by the
        # page key like ``get_page`` (the skeleton part could be served
        # anywhere — every shard folds the full digest tree).
        session = self._session(session_id)
        shard_id = self.shard_for_page(path, page_id)
        handle, sid = self._shard_session(session, shard_id, deadline)
        return self._with_deadline(
            handle.validate_path, deadline, sid, path, page_id, digs_path
        )

    def finalize_session(
        self, session_id: int, deadline: Optional[Deadline] = None
    ) -> AdsProof:
        session = self.sessions.remove(session_id)
        if session is None:
            raise NetworkError(f"unknown session {session_id}")
        if session.epoch != self.epoch:
            if obs.ACTIVE:
                obs.inc("fleet.epoch.abort")
            raise EpochError(
                f"shard map epoch changed ({session.epoch} -> "
                f"{self.epoch}) while session {session_id} was in "
                f"flight; reopen and retry"
            )
        if not session.shard_sessions:
            # A query that touched nothing still needs a proof anchored
            # at the pinned root; any shard's empty VO is exactly that.
            self._shard_session(session, 0, deadline)
        pairs = session.all_sessions()
        proofs = []
        for index, (handle, sid) in enumerate(pairs):
            # Sequential fan-in: each remaining sub-call gets an equal
            # slice of the remaining budget, so one slow shard cannot
            # spend the whole deadline before the others are collected.
            sub = split_deadline(deadline, len(pairs) - index)
            proofs.append(
                self._with_deadline(handle.finalize_session, sub, sid)
            )
        stitched = self._stitch(proofs)
        if obs.ACTIVE:
            obs.observe("fleet.router.stitch.shards", len(proofs))
            obs.observe(
                "fleet.router.stitch.bytes", stitched.byte_size()
            )
        return stitched

    def _stitch(self, proofs: List[AdsProof]) -> AdsProof:
        """Merge the per-shard VOs (overridden by collusive routers in
        the adversarial suite; the honest router cross-checks)."""
        return stitch_proofs(proofs, verify=True)

    # ------------------------------------------------------------------
    # Write path: fan the CI batch to every shard primary
    # ------------------------------------------------------------------

    def sync_update(
        self,
        writes: Dict[str, Dict[int, bytes]],
        new_sizes: Dict[str, int],
        certificate: V2fsCertificate,
    ) -> None:
        """Apply one certified batch on every shard primary.

        Per-shard idempotent: a shard that already acked this version
        is skipped, so retrying after a partial failure completes the
        stragglers instead of double-applying.  Any shard still failing
        raises :class:`FleetError` — the fleet never silently serves a
        mixed-version snapshot (each shard refuses a batch that does
        not reproduce the certified root, so a partial fan-out can only
        lag, not diverge).
        """
        if not self.sync_fns:
            raise FleetError(
                "router has no write path to the shard primaries"
            )
        failures: List[str] = []
        acked = 0
        for shard_id in sorted(self.sync_fns):
            if self._synced.get(shard_id) == certificate.version:
                acked += 1
                continue
            try:
                self.sync_fns[shard_id](writes, new_sizes, certificate)
            except ReproError as error:
                logger.warning(
                    "shard %d failed sync to version %d: %s",
                    shard_id, certificate.version, error,
                )
                failures.append(f"shard {shard_id}: {error}")
                continue
            self._synced[shard_id] = certificate.version
            acked += 1
        if obs.ACTIVE:
            obs.observe("fleet.sync.shards", acked)
        if failures:
            raise FleetError(
                f"sync_update to version {certificate.version} failed "
                f"on {len(failures)} shard(s): " + "; ".join(failures)
            )

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def prune_sessions(self, idle_ttl_s: float) -> int:
        """Sweep fleet sessions idle past ``idle_ttl_s``.

        A vanished client strands its per-shard (and hedge) sessions,
        which pin snapshots on every touched shard; the sweep finalizes
        them best-effort to release those roots.
        """
        cutoff = time.monotonic() - idle_ttl_s
        doomed: List[RouterSession] = []

        def stale(session) -> bool:
            if session.touched_s <= cutoff:
                doomed.append(session)
                return True
            return False

        count = self.sessions.prune(stale)
        for session in doomed:
            for handle, sid in session.all_sessions():
                try:
                    handle.finalize_session(sid)
                except (ReproError, OSError):
                    pass  # best-effort release
        return count


class FleetRouterServer(RpcIspServer):
    """The router behind the unmodified wire protocol.

    Dispatch is **lock-free**: every handler call performs remote I/O
    to shards, and holding the coarse server lock across a remote call
    would serialize the whole fleet behind one slow shard (and
    deadlock a router that ever called itself).  The FleetIsp's shared
    state is confined to the session registry (internally locked) and
    per-session dicts touched by one client at a time.

    A client deadline received in the frame header is rebased and
    handed to the FleetIsp surface, which spends it across the whole
    shard fan-out.
    """

    def _serve(
        self,
        kind: int,
        args: tuple,
        deadline: Optional[Deadline] = None,
    ) -> bytes:
        if deadline is not None and kind in self._ISP_OPS:
            return self._dispatch(kind, args, deadline=deadline)
        return self._dispatch(kind, args)


class AsyncFleetRouterServer(FleetRouterServer, AsyncIspServer):
    """The fleet router on the event loop.

    The MRO composes the two overrides cleanly: transport and lifecycle
    come from :class:`~repro.serve.server.AsyncIspServer` (event loop,
    pipelining, worker pool), dispatch comes from
    :class:`FleetRouterServer` (lock-free fan-out with deadline
    slicing).  Proof batching stays off automatically —
    :class:`FleetIsp` has no ``serve_batch`` surface, because
    coalescing belongs on the shards, each of which can run its own
    :class:`AsyncIspServer` and batch locally.
    """


__all__ = [
    "AsyncFleetRouterServer",
    "FleetIsp",
    "FleetRouterServer",
    "RouterSession",
    "SyncFn",
]
