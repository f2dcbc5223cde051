"""Fleet orchestration: N shards + replicas + one router, as processes.

:class:`Fleet` turns a running single-node
:class:`~repro.core.system.V2FSSystem` into a sharded deployment:

1. plan the partition (hash, or range over the current file set);
2. build each shard primary and apply the system's certified state to
   it as one snapshot batch (every shard reproduces the certified root,
   storing only its own pages — see :mod:`repro.fleet.shard`);
3. seed each shard's replicas with the same batch through its
   replication log;
4. serve every primary and replica behind its own
   :class:`~repro.rpc.server.RpcIspServer`, publish the bound ports as
   a :class:`~repro.fleet.partition.ShardMap`, and front the fleet
   with a :class:`~repro.fleet.router.FleetRouterServer`;
5. rewire ``system.isp`` to the router's
   :class:`~repro.fleet.router.FleetIsp`, so ``advance_block`` fans
   each new batch to every primary and ships it on to the replicas.

Chaos hooks: :meth:`Fleet.kill_shard` stops a primary's server
mid-fleet (clients see connection failures; the circuit breaker turns
repeats into fast failures) and :meth:`Fleet.restart_shard` rebinds
the same port.  The ``fleet.shard.crash`` failpoint does the kill at
sync fan-out time, modelling a primary dying mid-update — the fleet
refuses to ack the version until the shard is back and the retry
completes the stragglers.
"""

from __future__ import annotations

import logging
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import FleetError
from repro.faults import registry as faults
from repro.faults.registry import InjectedFault
from repro.fleet.health import HealthTracker
from repro.fleet.partition import (
    STRATEGY_HASH,
    STRATEGY_RANGE,
    Endpoint,
    ShardDesc,
    ShardMap,
    make_partitioner,
    plan_range_split,
)
from repro.fleet.replication import ReplicaIsp, ReplicationLog
from repro.fleet.resilience import ResilienceConfig
from repro.fleet.router import (
    AsyncFleetRouterServer,
    FleetIsp,
    FleetRouterServer,
    HandleFactory,
)
from repro.fleet.shard import ShardIsp
from repro.rpc.server import IspBootstrap, RpcIspServer
from repro.serve.server import AsyncIspServer

logger = logging.getLogger("repro.fleet")


def _tcp_probe(endpoint: Endpoint, timeout_s: float = 0.5):
    """A heartbeat for one endpoint: can we still open a connection?

    Deliberately *not* an RPC through the router's pooled handles — a
    heartbeat must not share circuit-breaker state with the data path,
    or a breaker opened by data-plane timeouts would keep reporting a
    recovered endpoint as dead.
    """

    def probe() -> None:
        with socket.create_connection(endpoint, timeout=timeout_s):
            pass

    return probe


class Fleet:
    """A running sharded deployment over one :class:`V2FSSystem`."""

    def __init__(
        self,
        system,
        shard_count: int = 4,
        replicas: int = 0,
        strategy: str = STRATEGY_HASH,
        host: str = "127.0.0.1",
        service_delay_s: float = 0.0,
        handle_factory: Optional[HandleFactory] = None,
        config: Optional[ResilienceConfig] = None,
        server_class: type = RpcIspServer,
    ) -> None:
        if shard_count < 1:
            raise FleetError("a fleet needs at least one shard")
        #: Server class for every shard and replica endpoint; pass
        #: :class:`~repro.serve.server.AsyncIspServer` to run the whole
        #: fleet on event loops (the router upgrades to
        #: :class:`AsyncFleetRouterServer` to match).
        self.server_class = server_class
        self.system = system
        self.shard_count = shard_count
        self.strategy = strategy
        self.host = host
        self.service_delay_s = service_delay_s
        #: Builds every router-to-shard endpoint handle; an explicit
        #: ``handle_factory`` still wins (tests).
        self.config = config or ResilienceConfig()
        self._handle_factory = handle_factory or self.config.make_handle
        self._original_isp = system.isp
        self._started = False
        self.health: Optional[HealthTracker] = None
        self._health_interval_s: Optional[float] = None

        bounds: Tuple[str, ...] = ()
        if strategy == STRATEGY_RANGE:
            source = system.isp.ads
            bounds = plan_range_split(
                source.list_files(system.isp.root), shard_count
            )
        self.bounds = bounds
        self.partitioner = make_partitioner(
            strategy, shard_count, bounds
        )

        self.shards: Dict[int, ShardIsp] = {
            shard_id: ShardIsp(shard_id, self.partitioner)
            for shard_id in range(shard_count)
        }
        #: replicas[shard_id] -> list of (label, ReplicaIsp)
        self.replicas: Dict[int, List[Tuple[str, ReplicaIsp]]] = {
            shard_id: [] for shard_id in range(shard_count)
        }
        for index in range(replicas):
            shard_id = index % shard_count
            label = f"shard{shard_id}-replica{index // shard_count}"
            self.replicas[shard_id].append(
                (label, ReplicaIsp(shard_id, self.partitioner))
            )
        self.logs: Dict[int, ReplicationLog] = {
            shard_id: ReplicationLog(shard_id)
            for shard_id in range(shard_count)
        }

        self._shard_servers: Dict[int, Optional[RpcIspServer]] = {}
        self._shard_ports: Dict[int, int] = {}
        self._replica_servers: Dict[str, RpcIspServer] = {}
        self.router_server: Optional[FleetRouterServer] = None
        self.isp: Optional[FleetIsp] = None

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _catch_up(self) -> None:
        """Bring every shard to the system's current certified state.

        One snapshot batch per shard (owned pages stored, foreign pages
        folded as digests): the ADS is history-independent, so it must
        land on the same certified root the single-node ISP published —
        the shard's own root check enforces it.  The same batch goes
        to the replicas through the logs, so they finish caught up.
        """
        writes, new_sizes, certificate = self.system.certified_state()
        for shard_id, shard in self.shards.items():
            log = self.logs[shard_id]
            for label, replica in self.replicas[shard_id]:
                log.attach(label, self._make_apply(label, replica))
            shard.sync_update(writes, new_sizes, certificate)
            log.append(writes, new_sizes, certificate)
            log.ship()

    def _make_apply(self, label: str, replica: ReplicaIsp):
        def apply(writes, new_sizes, certificate) -> None:
            server = self._replica_servers.get(label)
            if server is None:
                replica.sync_update(writes, new_sizes, certificate)
                return
            with server.lock:
                replica.sync_update(writes, new_sizes, certificate)

        return apply

    def _make_sync(self, shard_id: int):
        """One shard's slice of the router's ``sync_update`` fan-out."""

        def sync(writes, new_sizes, certificate) -> None:
            if faults.ACTIVE:
                try:
                    faults.fire(
                        "fleet.shard.crash",
                        shard=shard_id, version=certificate.version,
                    )
                except InjectedFault:
                    logger.warning(
                        "failpoint fleet.shard.crash: killing shard %d "
                        "at sync fan-out", shard_id,
                    )
                    self.kill_shard(shard_id)
                    raise
            server = self._shard_servers.get(shard_id)
            if server is None:
                raise FleetError(f"shard {shard_id} is down")
            shard = self.shards[shard_id]
            with server.lock:
                shard.sync_update(writes, new_sizes, certificate)
            log = self.logs[shard_id]
            log.append(writes, new_sizes, certificate)
            log.ship()

        return sync

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Fleet":
        if self._started:
            raise FleetError("fleet already started")
        self._catch_up()
        bootstrap = IspBootstrap.for_system(self.system)
        for shard_id, shard in self.shards.items():
            server = self.server_class(shard, self.host, 0)
            server.service_delay_s = self.service_delay_s
            server.start()
            self._shard_servers[shard_id] = server
            self._shard_ports[shard_id] = server.address[1]
        for shard_id, pairs in self.replicas.items():
            for label, replica in pairs:
                server = self.server_class(replica, self.host, 0)
                server.service_delay_s = self.service_delay_s
                server.start()
                self._replica_servers[label] = server
        shard_map = self._current_shard_map()
        self.isp = FleetIsp(
            shard_map,
            handle_factory=self._handle_factory,
            sync_fns={
                shard_id: self._make_sync(shard_id)
                for shard_id in self.shards
            },
            config=self.config,
            health=self.health,
        )
        router_class = (
            AsyncFleetRouterServer
            if issubclass(self.server_class, AsyncIspServer)
            else FleetRouterServer
        )
        self.router_server = router_class(
            self.isp, self.host, 0, bootstrap=bootstrap
        )
        self.router_server.start()
        # From here on, `advance_block` fans out to the fleet.
        self.system.isp = self.isp
        self._started = True
        return self

    @property
    def router_address(self) -> Endpoint:
        if self.router_server is None:
            raise FleetError("fleet is not started")
        return self.router_server.address

    def kill_shard(self, shard_id: int) -> None:
        """Stop one primary's server (its state survives for restart)."""
        server = self._shard_servers.get(shard_id)
        if server is None:
            return
        self._shard_servers[shard_id] = None
        server.stop()
        logger.warning("shard %d killed", shard_id)

    def down_shards(self) -> List[int]:
        """Shard ids whose primary server is currently stopped."""
        return [
            shard_id
            for shard_id, server in sorted(self._shard_servers.items())
            if server is None
        ]

    def restart_shard(self, shard_id: int) -> None:
        """Rebind a killed primary on its original port."""
        if self._shard_servers.get(shard_id) is not None:
            return
        shard = self.shards[shard_id]
        server = self.server_class(
            shard, self.host, self._shard_ports[shard_id]
        )
        server.service_delay_s = self.service_delay_s
        server.start()
        self._shard_servers[shard_id] = server
        logger.warning("shard %d restarted", shard_id)

    # ------------------------------------------------------------------
    # Failure domains: health tracking and replica promotion
    # ------------------------------------------------------------------

    def watch_health(
        self,
        miss_threshold: int = 2,
        auto_promote: bool = False,
        interval_s: Optional[float] = None,
    ) -> HealthTracker:
        """Attach a :class:`HealthTracker` over every fleet endpoint.

        The router starts skipping replicas declared down; with
        ``auto_promote`` a primary's up→down transition triggers
        :meth:`promote_replica` for its shard.  ``interval_s`` starts
        the background heartbeat loop; leave it ``None`` to drive the
        tracker by explicit ``probe_once()`` ticks (chaos schedules do,
        for deterministic heartbeat timing).

        With a background interval the probes are *traffic-aware*: an
        endpoint whose data-path handle answered a real RPC within the
        last interval is alive by construction and is not probed — the
        TCP connect is reserved for quiet endpoints, where it is the
        only liveness signal.  Manual-tick trackers always probe
        (chaos schedules want every tick observable).
        """
        if self.isp is None:
            raise FleetError("fleet is not started")
        on_down = self._auto_promote if auto_promote else None
        tracker = HealthTracker(
            miss_threshold=miss_threshold, on_down=on_down
        )
        self.health = tracker
        self.isp.health = tracker
        self._health_interval_s = interval_s
        self._sync_health()
        if interval_s is not None:
            tracker.start(interval_s)
        return tracker

    def _endpoint_roles(self) -> Dict[str, Tuple[str, int]]:
        """Current ``"host:port" -> (role, shard_id)`` membership."""
        roles: Dict[str, Tuple[str, int]] = {}
        for shard_id, port in self._shard_ports.items():
            roles[f"{self.host}:{port}"] = ("primary", shard_id)
        for shard_id, pairs in self.replicas.items():
            for label, _ in pairs:
                server = self._replica_servers.get(label)
                if server is None:
                    continue
                host, port = server.address
                roles[f"{host}:{port}"] = ("replica", shard_id)
        return roles

    def _sync_health(self) -> None:
        """Reconcile tracker membership with the current topology."""
        tracker = self.health
        if tracker is None:
            return
        roles = self._endpoint_roles()
        for key in tracker.attached():
            if key not in roles:
                tracker.detach(key)
        for key in roles:
            host, port_text = key.rsplit(":", 1)
            endpoint = (host, int(port_text))
            if self._health_interval_s:
                probe = self._traffic_probe(key, endpoint)
            else:
                probe = _tcp_probe(endpoint)
            tracker.attach(key, probe)

    def _traffic_probe(self, key: str, endpoint: Endpoint):
        """A heartbeat that lets data-path traffic speak first.

        A successful RPC within the probe interval proves the endpoint
        alive with real work; an active connect would only steal
        cycles from the requests it is busy serving (on a small host
        the accept alone preempts the server).  Only a quiet endpoint
        gets the TCP probe — there, it is the only liveness signal.
        """
        tcp = _tcp_probe(endpoint)
        freshness_s = self._health_interval_s

        def probe() -> None:
            isp = self.isp
            handle = isp.handle_for(key) if isp is not None else None
            last_ok = getattr(handle, "last_ok_monotonic", None)
            if (
                last_ok is not None
                and time.monotonic() - last_ok < freshness_s
            ):
                return
            tcp()

        return probe

    def _auto_promote(self, key: str) -> None:
        role_shard = self._endpoint_roles().get(key)
        if role_shard is None or role_shard[0] != "primary":
            return
        shard_id = role_shard[1]
        try:
            self.promote_replica(shard_id)
        except FleetError as error:
            logger.warning(
                "auto-promotion for shard %d failed: %s",
                shard_id, error,
            )

    def promote_replica(
        self, shard_id: int, label: Optional[str] = None
    ) -> str:
        """Fail a shard over to one of its caught-up replicas.

        Picks ``label`` (or the first replica that accepts — each one
        certificate-gates itself, see
        :meth:`~repro.fleet.replication.ReplicaIsp.promote`), rewires
        the shard's server/log/sync plumbing around it, and installs a
        version-bumped :class:`ShardMap` on the router — bumping the
        routing *epoch*, so fleet sessions opened against the old
        topology abort typed instead of stitching across the failover.
        Returns the promoted replica's label.
        """
        if self.isp is None:
            raise FleetError("fleet is not started")
        pairs = self.replicas.get(shard_id, [])
        if not pairs:
            raise FleetError(
                f"shard {shard_id} has no replica to promote"
            )
        # The version the outgoing primary applied, and so shipped to
        # its log, gates promotion: a replica below it lags.  Not the
        # router's get_certificate, which falls back to any live member
        # — a lagging replica among them — when the primaries it asks
        # first are down or cooling off.
        expected_version = self.shards[shard_id].certificate.version
        chosen: Optional[Tuple[str, ReplicaIsp]] = None
        refusals: List[str] = []
        for candidate_label, replica in pairs:
            if label is not None and candidate_label != label:
                continue
            try:
                replica.promote(expected_version)
            except FleetError as error:
                refusals.append(str(error))
                continue
            chosen = (candidate_label, replica)
            break
        if chosen is None:
            raise FleetError(
                f"no replica of shard {shard_id} accepted promotion: "
                + ("; ".join(refusals) or f"label {label!r} not found")
            )
        new_label, new_primary = chosen
        # Retire the old primary (its server may already be dead).
        self.kill_shard(shard_id)
        server = self._replica_servers.pop(new_label)
        log = self.logs[shard_id]
        log.detach(new_label)
        self.replicas[shard_id] = [
            pair for pair in pairs if pair[0] != new_label
        ]
        self.shards[shard_id] = new_primary  # _make_sync resolves late
        self._shard_servers[shard_id] = server
        self._shard_ports[shard_id] = server.address[1]
        logger.warning(
            "shard %d failed over to %s at %s:%d",
            shard_id, new_label, server.address[0], server.address[1],
        )
        self._sync_health()
        self.isp.adopt_shard_map(self._current_shard_map())
        return new_label

    def _current_shard_map(self) -> ShardMap:
        version = 1 if self.isp is None else self.isp.shard_map.version + 1
        return ShardMap(
            version=version,
            strategy=self.strategy,
            shards=tuple(
                ShardDesc(
                    shard_id=shard_id,
                    primary=(self.host, self._shard_ports[shard_id]),
                    replicas=tuple(
                        self._replica_servers[label].address
                        for label, _ in self.replicas[shard_id]
                    ),
                )
                for shard_id in sorted(self.shards)
            ),
            bounds=self.bounds,
        )

    def stop(self) -> None:
        if self.health is not None:
            self.health.stop()
            self.health = None
        if self.router_server is not None:
            self.router_server.stop()
            self.router_server = None
        if self.isp is not None:
            self.isp.close()
            self.isp = None
        for shard_id, server in list(self._shard_servers.items()):
            if server is not None:
                server.stop()
            self._shard_servers[shard_id] = None
        for server in self._replica_servers.values():
            server.stop()
        self._replica_servers.clear()
        self.system.isp = self._original_isp
        self._started = False

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = ["Fleet"]
