"""The shard router: the full trader surface over a partitioned offer space.

The router implements the same computational and management interface as
:class:`~repro.trader.trader.LocalTrader` — ``TraderService`` can wrap
either without knowing which it got.  EXPORT/WITHDRAW/MODIFY/RENEW route
to the one shard that owns the offer's service type (rendezvous placement
over the versioned :class:`ShardMap`); IMPORT fans out to the owner plus
every shard covering a subtype-widened query, over the same
deadline-ledger engine federation uses; management ops broadcast.

Each shard is a :class:`ShardHandle`: a primary backend, an ordered list
of replica backends, and a circuit breaker around the primary.  When the
breaker opens, the handle promotes the first replica — which expires any
leases that lapsed in the failover window before serving — and retries
the failed call there, so a primary crash costs availability only for
the instant of detection.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.context import CallContext, Clock, current_context
from repro.naming.refs import ServiceRef
from repro.rpc.errors import RemoteFault
from repro.rpc.resilience import STATE_OPEN, BreakerPolicy, CircuitBreaker
from repro.telemetry.metrics import METRICS
from repro.trader.errors import OfferNotFound, TraderError
from repro.trader.federation import DEFAULT_FANOUT_WORKERS, TraderLink, fan_out
from repro.trader.offers import ServiceOffer
from repro.trader.policies import parse_preference
from repro.trader.service_types import ServiceType
from repro.trader.sharding.hashing import ShardMap
from repro.trader.sharding.migration import DUAL_READ_PHASES, MigrationState
from repro.trader.sharding.replication import (
    MigrationSealed,
    ShardNotDrained,
    ShardUnavailable,
)
from repro.trader.sharding.shard import TraderShard
from repro.trader.trader import ImportRequest
from repro.trader.type_manager import TypeManager

#: Breaker policy for shard primaries: one hard failure opens the
#: circuit, because unlike a federation peer a shard has a warm replica
#: standing by — failing over immediately beats retrying a corpse.
SHARD_BREAKER = BreakerPolicy(failure_threshold=1, probe_interval=30.0)


class ShardHandle:
    """One shard's primary + replicas behind a circuit breaker."""

    def __init__(
        self,
        shard_id: str,
        primary: Any,
        replicas: Iterable[Any] = (),
        clock: Optional[Clock] = None,
        policy: BreakerPolicy = SHARD_BREAKER,
        router_id: str = "router",
    ) -> None:
        self.shard_id = shard_id
        self.primary = primary
        self.replicas: List[Any] = list(replicas)
        self._clock = clock or (lambda: 0.0)
        self._policy = policy
        self._router_id = router_id
        self.breaker = self._new_breaker()

    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(
            f"{self._router_id}/{self.shard_id}", self._policy, self._clock
        )

    def call(self, op: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke ``op`` on the primary, failing over when its breaker opens.

        Application errors (:class:`TraderError` — unknown type, missing
        offer…) are *successful* calls of the backend and propagate
        untouched; only infrastructure failures trip the breaker.
        """
        if self.breaker.allow():
            try:
                result = getattr(self.primary, op)(*args, **kwargs)
            except TraderError:
                self.breaker.record_success()
                raise
            except RemoteFault as fault:
                if fault.kind == "MigrationSealed":
                    # A remote donor refusing a sealed type is an
                    # application answer, not an outage: re-raise it
                    # typed so the router's forwarding window catches it.
                    self.breaker.record_success()
                    raise MigrationSealed(fault.detail) from fault
                self.breaker.record_failure()
                if self.breaker.state != STATE_OPEN:
                    raise
                return self._failover(op, args, kwargs, fault)
            except Exception as failure:  # noqa: BLE001 - backend is down
                self.breaker.record_failure()
                if self.breaker.state != STATE_OPEN:
                    raise  # transient; breaker still closed, let caller retry
                return self._failover(op, args, kwargs, failure)
            else:
                self.breaker.record_success()
                return result
        return self._failover(op, args, kwargs, None)

    def _failover(self, op, args, kwargs, failure: Optional[Exception]) -> Any:
        if not self.replicas:
            raise ShardUnavailable(
                f"shard {self.shard_id}: primary down, no replica to promote"
            ) from failure
        promoted = self.replicas.pop(0)
        now = self._clock()
        promoted.promote(now)
        self.primary = promoted
        self.breaker = self._new_breaker()
        METRICS.inc("sharding.failovers", (self._router_id, self.shard_id))
        return self.call(op, *args, **kwargs)

    def status(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "breaker": self.breaker.state_name,
            "replicas": len(self.replicas),
        }


class _RouterOffers:
    """Read-only aggregate of every shard's offers (duck-typing the
    corner of ``OfferStore`` that service wrappers and tools consume)."""

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    def all(self) -> List[ServiceOffer]:
        # While a migration is open the same offer lives on two shards:
        # dedup by id, the effective owner's copy winning.
        merged: Dict[str, ServiceOffer] = {}
        for shard_id in self._router.map.shard_ids:
            for offer in self._router.handle(shard_id).call("list_offers"):
                if (
                    offer.offer_id not in merged
                    or shard_id == self._router.effective_owner(offer.service_type)
                ):
                    merged[offer.offer_id] = offer
        return list(merged.values())

    def get(self, offer_id: str) -> ServiceOffer:
        for offer in self.all():
            if offer.offer_id == offer_id:
                return offer
        raise OfferNotFound(f"no offer {offer_id!r}")

    def __len__(self) -> int:
        return len(self.all())


class ShardRouter:
    """Route the trader surface over rendezvous-placed shards."""

    def __init__(
        self,
        router_id: str = "router",
        offer_prefix: Optional[str] = None,
        seed: int = 0,
        clock: Optional[Clock] = None,
        fanout_workers: int = DEFAULT_FANOUT_WORKERS,
        breaker_policy: BreakerPolicy = SHARD_BREAKER,
    ) -> None:
        self.trader_id = router_id
        self.offer_prefix = offer_prefix or router_id
        self.types = TypeManager()
        self.rng = random.Random(seed)
        self.map = ShardMap((), version=0)
        self.clock = clock
        self.fanout_workers = fanout_workers
        self.fanout_loop = None  # duck compat with LocalTrader (sim stacks)
        self.links: Dict[str, TraderLink] = {}  # routers do not federate (yet)
        self.dynamic_evaluator = None
        self._breaker_policy = breaker_policy
        self._handles: Dict[str, ShardHandle] = {}
        self.offers = _RouterOffers(self)
        self.exports_accepted = 0
        self.imports_served = 0
        #: Open migrations by service type: the dual-ownership window.
        self._migrations: Dict[str, MigrationState] = {}
        #: Routing pins that override rendezvous placement: a type whose
        #: map owner changed stays pinned to the shard actually holding
        #: its offers until a migration FLIPs it across.
        self._pins: Dict[str, str] = {}

    # -- topology ---------------------------------------------------------------

    def add_shard(self, shard_id: str, primary: Any, replicas: Iterable[Any] = ()) -> set:
        """Register a shard backend and re-version the map; returns the
        set of registered types whose rendezvous ownership moved.

        Backends are anything exposing the shard surface —
        :class:`TraderShard` in-process, or the RPC backend from
        :mod:`repro.trader.sharding.rpc` for a shard living elsewhere.

        Moved types are **pinned** to their old owner, so their resident
        offers keep being found and mutated exactly where they are; the
        returned set is the work-list a
        :class:`~repro.trader.sharding.migration.MigrationCoordinator`
        streams across (each migration's FLIP repoints the pin).
        """
        old_map = self.map if len(self.map) else None
        self._handles[shard_id] = ShardHandle(
            shard_id,
            primary,
            replicas,
            clock=self.clock,
            policy=self._breaker_policy,
            router_id=self.trader_id,
        )
        self.map = self.map.with_shard(shard_id)
        self._seed_types(self._handles[shard_id])
        moved: set = set()
        if old_map is not None:
            for service_type in self.types:
                name = service_type.name
                if name in self._pins or name in self._migrations:
                    continue  # routing is pinned: map movement is latent
                old_owner = old_map.owner(name)
                if old_owner != self.map.owner(name):
                    moved.add(name)
                    self._pins[name] = old_owner
        self._push_map()
        return moved

    def remove_shard(self, shard_id: str, force: bool = False) -> None:
        """Retire a shard.  Refused while the victim still holds offers —
        a removal would silently strand them — unless ``force=True``
        (accepting the loss; e.g. the shard's data is already gone).
        Drain it first: ``MigrationCoordinator.drain(shard_id)``.
        """
        handle = self._handles.get(shard_id)
        if handle is not None and not force:
            resident = handle.call("list_offers")
            if resident:
                raise ShardNotDrained(
                    f"shard {shard_id!r} still holds {len(resident)} offers; "
                    "drain it with a migration or pass force=True"
                )
        self._handles.pop(shard_id, None)
        self.map = self.map.without_shard(shard_id)
        for name, pin in list(self._pins.items()):
            if pin == shard_id or (len(self.map) and self.map.owner(name) == pin):
                del self._pins[name]
        self._push_map()

    def handle(self, shard_id: str) -> ShardHandle:
        return self._handles[shard_id]

    def _seed_types(self, handle: ShardHandle) -> None:
        """A shard joining a live router learns the registered types (in
        registration order, so supers always precede their subtypes)."""
        for service_type in self.types:
            name = service_type.name
            try:
                handle.call(
                    "add_type", service_type, self.types.registered_at(name) or 0.0
                )
            except TraderError:
                continue  # backend already knows it (rejoining shard)
            if self.types.masked(name):
                handle.call("mask_type", name)

    # -- live resharding: the dual-ownership window -------------------------------

    def migration_for(self, service_type: str) -> Optional[MigrationState]:
        return self._migrations.get(service_type)

    def open_migration(self, state: MigrationState) -> None:
        """Open (or re-open, on resume) the forwarding window for a type."""
        self._migrations[state.service_type] = state

    def close_migration(self, state: MigrationState) -> None:
        self._migrations.pop(state.service_type, None)

    def flip_type(self, state: MigrationState) -> None:
        """The atomic cutover: repoint the type's routing at the migration
        target and bump the shard-map version so every shard (and every
        delta logged from here on) sees the new ownership epoch.
        Idempotent — resuming a flipped migration re-applies at no cost."""
        name = state.service_type
        if self.map.owner(name) == state.target:
            changed = self._pins.pop(name, None) is not None
        else:
            changed = self._pins.get(name) != state.target
            self._pins[name] = state.target
        if changed:
            self.map = ShardMap(self.map.shard_ids, self.map.version + 1)
            self._push_map()

    def effective_owner(self, service_type: str) -> str:
        """Where the type's offers actually live *right now*: the open
        migration's authoritative side, else the pin, else the map."""
        state = self._migrations.get(service_type)
        if state is not None:
            return state.target if state.flipped else state.source
        pin = self._pins.get(service_type)
        if pin is not None:
            return pin
        return self.map.owner(service_type)

    def _forward_target(self, service_type: str, owner: str) -> Optional[str]:
        """Where to retry a write the sealed donor refused."""
        state = self._migrations.get(service_type)
        if state is not None:
            return state.target if owner != state.target else state.source
        pin = self._pins.get(service_type)
        if pin is not None and pin != owner:
            return pin
        mapped = self.map.owner(service_type)
        return mapped if mapped != owner else None

    def _route_write(self, op: str, service_type: str, *args: Any) -> Any:
        """Route a mutation to the effective owner; a ``MigrationSealed``
        refusal (the donor was flipped under the call) forwards to the
        other side of the window — the caller never sees the cutover."""
        owner = self.effective_owner(service_type)
        METRICS.inc("sharding.routed", (self.trader_id, owner, op))
        try:
            return self._handles[owner].call(op, *args)
        except MigrationSealed:
            fallback = self._forward_target(service_type, owner)
            if fallback is None:
                raise
            METRICS.inc(
                "sharding.migration.forwarded_calls",
                (self.trader_id, service_type),
            )
            METRICS.inc("sharding.routed", (self.trader_id, fallback, op))
            return self._handles[fallback].call(op, *args)

    def _push_map(self) -> None:
        METRICS.set_gauge("sharding.map_version", self.map.version, (self.trader_id,))
        map_wire = self.map.to_wire()
        for handle in self._handles.values():
            try:
                handle.call("set_map", map_wire)
            except Exception:  # noqa: BLE001 - a dark shard learns the map on sync
                METRICS.inc("sharding.map_push_failed", (self.trader_id,))

    # -- management interface (broadcast) ----------------------------------------

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> None:
        # The router's mirror first: it raises on duplicates/unknown
        # supers exactly as a single trader would, before any shard moves.
        self.types.add(service_type, now)
        for handle in self._handles.values():
            handle.call("add_type", service_type, now)

    def remove_type(self, name: str) -> bool:
        removed = self.types.remove(name)
        for handle in self._handles.values():
            handle.call("remove_type", name)
        return removed

    def mask_type(self, name: str) -> None:
        self.types.mask(name)
        for handle in self._handles.values():
            handle.call("mask_type", name)

    # -- exporter interface --------------------------------------------------------

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        offer_id = self._route_write(
            "export", service_type, service_type, ref, properties, now,
            lease_seconds,
        )
        self.exports_accepted += 1
        return offer_id

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        return self._route_write("renew", self._type_of_offer(offer_id), offer_id, now)

    def withdraw(self, offer_id: str) -> ServiceOffer:
        return self._route_write("withdraw", self._type_of_offer(offer_id), offer_id)

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        return self._route_write(
            "modify", self._type_of_offer(offer_id), offer_id, properties
        )

    def expire_offers(self, now: float) -> int:
        """Broadcast the lease sweep; each primary replicates its own."""
        return sum(
            self._handles[shard_id].call("expire_offers", now)
            for shard_id in self.map.shard_ids
        )

    def _type_of_offer(self, offer_id: str) -> str:
        """Offer ids are ``prefix:type:n`` — placement needs no lookup."""
        prefix = self.offer_prefix + ":"
        if offer_id.startswith(prefix):
            service_type, _, suffix = offer_id[len(prefix) :].rpartition(":")
            if service_type and suffix.isdigit():
                return service_type
        raise OfferNotFound(f"no offer {offer_id!r}")

    # -- importer interface ---------------------------------------------------------

    def import_(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        """Fan the query out to every covering shard; rank at the router.

        The router restores the single-trader candidate order — types in
        ``matching_types`` order, offers in per-type export order, both
        recoverable from the offer id — and applies the preference once,
        so ranking (and the rng behind ``random``) is bit-identical to an
        unsharded trader.

        Bounded queries with a deterministic preference are answered by
        **scatter-gather top-K**: ``max_matches`` and the preference are
        pushed down so each shard returns only its local top-K (riding
        the sorted-index fast path for ``min``/``max``), and the router
        re-ranks the union.  This is exact: every deterministic
        preference is a total order whose ties break on the canonical
        candidate order, and a shard's candidate order is the global one
        restricted to that shard — so the global top-K is contained in
        the union of the shards' local top-Ks.  ``random`` (rng over the
        full match set) and unbounded queries gather raw matches.
        """
        if ctx is None:
            ctx = current_context()
        if ctx is None:
            ctx = CallContext.background(
                hops=request.hop_limit, visited=tuple(request.visited)
            )
        self.imports_served += 1
        METRICS.inc("trader.imports", (self.trader_id,))
        preference = parse_preference(request.preference)
        type_names = self.types.matching_types(
            request.service_type, structural=request.structural
        )
        owners = self._covering_shards(type_names)
        forwarded = request.to_wire()
        if request.max_matches > 0 and preference.kind != "random":
            METRICS.inc("sharding.topk_pushdown", (self.trader_id,))
        else:
            forwarded["preference"] = ""  # shards return raw matches; we order
            forwarded["max_matches"] = 0
        forwarded["hop_limit"] = 0  # shards are partitions, not federation hops
        offer_lists = self._gather(owners, forwarded, ctx, now)
        # Merge with dual-ownership awareness: while a type is migrating,
        # both sides may return the same offer; the copy from the type's
        # *effective owner* wins, so a not-yet-replayed RENEW or MODIFY on
        # the other side is never observable — no stale mediation.
        merged: Dict[str, ServiceOffer] = {}
        for shard_id, offers in zip(owners, offer_lists):
            for offer in offers or ():
                if (
                    offer.offer_id not in merged
                    or shard_id == self.effective_owner(offer.service_type)
                ):
                    merged[offer.offer_id] = offer
        position = {name: index for index, name in enumerate(type_names)}
        candidates = sorted(
            merged.values(),
            key=lambda offer: (
                position.get(offer.service_type, len(position)),
                self._export_seq(offer.offer_id),
            ),
        )
        ordered = preference.apply(candidates, self.rng)
        if request.max_matches > 0:
            ordered = ordered[: request.max_matches]
        return ordered

    def _covering_shards(self, type_names: List[str]) -> List[str]:
        """The shards an import must ask: each queried type's effective
        owner, plus — for types inside a dual-ownership window — the other
        side of the migration (the double-read), appended after the
        authoritative owners so its rows only fill gaps in the merge."""
        owners: List[str] = []
        for name in type_names:
            owner = self.effective_owner(name)
            if owner not in owners:
                owners.append(owner)
        for name in type_names:
            state = self._migrations.get(name)
            if state is None or state.phase not in DUAL_READ_PHASES:
                continue
            other = state.source if state.flipped else state.target
            if other not in owners:
                owners.append(other)
        return owners

    def _gather(
        self,
        owners: List[str],
        forwarded: Dict[str, Any],
        ctx: CallContext,
        now: float,
    ) -> List[Optional[List[ServiceOffer]]]:
        """Each owner's matches, as offers: an in-process shard hands over
        its own, a remote one decodes its reply (``import_offers``)."""
        METRICS.inc(
            "sharding.fanout", (self.trader_id,), amount=max(len(owners), 1)
        )
        if len(owners) == 1 or self.fanout_workers <= 1:
            results: List[Optional[List[ServiceOffer]]] = []
            for shard_id in owners:
                results.append(
                    self._handles[shard_id].call("import_offers", forwarded, now, ctx)
                )
            return results
        clock = self.clock or (lambda: now)
        links = []
        for shard_id in owners:
            handle = self._handles[shard_id]

            def forward(wire, ctx=None, _handle=handle, _now=now):
                return _handle.call("import_offers", wire, _now, ctx)

            links.append(TraderLink(f"shard:{shard_id}", forward))
        return fan_out(links, forwarded, ctx, clock, workers=self.fanout_workers)

    def _export_seq(self, offer_id: str) -> int:
        suffix = offer_id.rpartition(":")[2]
        return int(suffix) if suffix.isdigit() else 0

    def select_best(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Optional[ServiceOffer]:
        narrowed = ImportRequest(**{**request.__dict__, "max_matches": 1})
        offers = self.import_(narrowed, now, ctx)
        return offers[0] if offers else None

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, Any]]:
        try:
            offers = self.import_(ImportRequest.from_wire(request_wire), now, ctx)
        except TraderError:
            return []
        return [offer.to_wire() for offer in offers]

    # -- introspection ----------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        return {
            "router_id": self.trader_id,
            "map_version": self.map.version,
            "shards": {
                shard_id: self._handles[shard_id].status()
                for shard_id in self.map.shard_ids
            },
            "migrations": {
                name: state.phase for name, state in sorted(self._migrations.items())
            },
            "pins": dict(sorted(self._pins.items())),
        }


def build_local_router(
    shard_ids: Iterable[str],
    replicas: int = 0,
    router_id: str = "router",
    offer_prefix: Optional[str] = None,
    seed: int = 0,
    clock: Optional[Clock] = None,
    fanout_workers: int = 1,
    breaker_policy: BreakerPolicy = SHARD_BREAKER,
    dynamic_evaluator=None,
    range_index: bool = True,
) -> ShardRouter:
    """An in-process sharded trader: N primaries, R replicas each, wired.

    Every primary pushes deltas straight into its replicas' ``apply_delta``;
    a push that finds the replica out of sequence falls back to a pull
    ``sync_from`` (which also runs the lease-expiry catch-up step).
    """
    router = ShardRouter(
        router_id=router_id,
        offer_prefix=offer_prefix,
        seed=seed,
        clock=clock,
        fanout_workers=fanout_workers,
        breaker_policy=breaker_policy,
    )
    for shard_id in shard_ids:
        primary = TraderShard(
            f"{router.trader_id}/{shard_id}",
            offer_prefix=router.offer_prefix,
            seed=seed,
            dynamic_evaluator=dynamic_evaluator,
            clock=clock,
            range_index=range_index,
        )
        shard_replicas = []
        for replica_index in range(replicas):
            replica = TraderShard(
                f"{router.trader_id}/{shard_id}-r{replica_index + 1}",
                offer_prefix=router.offer_prefix,
                seed=seed,
                dynamic_evaluator=dynamic_evaluator,
                clock=clock,
                range_index=range_index,
                role="replica",
            )
            primary.attach_replica(
                replica.shard_id, _push_with_sync(primary, replica, clock)
            )
            shard_replicas.append(replica)
        router.add_shard(shard_id, primary, shard_replicas)
    return router


def _push_with_sync(
    primary: TraderShard, replica: TraderShard, clock: Optional[Clock]
) -> Callable[[Dict[str, Any]], None]:
    def push(delta_wire: Dict[str, Any]) -> None:
        if not replica.apply_delta(delta_wire):
            now = clock() if clock is not None else 0.0
            replica.sync_from(primary.deltas_since, now)

    return push
