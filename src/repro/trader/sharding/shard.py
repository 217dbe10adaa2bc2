"""One shard of the partitioned trader: a LocalTrader plus a replication role.

A shard owns the offers of the service types rendezvous-placed on it and
replicates every mutation to its replicas as a sequence-numbered delta
stream.  Replicas apply deltas in order, mirror the log (so a promoted
replica can keep replicating onward), and run the *lease-aware
anti-entropy* step on catch-up and promotion: any lease that lapsed
while the replica was dark is expired before it serves a single import.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from repro.context import CallContext
from repro.naming.refs import ServiceRef
from repro.telemetry.metrics import METRICS
from repro.trader.errors import DuplicateServiceType, OfferNotFound, TraderError
from repro.trader.offers import ServiceOffer
from repro.trader.service_types import ServiceType
from repro.trader.sharding.replication import (
    DeltaLog,
    MigrationSealed,
    ShardDelta,
    ShardingError,
)
from repro.trader.trader import ImportRequest, LocalTrader
from repro.trader.type_manager import TypeManager

ROLE_PRIMARY = "primary"
ROLE_REPLICA = "replica"

#: A replica push target: called with each new delta's wire form.
DeltaSink = Callable[[Dict[str, Any]], None]


class TraderShard:
    """A partition of the offer space behind a :class:`ShardRouter`.

    ``offer_prefix`` is shared across every shard of one logical trader,
    so the ids a shard mints are exactly the ids a single trader would
    mint (per-type counters make them independent of placement).
    ``shard_id`` keys the shard's own metrics and replication identity.
    """

    def __init__(
        self,
        shard_id: str,
        offer_prefix: str = "offer",
        role: str = ROLE_PRIMARY,
        type_manager: Optional[TypeManager] = None,
        seed: int = 0,
        dynamic_evaluator=None,
        clock=None,
        range_index: bool = True,
        base_seq: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.role = role
        self.trader = LocalTrader(
            trader_id=shard_id,
            type_manager=type_manager,
            seed=seed,
            dynamic_evaluator=dynamic_evaluator,
            clock=clock,
            offer_prefix=offer_prefix,
            range_index=range_index,
        )
        # Duck compat with ``LocalTrader`` for service wrappers that
        # configure their trader's clock/fan-out plumbing.
        self.clock = clock
        self.fanout_loop = None
        self.log = DeltaLog(base_seq)
        #: Replica-side high-water mark: the last delta folded in (equals
        #: ``log.last_seq`` except transiently inside ``apply_delta``).
        self.applied_seq = base_seq
        self.map_version = 0
        self._sinks: Dict[str, DeltaSink] = {}
        #: Live-resharding state, keyed by migration id.  Every record
        #: mutation is logged as a delta, so a promoted replica holds the
        #: same records — a migration survives the donor's primary.
        self.migrations: Dict[str, Dict[str, Any]] = {}
        #: Types sealed at migration FLIP: writes raise
        #: :class:`MigrationSealed` so the router forwards them to the
        #: new owner instead of mutating a partition that gave the type up.
        self.sealed_types: set = set()

    @property
    def types(self) -> TypeManager:
        """Delegated so ``TraderService`` can wrap a shard as its trader
        (a shard node serves the ordinary trader program too)."""
        return self.trader.types

    @property
    def offers(self):
        return self.trader.offers

    @property
    def dynamic_evaluator(self):
        return self.trader.dynamic_evaluator

    @dynamic_evaluator.setter
    def dynamic_evaluator(self, evaluator) -> None:
        self.trader.dynamic_evaluator = evaluator

    # -- shard-map distribution ------------------------------------------------

    def set_map(self, map_wire: Dict[str, Any]) -> bool:
        """Install the router's shard map; stale versions are refused."""
        version = map_wire["version"]
        if version < self.map_version:
            return False
        self.map_version = version
        return True

    # -- primary mutating surface ----------------------------------------------

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        self._require_primary("export")
        self._require_unsealed(service_type, "export")
        offer_id = self.trader.export(
            service_type, ref, properties, now, lease_seconds
        )
        offer = self.trader.offers.get(offer_id)
        self._log("export", {"offer": offer.to_wire()})
        return offer_id

    def withdraw(self, offer_id: str) -> ServiceOffer:
        self._require_primary("withdraw")
        self._require_unsealed(self._type_of_offer(offer_id), "withdraw")
        offer = self.trader.withdraw(offer_id)
        self._log("withdraw", {"offer_id": offer_id})
        return offer

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        self._require_primary("modify")
        self._require_unsealed(self._type_of_offer(offer_id), "modify")
        offer = self.trader.modify(offer_id, properties)
        # Replicate the *checked* properties, not the caller's raw dict.
        self._log(
            "modify", {"offer_id": offer_id, "properties": dict(offer.properties)}
        )
        return offer

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        self._require_primary("renew")
        self._require_unsealed(self._type_of_offer(offer_id), "renew")
        expires_at = self.trader.renew(offer_id, now)
        self._log("renew", {"offer_id": offer_id, "expires_at": expires_at})
        return expires_at

    def expire_offers(self, now: float) -> int:
        """Sweep lapsed leases; the sweep itself replicates as a delta.

        Types mid-absorption (an open ``in``-side migration) are
        shielded from the sweep: the donor is still authoritative for
        them and this shard's copy may lack renews that only arrive
        with the next replay batch — sweeping it here would lose the
        offer for good.  Donor-driven expiry still lands through the
        type-scoped ``migrate_expire`` replay, and the coordinator runs
        an unshielded type sweep at FLIP, when the copy is final.
        """
        removed = self._shielded_sweep(now)
        if removed and self.role == ROLE_PRIMARY:
            self._log("expire", {"now": now})
        return removed

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> None:
        self._require_primary("add_type")
        self.trader.add_type(service_type, now)
        self._log("add_type", {"type": service_type.to_wire(), "now": now})

    def remove_type(self, name: str) -> bool:
        self._require_primary("remove_type")
        removed = self.trader.remove_type(name)
        self._log("remove_type", {"name": name})
        return removed

    def mask_type(self, name: str) -> None:
        self._require_primary("mask_type")
        self.trader.mask_type(name)
        self._log("mask_type", {"name": name})

    # -- read surface (any role) -----------------------------------------------

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, Any]]:
        return self.trader.import_wire(request_wire, now, ctx)

    def import_offers(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        """:meth:`import_wire` without the wire copies, for an in-process
        router: the offers are the store's own and must not be mutated."""
        try:
            return self.trader.import_(ImportRequest.from_wire(request_wire), now, ctx)
        except TraderError:
            return []

    def import_(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        return self.trader.import_(request, now, ctx)

    def list_offers(self) -> List[ServiceOffer]:
        return self.trader.offers.all()

    def status(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "role": self.role,
            "applied_seq": self.applied_seq,
            "last_seq": self.log.last_seq,
            "map_version": self.map_version,
            "offers": len(self.trader.offers),
            "replicas": sorted(self._sinks),
            "migrations": sorted(self.migrations),
            "sealed_types": sorted(self.sealed_types),
        }

    # -- replication: primary side ----------------------------------------------

    def attach_replica(self, name: str, sink: DeltaSink) -> None:
        self._sinks[name] = sink

    def detach_replica(self, name: str) -> None:
        self._sinks.pop(name, None)

    def deltas_since(self, seq: int) -> List[Dict[str, Any]]:
        """Catch-up batch for a replica at ``seq`` (the SYNC op)."""
        return [delta.to_wire() for delta in self.log.since(seq)]

    def _log(self, op: str, data: Dict[str, Any]) -> None:
        delta = self.log.append(op, data, self.map_version)
        self.applied_seq = delta.seq
        METRICS.set_gauge("sharding.replication_seq", delta.seq, (self.shard_id,))
        for name, sink in list(self._sinks.items()):
            try:
                sink(delta.to_wire())
            except Exception:  # noqa: BLE001 - a dark replica must not fail writes
                METRICS.inc("sharding.push_failed", (self.shard_id, name))

    def _require_primary(self, op: str) -> None:
        if self.role != ROLE_PRIMARY:
            raise ShardingError(f"{self.shard_id}: {op} refused, shard is a replica")

    def _require_unsealed(self, service_type: str, op: str) -> None:
        if service_type and service_type in self.sealed_types:
            raise MigrationSealed(
                f"{self.shard_id}: {op} for {service_type!r} refused — the type "
                "was sealed at migration FLIP; the new owner serves it"
            )

    def _type_of_offer(self, offer_id: str) -> str:
        """The service type an offer id names (``prefix:type:n``), or ``""``."""
        prefix = self.trader.offers.prefix + ":"
        if offer_id.startswith(prefix):
            service_type, _, suffix = offer_id[len(prefix) :].rpartition(":")
            if service_type and suffix.isdigit():
                return service_type
        return ""

    # -- live resharding: the shard side of the migration protocol ----------------
    #
    # Every state change below is logged as a delta, so a replica promoted
    # mid-migration inherits the records, the snapshot cursor, and the
    # seal — the coordinator resumes against it as if nothing happened.

    def migrate_begin(self, migration_wire: Dict[str, Any], side: str) -> Dict[str, Any]:
        """Open a migration on this shard (``side`` = ``out`` donor /
        ``in`` recipient).  Idempotent: re-beginning an open migration
        returns the originally recorded snapshot coordinates, so a resumed
        coordinator never re-snapshots a moving world."""
        self._require_primary("migrate_begin")
        migration_id = migration_wire["migration_id"]
        record = self.migrations.get(migration_id)
        if record is None:
            record = {
                "migration_id": migration_id,
                "service_type": migration_wire["service_type"],
                "side": side,
                "peer": migration_wire.get("target" if side == "out" else "source", ""),
                "snapshot_seq": self.applied_seq,
                "offer_ids": [],
                "sealed": False,
                "absorbed": 0,
                "mint_floor": 0,
            }
            if side == "out":
                offers = self.trader.offers.of_types([record["service_type"]])
                record["offer_ids"] = sorted(
                    (offer.offer_id for offer in offers),
                    key=lambda offer_id: int(offer_id.rpartition(":")[2]),
                )
                # The donor's mint counter travels with the migration:
                # ids spent on offers withdrawn *before* the copy appear
                # in no snapshot and no tail delta, so the counter is the
                # only way the recipient learns they are taken.
                record["mint_floor"] = self.trader.offers.minted(
                    record["service_type"]
                )
            else:
                record["mint_floor"] = int(
                    migration_wire.get("extra", {}).get("mint_floor", 0)
                )
            self._do_migrate_begin(record)
            self._log("migrate_begin", {"record": dict(record)})
        return {
            "migration_id": migration_id,
            "snapshot_seq": record["snapshot_seq"],
            "offer_ids": list(record["offer_ids"]),
            "count": len(record["offer_ids"]),
            "mint_floor": record.get("mint_floor", 0),
        }

    def migrate_chunk_out(
        self, migration_id: str, cursor: int, limit: int
    ) -> Dict[str, Any]:
        """One copy chunk off the donor's begin-time id snapshot.  Offers
        withdrawn or expired since begin are skipped — their deltas replay
        during CATCH_UP.  Pure read: nothing is logged."""
        self._require_primary("migrate_chunk_out")
        record = self._migration_record(migration_id, "out")
        offer_ids = record["offer_ids"]
        window = offer_ids[cursor : cursor + limit]
        offers = []
        for offer_id in window:
            try:
                offers.append(self.trader.offers.get(offer_id).to_wire())
            except OfferNotFound:
                continue  # withdrawn/expired after begin: replays as a delta
        next_cursor = cursor + len(window)
        return {
            "offers": offers,
            "next_cursor": next_cursor,
            "done": next_cursor >= len(offer_ids),
        }

    def migrate_chunk_in(
        self, migration_id: str, offers_wire: List[Dict[str, Any]]
    ) -> int:
        """Absorb one copied chunk on the recipient; returns how many
        offers were new.  Idempotent: a re-sent chunk absorbs nothing and
        logs nothing, so crash-resume never duplicates an offer or a
        delta.  Absorbed ids burn the per-type counters (``_note_minted``
        inside ``OfferStore.add``) — the recipient can never re-mint."""
        self._require_primary("migrate_chunk_in")
        record = self._migration_record(migration_id, "in")
        fresh = []
        for wire in offers_wire:
            if not self._has_offer(wire["offer_id"]):
                fresh.append(wire)
        if fresh:
            self._do_migrate_in(record, fresh)
            self._log("migrate_in", {"migration_id": migration_id, "offers": fresh})
        return len(fresh)

    def migrate_replay(
        self, migration_id: str, deltas_wire: List[Dict[str, Any]]
    ) -> int:
        """Replay a filtered donor delta tail onto the recipient, in order.

        Each donor delta is translated to a local mutation *and* re-logged
        as this primary's own delta, so the recipient's replicas converge
        too.  Every translation is idempotent (absolute lease times,
        tolerated-missing offers), so a resumed coordinator may replay a
        batch twice without harm — and a renew replayed after the lease
        already lapsed sets the same absolute expiry, never extends it.
        """
        self._require_primary("migrate_replay")
        record = self._migration_record(migration_id, "in")
        applied = 0
        for delta_wire in deltas_wire:
            op, data = delta_wire["op"], delta_wire.get("data", {})
            if op == "export":
                wire = data["offer"]
                if not self._has_offer(wire["offer_id"]):
                    self._do_migrate_in(record, [wire])
                    self._log(
                        "migrate_in", {"migration_id": migration_id, "offers": [wire]}
                    )
            elif op == "withdraw":
                if self._has_offer(data["offer_id"]):
                    self.trader.offers.remove(data["offer_id"])
                    self._log("withdraw", {"offer_id": data["offer_id"]})
            elif op == "modify":
                if self._has_offer(data["offer_id"]):
                    self.trader.offers.replace_properties(
                        data["offer_id"], data["properties"]
                    )
                    self._log("modify", dict(data))
            elif op == "renew":
                if self._has_offer(data["offer_id"]):
                    self.trader.offers.get(data["offer_id"]).expires_at = data[
                        "expires_at"
                    ]
                    self._log("renew", dict(data))
            elif op == "expire":
                # The donor's sweep was global; here it is scoped to the
                # moving type so the recipient's own offers keep their
                # revive-before-sweep grace untouched.
                evicted = self._sweep_type(record["service_type"], data["now"])
                if evicted:
                    self._log(
                        "migrate_expire",
                        {"service_type": record["service_type"], "now": data["now"]},
                    )
            else:
                continue  # type management broadcasts router-side; migrate_* is local
            applied += 1
        return applied

    def migrate_flip(self, migration_id: str) -> Dict[str, Any]:
        """Seal the moving type on the donor: after this, no new delta for
        it can ever appear, so the tail the coordinator reads next is
        final.  Idempotent — a resumed FLIP re-reads the (unchanged) tail.
        Returns the donor's log high-water mark."""
        self._require_primary("migrate_flip")
        record = self._migration_record(migration_id, "out")
        if not record["sealed"]:
            self._do_migrate_flip(record)
            self._log("migrate_flip", {"migration_id": migration_id})
        return {"final_seq": self.applied_seq}

    def migrate_done(self, migration_id: str) -> int:
        """Close the record on either end.  On the donor (``out``) the
        moved type's offers are dropped (they live on the recipient now —
        rehoming, not expiry) and the seal stays: a straggler write must
        keep being forwarded, never absorbed.  On the recipient (``in``)
        the offers stay, the absorption shield lifts, and normal lease
        sweeps take over."""
        self._require_primary("migrate_done")
        record = self.migrations.get(migration_id)
        if record is None:
            return 0  # already completed (crash between done and checkpoint)
        service_type = record["service_type"]
        side = record["side"]
        dropped = self._do_migrate_done(migration_id, service_type, side)
        self._log(
            "migrate_done",
            {
                "migration_id": migration_id,
                "service_type": service_type,
                "side": side,
            },
        )
        return dropped

    def migrate_abort(self, migration_id: str) -> bool:
        """Roll a not-yet-flipped migration back: the donor unseals and
        keeps serving; the recipient drops every copied offer (ownership
        is exclusive, so all of the type's offers there are copies)."""
        self._require_primary("migrate_abort")
        record = self.migrations.get(migration_id)
        if record is None:
            return False
        self._do_migrate_abort(record)
        self._log(
            "migrate_abort",
            {
                "migration_id": migration_id,
                "service_type": record["service_type"],
                "side": record["side"],
            },
        )
        return True

    def migrate_status(self, migration_id: str) -> Dict[str, Any]:
        record = self.migrations.get(migration_id)
        return dict(record) if record is not None else {}

    # The ``_do_*`` helpers mutate without logging: the primary methods
    # above log after calling them, and ``_apply`` calls them directly so
    # replicas fold the same mutations in from the delta stream.

    def _do_migrate_begin(self, record: Dict[str, Any]) -> None:
        self.migrations[record["migration_id"]] = dict(record)
        if record["side"] == "in":
            # The type may be coming *back* to a shard that once gave it
            # up — receiving it again lifts the old seal.
            self.sealed_types.discard(record["service_type"])
            # Burn the donor's mint counter: runs through ``_apply`` too,
            # so a promoted replica inherits the floor from the delta log.
            self.trader.offers.burn_to(
                record["service_type"], int(record.get("mint_floor", 0))
            )

    def _do_migrate_in(
        self, record: Dict[str, Any], offers_wire: List[Dict[str, Any]]
    ) -> None:
        for wire in offers_wire:
            self.trader.offers.add(ServiceOffer.from_wire(wire))
        record["absorbed"] = record.get("absorbed", 0) + len(offers_wire)

    def _do_migrate_flip(self, record: Dict[str, Any]) -> None:
        record["sealed"] = True
        self.sealed_types.add(record["service_type"])

    def _do_migrate_done(
        self, migration_id: str, service_type: str, side: str = "out"
    ) -> int:
        dropped = 0
        if side == "out":
            dropped = self._drop_type_offers(service_type)
            self.sealed_types.add(service_type)
        self.migrations.pop(migration_id, None)
        return dropped

    def _do_migrate_abort(self, record: Dict[str, Any]) -> None:
        if record["side"] == "in":
            self._drop_type_offers(record["service_type"])
        else:
            self.sealed_types.discard(record["service_type"])
        self.migrations.pop(record["migration_id"], None)

    def _migration_record(self, migration_id: str, side: str) -> Dict[str, Any]:
        record = self.migrations.get(migration_id)
        if record is None or record["side"] != side:
            raise ShardingError(
                f"{self.shard_id}: no open {side!r}-side migration {migration_id!r}"
            )
        return record

    def _has_offer(self, offer_id: str) -> bool:
        try:
            self.trader.offers.get(offer_id)
        except OfferNotFound:
            return False
        return True

    def _absorbing_types(self) -> set:
        """Types with an open ``in``-side migration: shielded from this
        shard's own lease sweeps until the record closes."""
        return {
            record["service_type"]
            for record in self.migrations.values()
            if record.get("side") == "in" and record.get("service_type")
        }

    def _shielded_sweep(self, now: float) -> int:
        shielded = self._absorbing_types()
        if not shielded:
            return self.trader.expire_offers(now)
        doomed = [
            offer.offer_id
            for offer in self.trader.offers.all()
            if offer.service_type not in shielded and offer.expired(now)
        ]
        for offer_id in doomed:
            self.trader.offers.remove(offer_id)
        if doomed:
            METRICS.inc(
                "trader.offers.expired",
                (self.trader.trader_id, "swept"),
                amount=len(doomed),
            )
        return len(doomed)

    def _sweep_type(self, service_type: str, now: float) -> int:
        expired = [
            offer.offer_id
            for offer in self.trader.offers.of_types([service_type])
            if offer.expired(now)
        ]
        for offer_id in expired:
            self.trader.offers.remove(offer_id)
        return len(expired)

    def _drop_type_offers(self, service_type: str) -> int:
        moved = [
            offer.offer_id for offer in self.trader.offers.of_types([service_type])
        ]
        for offer_id in moved:
            self.trader.offers.remove(offer_id)
        return len(moved)

    # -- replication: replica side -----------------------------------------------

    def apply_delta(self, delta_wire: Dict[str, Any]) -> bool:
        """Fold one pushed delta in; False = out of order, caller should SYNC.

        Duplicates (at or below ``applied_seq``) are acknowledged without
        re-applying, so a primary may safely re-push after a timeout.
        """
        delta = ShardDelta.from_wire(delta_wire)
        if delta.seq <= self.applied_seq:
            return True
        if delta.seq != self.applied_seq + 1:
            METRICS.inc("sharding.apply_gap", (self.shard_id,))
            return False
        self._apply(delta)
        self.log.record(delta)
        self.applied_seq = delta.seq
        if delta.map_version > self.map_version:
            self.map_version = delta.map_version
        METRICS.set_gauge("sharding.replication_seq", delta.seq, (self.shard_id,))
        return True

    def sync_from(self, fetch: Callable[[int], List[Dict[str, Any]]], now: float) -> int:
        """Pull-and-apply everything after ``applied_seq``, then run the
        lease-aware anti-entropy step: leases that lapsed while this
        replica was dark are expired before it can serve them."""
        deltas = fetch(self.applied_seq)
        for delta_wire in deltas:
            if not self.apply_delta(delta_wire):
                raise ShardingError(
                    f"{self.shard_id}: non-contiguous sync batch at "
                    f"{delta_wire.get('seq')}"
                )
        METRICS.inc("sharding.syncs", (self.shard_id,))
        self._shielded_sweep(now)
        return len(deltas)

    def promote(self, now: float) -> int:
        """Replica → primary.  Expires every lease that lapsed before the
        promotion instant — the write path this shard now serves must
        never hand out an offer whose exporter already went dark —
        and replicates that sweep onward.  Returns the evicted count."""
        self.role = ROLE_PRIMARY
        METRICS.inc("sharding.promotions", (self.shard_id,))
        return self.expire_offers(now)

    def _apply(self, delta: ShardDelta) -> None:
        op, data = delta.op, delta.data
        trader = self.trader
        if op == "export":
            trader.offers.add(ServiceOffer.from_wire(data["offer"]))
            trader.exports_accepted += 1
        elif op == "withdraw":
            try:
                trader.offers.remove(data["offer_id"])
            except OfferNotFound:
                pass  # lost a race with an expire delta: already gone
        elif op == "modify":
            trader.offers.replace_properties(data["offer_id"], data["properties"])
        elif op == "renew":
            try:
                trader.offers.get(data["offer_id"]).expires_at = data["expires_at"]
            except OfferNotFound:
                pass
        elif op == "expire":
            self._shielded_sweep(data["now"])
        elif op == "add_type":
            try:
                trader.types.add(
                    ServiceType.from_wire(data["type"]), data.get("now", 0.0)
                )
            except DuplicateServiceType:
                pass  # seeded out of band (shared snapshot): same definition
        elif op == "remove_type":
            trader.types.remove(data["name"])
        elif op == "mask_type":
            trader.types.mask(data["name"])
        elif op == "migrate_begin":
            self._do_migrate_begin(data["record"])
        elif op == "migrate_in":
            record = self.migrations.get(data["migration_id"])
            if record is None:  # tolerate a tail replayed past its done
                record = {"migration_id": data["migration_id"], "absorbed": 0}
            self._do_migrate_in(record, data["offers"])
        elif op == "migrate_expire":
            self._sweep_type(data["service_type"], data["now"])
        elif op == "migrate_flip":
            record = self.migrations.get(data["migration_id"])
            if record is not None:
                self._do_migrate_flip(record)
        elif op == "migrate_done":
            self._do_migrate_done(
                data["migration_id"], data["service_type"], data.get("side", "out")
            )
        elif op == "migrate_abort":
            record = self.migrations.get(data["migration_id"])
            if record is not None:
                self._do_migrate_abort(record)
        else:
            raise ShardingError(f"unknown delta op {op!r}")
