"""The trader: export, withdraw, modify, import — plus the RPC service.

Implements the compound ODP trader of §2.1: a computational interface for
exporters and importers, a management interface for the service-type
domain, and (via :mod:`repro.trader.federation`) links to peer traders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.context import CallContext, Clock, current_context, use_context
from repro.naming.refs import ServiceRef
from repro.net.endpoints import Address
from repro.rpc.client import RpcClient
from repro.rpc.codec import CODECS
from repro.rpc.errors import DeadlineExceeded, ServerShedding
from repro.rpc.server import RpcProgram, RpcServer
from repro.rpc.transport import SimTransport
from repro.sidl.builder import load_service_description
from repro.telemetry.log import LOG
from repro.telemetry.metrics import METRICS
from repro.trader.constraints import parse_constraint
from repro.trader.dynamic import resolve_properties
from repro.trader.errors import TraderError
from repro.trader.federation import (
    DEFAULT_FANOUT_WORKERS,
    TraderLink,
    fan_out,
    fan_out_async,
)
from repro.trader.offers import OfferStore, ServiceOffer
from repro.trader.policies import parse_preference
from repro.trader.service_types import ServiceType
from repro.trader.type_manager import TypeManager

TRADER_PROGRAM = 100200

_PROC_EXPORT = 1
_PROC_WITHDRAW = 2
_PROC_MODIFY = 3
_PROC_IMPORT = 4
_PROC_ADD_TYPE = 5
_PROC_REMOVE_TYPE = 6
_PROC_LIST_TYPES = 7
_PROC_GET_TYPE = 8
_PROC_LIST_OFFERS = 9
_PROC_MASK_TYPE = 10
_PROC_RENEW = 11

#: The trader's own interface, described by a SID like any other service
#: (§4.1).  Every procedure's compiled wire layouts derive from it, so a
#: parameter's name is its wire dict key.  ``any`` marks the values that
#: are dynamic by nature — property dicts and type definitions — and the
#: nullable lease fields and RENEW result: SIDL has no optional type, and
#: a tagged ``None`` or double costs the bytes an optional double would.
TRADER_SIDL = """
module COSMTrader {
  typedef NameList_t sequence<string>;
  typedef Offer_t struct {
    string offer_id;
    string service_type;
    service_reference ref;
    any properties;
    double exported_at;
    any expires_at;
    any lease_seconds;
  };
  typedef OfferList_t sequence<Offer_t>;

  interface COSM_Operations {
    string export(in string service_type, in service_reference ref,
                  in any properties, in any lifetime, in any lease_seconds);
    boolean withdraw(in string offer_id);
    boolean modify(in string offer_id, in any properties);
    OfferList_t import(in string service_type, in string constraint,
                       in string preference, in long long max_matches,
                       in boolean structural, in long long hop_limit,
                       in NameList_t visited);
    boolean add_type(in any type);
    boolean remove_type(in string name);
    NameList_t list_types();
    any get_type(in string name);
    OfferList_t list_offers();
    boolean mask_type(in string name);
    any renew(in string offer_id);
  };
};
"""
TRADER_SID = load_service_description(TRADER_SIDL)

#: Procedure number -> operation name (of the SID and of the handler).
_OPERATIONS = {
    _PROC_EXPORT: "export",
    _PROC_WITHDRAW: "withdraw",
    _PROC_MODIFY: "modify",
    _PROC_IMPORT: "import",
    _PROC_ADD_TYPE: "add_type",
    _PROC_REMOVE_TYPE: "remove_type",
    _PROC_LIST_TYPES: "list_types",
    _PROC_GET_TYPE: "get_type",
    _PROC_LIST_OFFERS: "list_offers",
    _PROC_MASK_TYPE: "mask_type",
    _PROC_RENEW: "renew",
}
for _proc, _name in _OPERATIONS.items():
    CODECS.register_operation(
        TRADER_PROGRAM, 1, _proc, TRADER_SID.interface.operation(_name)
    )


@dataclass
class ImportRequest:
    """An importer's query (step 2 of Fig. 1)."""

    service_type: str
    constraint: str = ""
    preference: str = ""
    max_matches: int = 0  # 0 = unlimited
    structural: bool = False  # also match structurally conforming types
    hop_limit: int = 0  # 0 = this trader only
    visited: List[str] = field(default_factory=list)

    def to_wire(self) -> Dict[str, Any]:
        return {
            "service_type": self.service_type,
            "constraint": self.constraint,
            "preference": self.preference,
            "max_matches": self.max_matches,
            "structural": self.structural,
            "hop_limit": self.hop_limit,
            "visited": list(self.visited),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ImportRequest":
        return cls(
            service_type=data["service_type"],
            constraint=data.get("constraint", ""),
            preference=data.get("preference", ""),
            max_matches=data.get("max_matches", 0),
            structural=data.get("structural", False),
            hop_limit=data.get("hop_limit", 0),
            visited=list(data.get("visited", [])),
        )


class LocalTrader:
    """The trader's logic, independent of any transport."""

    def __init__(
        self,
        trader_id: str = "trader",
        type_manager: Optional[TypeManager] = None,
        seed: int = 0,
        dynamic_evaluator=None,
        fanout_workers: int = DEFAULT_FANOUT_WORKERS,
        clock: Optional[Clock] = None,
        offer_prefix: Optional[str] = None,
        range_index: bool = True,
    ) -> None:
        self.trader_id = trader_id
        self.types = type_manager or TypeManager()
        # ``offer_prefix`` decouples the minted offer-id namespace from
        # the trader's identity: shards of one logical trader share the
        # router's prefix so the ids they mint are indistinguishable from
        # a single trader's, while metrics stay keyed by trader_id.
        self.offers = OfferStore(
            prefix=offer_prefix or trader_id, range_index=range_index
        )
        self.links: Dict[str, TraderLink] = {}
        self.rng = random.Random(seed)
        # resolves dynamic-property markers at import time (ODP-style
        # late-bound attributes); None = dynamic properties never match
        self.dynamic_evaluator = dynamic_evaluator
        # Federated sweeps over 2+ links fan out on a bounded worker pool
        # (1 = always serial); ``clock`` feeds deadline splitting and the
        # per-link spans.  None freezes time at each import's ``now`` —
        # right for virtual-time tests, where budgets must not tick
        # between forwards; wall-clock traders pass their transport clock.
        self.fanout_workers = fanout_workers
        self.clock = clock
        # On virtual-time stacks concurrency comes from coroutines, not
        # threads: when set (by TraderService over a SimTransport), the
        # fan-out runs as tasks on this loop so links overlap in virtual
        # time while staying deterministic.
        self.fanout_loop = None
        self.exports_accepted = 0
        self.imports_served = 0

    # -- management interface ------------------------------------------------

    def add_type(self, service_type: ServiceType, now: float = 0.0) -> None:
        self.types.add(service_type, now)

    def remove_type(self, name: str) -> bool:
        return self.types.remove(name)

    def mask_type(self, name: str) -> None:
        self.types.mask(name)

    # -- exporter interface (step 1 of Fig. 1) ---------------------------------

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        now: float = 0.0,
        lease_seconds: Optional[float] = None,
    ) -> str:
        """Register a service offer; returns the offer id.

        ``lease_seconds`` grants a liveness lease: the offer stops
        matching at ``now + lease_seconds`` unless the exporter refreshes
        it via :meth:`renew` (the RENEW wire operation — service runtimes
        heartbeat it).  ``None`` keeps the historical behaviour: the
        offer lives until withdrawn.
        """
        declared = self.types.get(service_type)
        checked = declared.check_properties(properties)
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else dict(ref)
        offer = ServiceOffer(
            offer_id=self.offers.new_offer_id(service_type),
            service_type=service_type,
            ref=ref_wire,
            properties=checked,
            exported_at=now,
            expires_at=None if lease_seconds is None else now + lease_seconds,
            lease_seconds=lease_seconds,
        )
        self.offers.add(offer)
        self.exports_accepted += 1
        self._gauge_live_offers()
        return offer.offer_id

    def renew(self, offer_id: str, now: float = 0.0) -> Optional[float]:
        """Refresh an offer's lease; returns the new ``expires_at``.

        Renewing a lease that lapsed but was not yet swept revives the
        offer — the grace a slow heartbeat gets before
        :meth:`expire_offers` makes the eviction final.  Renewing an
        offer exported without a lease is a no-op (returns ``None``).
        Raises :class:`~repro.trader.errors.OfferNotFound` once the offer
        is withdrawn or swept, which tells the exporter to re-export.
        """
        offer = self.offers.get(offer_id)
        expires_at = offer.renew(now)
        METRICS.inc("trader.offers.renewed", (self.trader_id,))
        return expires_at

    def expire_offers(self, now: float) -> int:
        """Sweep lease-expired offers out of the store; returns the count.

        Matching already excludes expired offers lazily — the sweep is
        about memory and index hygiene: evicted offers leave the equality
        index as well, so a dead fleet stops occupying candidate buckets.
        """
        expired = [o.offer_id for o in self.offers.all() if o.expired(now)]
        for offer_id in expired:
            self.offers.remove(offer_id)
        if expired:
            METRICS.inc(
                "trader.offers.expired", (self.trader_id, "swept"), amount=len(expired)
            )
            self._gauge_live_offers()
            if LOG.active:
                for offer_id in expired:
                    LOG.event(
                        "trader.lease_expired",
                        level="warning",
                        at=now,
                        trader=self.trader_id,
                        offer=offer_id,
                        mode="swept",
                    )
        return len(expired)

    def withdraw(self, offer_id: str) -> ServiceOffer:
        offer = self.offers.remove(offer_id)
        self._gauge_live_offers()
        return offer

    def _gauge_live_offers(self) -> None:
        """Keep the live-offer gauge current for the STATS snapshot."""
        METRICS.set_gauge("trader.offers.live", len(self.offers), (self.trader_id,))

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        offer = self.offers.get(offer_id)
        declared = self.types.get(offer.service_type)
        checked = declared.check_properties(properties)
        return self.offers.replace_properties(offer_id, checked)

    # -- importer interface (steps 2-3 of Fig. 1) -------------------------------

    def import_(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        """Match offers; forward to linked traders within the hop budget.

        The hop budget and visited scope live on the
        :class:`~repro.context.CallContext`; the request's legacy
        ``hop_limit``/``visited`` fields are folded into the context when
        no explicit budget was set (the compatibility shim).  Without an
        explicit ``ctx`` the ambient request context — installed by the
        RPC server around the IMPORT handler — is used, so federated
        queries share one budget end to end.
        """
        ctx = self._import_context(request, ctx)
        self.imports_served += 1
        METRICS.inc("trader.imports", (self.trader_id,))
        constraint = parse_constraint(request.constraint)
        preference = parse_preference(request.preference)
        type_names = self.types.matching_types(
            request.service_type, structural=request.structural
        )
        fast = self._ordered_fast_path(request, constraint, preference, type_names, now)
        if fast is not None:
            return fast
        # Equality conjuncts pinned by the constraint pre-filter candidates
        # through the offer store's index; range conjuncts (ceilings and
        # floors) through the sorted index; no conjuncts = full type scan.
        candidates = self.offers.candidates(
            type_names, constraint.equality_conjuncts, constraint.range_conjuncts
        )
        matches = self._matches(candidates, constraint, now, type_names)
        # Under the default "first" preference a bounded import keeps the
        # first ``max_matches`` matches in candidate order — local offers
        # precede federated ones and the list is truncated — so it stops
        # evaluating candidates as soon as it has them, and skips the
        # federation sweep entirely when they are all local.  Ranking
        # preferences still see the full federated candidate set.
        bounded_first = request.max_matches > 0 and preference.kind == "first"
        matched = list(islice(matches, request.max_matches if bounded_first else None))
        if not (bounded_first and len(matched) >= request.max_matches):
            needed = (
                max(0, request.max_matches - len(matched)) if bounded_first else 0
            )
            matched.extend(self._federated_matches(request, ctx, now, needed=needed))
        unique: Dict[str, ServiceOffer] = {}
        for offer in matched:
            unique.setdefault(offer.offer_id, offer)
        ordered = preference.apply(list(unique.values()), self.rng)
        if request.max_matches > 0:
            ordered = ordered[: request.max_matches]
        return ordered

    def _matches(self, offers, constraint, now, type_names) -> Iterator[ServiceOffer]:
        """The live offers among ``offers`` that satisfy ``constraint``, lazily.

        Dynamic properties are resolved per offer: importers see the
        fresh values while the store keeps the markers.  When the store's
        index holds no unindexed value for any of ``type_names`` (the
        types ``offers`` come from), no offer can carry a marker and the
        resolution pass is skipped.
        """
        resolve = self.offers.any_unindexed(type_names)
        for offer in offers:
            if offer.expired(now):
                # Lazy exclusion: a lapsed lease stops matching before any
                # sweep runs, so importers never see a dead exporter.
                METRICS.inc("trader.offers.expired", (self.trader_id, "lazy"))
                if LOG.active:
                    LOG.event(
                        "trader.lease_expired",
                        level="warning",
                        at=now,
                        trader=self.trader_id,
                        offer=offer.offer_id,
                        mode="lazy",
                    )
                continue
            properties = offer.properties
            if resolve:
                properties = resolve_properties(properties, self.dynamic_evaluator)
            if constraint.evaluate(properties):
                if properties is not offer.properties:
                    offer = replace(offer, properties=properties)
                yield offer

    def _ordered_fast_path(
        self, request, constraint, preference, type_names, now
    ) -> Optional[List[ServiceOffer]]:
        """Top-k via the sorted index for ``min``/``max`` over one property.

        A bounded import ranked by a bare property reference need not
        score and sort every candidate: the store can walk offers in
        exactly preference-rank order, so matching stops as soon as
        ``max_matches`` offers satisfy the constraint.  Only taken when
        the ranking is provably identical to the general path — local
        offers only (federated merges need the full set), the sorted
        index is on, and no offer hides the property behind a dynamic
        marker (its resolved value could re-rank it) — and when the walk
        is expected to examine fewer offers than the equality bucket
        holds.  Returns None to decline.
        """
        if self.links or request.max_matches <= 0:
            return None
        prop = preference.key_property
        if prop is None or not self.offers.range_index_enabled:
            return None
        if any(self.offers.has_unindexed(name, prop) for name in type_names):
            return None
        if constraint.equality_conjuncts and not self._walk_is_cheaper(
            type_names, constraint.equality_conjuncts, request.max_matches
        ):
            return None
        METRICS.inc("trader.ordered_scans", (self.trader_id,))
        walk = self.offers.ordered_by(type_names, prop, reverse=preference.kind == "max")
        matches = self._matches(walk, constraint, now, type_names)
        return list(islice(matches, request.max_matches))

    def _walk_is_cheaper(self, type_names, equalities, wanted: int) -> bool:
        """Ordered walk or equality bucket: which examines fewer offers?

        The bucket path examines all ``B`` offers of the equality bucket.
        The walk meets bucket members at rate ``B/N`` among the ``N``
        offers of the queried types, so it expects to examine
        ``wanted·N/B`` offers before it holds ``wanted`` of them.  Both
        sizes are exact counts, so the choice needs no tuning constant.
        """
        bucket = self.offers.equality_bucket_size(type_names, equalities)
        total = sum(self.offers.count_for_type(name) for name in type_names)
        return wanted * total <= bucket * bucket

    def select_best(
        self,
        request: ImportRequest,
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> Optional[ServiceOffer]:
        """The "best possible" single offer as of ``now``, or None."""
        narrowed = ImportRequest(**{**request.__dict__, "max_matches": 1})
        offers = self.import_(narrowed, now, ctx)
        return offers[0] if offers else None

    def import_wire(
        self,
        request_wire: Dict[str, Any],
        now: float = 0.0,
        ctx: Optional[CallContext] = None,
    ) -> List[Dict[str, Any]]:
        """Wire-dict façade used by RPC handlers and federation links."""
        try:
            offers = self.import_(ImportRequest.from_wire(request_wire), now, ctx)
        except TraderError:
            # A peer may ask about types this trader never standardised.
            return []
        return [offer.to_wire() for offer in offers]

    def _import_context(
        self, request: ImportRequest, ctx: Optional[CallContext]
    ) -> CallContext:
        """Fold the legacy wire fields into the governing context."""
        if ctx is None:
            ctx = current_context()
        if ctx is None:
            return CallContext.background(
                hops=request.hop_limit, visited=tuple(request.visited)
            )
        hops = ctx.hops if ctx.hops is not None else request.hop_limit
        merged = tuple(dict.fromkeys(tuple(request.visited) + ctx.visited))
        return ctx.derive(hops=hops, visited=merged)

    def _federated_matches(
        self, request: ImportRequest, ctx: CallContext, now: float, needed: int = 0
    ) -> List[ServiceOffer]:
        """Sweep the federation links; ``needed > 0`` allows early exit.

        Concurrent by default: with ``fanout_workers > 1`` links fan out
        with the remaining deadline split across outstanding links (see
        :mod:`repro.trader.federation`) — as coroutine tasks on
        ``fanout_loop`` when one is installed (virtual-time sim stacks),
        on a bounded worker pool otherwise (wall-clock stacks).  The
        serial sweep remains only for ``fanout_workers=1`` and for
        *nested* hops on a sim stack (the loop is already running this
        import, so a nested fan-out continues inline); its budget checks
        stay frozen at the import's ``now``, so one slow peer cannot
        spend a budget that has already run out.
        """
        if not self.links:
            return []
        if not ctx.can_hop():
            # Links exist but the budget is spent: the query stops
            # travelling here.  Counted — hop exhaustion is the federated
            # search's principal truncation signal.
            METRICS.inc("trader.hop_exhausted", (self.trader_id,))
            return []
        if ctx.seen(self.trader_id):
            return []
        child = ctx.hop(self.trader_id)
        forwarded = request.to_wire()
        if child.hops is None:
            # Unbounded budget: let each link apply its own max_hops cap.
            forwarded.pop("hop_limit", None)
        else:
            forwarded["hop_limit"] = child.hops
        forwarded["visited"] = list(child.visited)
        forwarded["preference"] = ""  # peers return raw matches; we order
        forwarded["max_matches"] = 0
        links = list(self.links.values())
        clock = self.clock or (lambda: now)
        if self.fanout_workers > 1:
            loop = self.fanout_loop
            if loop is not None and not loop.is_running():
                wire_lists = loop.run_until_complete(
                    fan_out_async(
                        links, forwarded, child, clock,
                        workers=self.fanout_workers, needed=needed,
                    )
                )
                return self._offers_from(wire_lists)
            if loop is None:
                wire_lists = fan_out(
                    links, forwarded, child, clock,
                    workers=self.fanout_workers, needed=needed,
                )
                return self._offers_from(wire_lists)
            # loop is running: this is a nested hop inside an async
            # fan-out already in flight — continue serially inline.
        gathered: List[ServiceOffer] = []
        for position, link in enumerate(links):
            if ctx.expired(now):
                # budget spent: stop fanning out, return what we have
                for skipped in links[position:]:
                    METRICS.inc("federation.link", (skipped.name, "expired"))
                break
            if needed > 0 and len(gathered) >= needed:
                break  # enough candidates for a bounded import
            try:
                with child.span("federation", f"link {link.name}", clock):
                    results = link.forward(forwarded, child)
            except ServerShedding:
                # Overloaded peer: partial merge, counted as a load signal.
                METRICS.inc("federation.link", (link.name, "shed"))
                continue
            except DeadlineExceeded:
                # Budget lapsed mid-forward: an "expired" outcome, same
                # as the pre-flight skip — not an unreachable peer.
                METRICS.inc("federation.link", (link.name, "expired"))
                continue
            except Exception:  # noqa: BLE001 - unreachable peers are skipped
                METRICS.inc("federation.link", (link.name, "unreachable"))
                continue
            METRICS.inc("federation.link", (link.name, "ok"))
            gathered.extend(ServiceOffer.from_wire(item) for item in results)
        return gathered

    @staticmethod
    def _offers_from(
        wire_lists: List[Optional[List[Dict[str, Any]]]]
    ) -> List[ServiceOffer]:
        return [
            ServiceOffer.from_wire(item)
            for wires in wire_lists
            if wires
            for item in wires
        ]

    # -- federation ------------------------------------------------------------

    def link(self, link: TraderLink) -> None:
        self.links[link.name] = link

    def link_local(self, peer: "LocalTrader", max_hops: int = 8) -> None:
        """Convenience: federate with a co-located trader instance."""
        self.link(TraderLink(peer.trader_id, peer.import_wire, max_hops))

    def unlink(self, name: str) -> bool:
        return self.links.pop(name, None) is not None


class TraderService:
    """RPC wrapper exposing a :class:`LocalTrader` (the Fig. 6 box)."""

    def __init__(
        self,
        server: RpcServer,
        trader: Optional[LocalTrader] = None,
        client: Optional[RpcClient] = None,
        now=lambda: 0.0,
    ) -> None:
        self.trader = trader or LocalTrader()
        self._client = client
        self._now = now
        if client is not None and self.trader.dynamic_evaluator is None:
            from repro.trader.dynamic import BindingEvaluator

            self.trader.dynamic_evaluator = BindingEvaluator(client)
        self._async_client = None
        if client is not None:
            if isinstance(client.transport, SimTransport):
                # Virtual-time concurrency: fan-out runs as coroutine
                # tasks on the clock's shared event loop, with federated
                # forwards issued by an async side-car client.  The
                # side-car binds to the *same simulated host*, so
                # partitions and crashes cut it exactly as they cut the
                # sync client — chaos scenarios see one node, not two.
                from repro.net.aioclock import loop_for
                from repro.rpc.aio import AsyncRpcClient

                network = client.transport.network
                self.trader.fanout_loop = loop_for(network.clock)
                self._async_client = AsyncRpcClient(
                    SimTransport(network, client.transport.local_address.host),
                    timeout=client.timeout,
                    retries=client.retries,
                )
            if self.trader.clock is None:
                self.trader.clock = client.transport.now
        program = RpcProgram(TRADER_PROGRAM, 1, "trader")
        for proc, name in _OPERATIONS.items():
            program.register(proc, getattr(self, f"_{name}"), name)
        server.serve(program)
        self.address = server.address

    def link_to(self, peer_address: Address, name: Optional[str] = None) -> None:
        """Federate with a remote trader over RPC."""
        if self._client is None:
            raise TraderError("TraderService needs an RpcClient to federate")
        client = self._client

        def forward(
            request_wire: Dict[str, Any], ctx: Optional[CallContext] = None
        ) -> List[Dict[str, Any]]:
            # Install the (decremented) context ambiently rather than
            # passing it outright: the federation client keeps its own —
            # typically tight — retry pacing for unreachable peers, while
            # inheriting the query's deadline cap, hop budget, and trace.
            with use_context(ctx if ctx is not None else current_context()):
                return client.call(
                    peer_address, TRADER_PROGRAM, 1, _PROC_IMPORT, request_wire
                )

        aforward = None
        if self._async_client is not None:
            aclient = self._async_client

            async def aforward(
                request_wire: Dict[str, Any], ctx: Optional[CallContext] = None
            ) -> List[Dict[str, Any]]:
                with use_context(ctx if ctx is not None else current_context()):
                    return await aclient.call(
                        peer_address, TRADER_PROGRAM, 1, _PROC_IMPORT, request_wire
                    )

        link_name = name or f"link:{peer_address.host}:{peer_address.port}"
        self.trader.link(TraderLink(link_name, forward, aforwarder=aforward))

    # -- handlers ---------------------------------------------------------------

    def _export(self, args) -> str:
        # ``lifetime`` is the wire field's older spelling of the lease: a
        # peer that predates ``lease_seconds`` sends only that.
        lease_seconds = args.get("lease_seconds")
        if lease_seconds is None:
            lease_seconds = args.get("lifetime")
        return self.trader.export(
            args["service_type"],
            args["ref"],
            args["properties"],
            self._now(),
            lease_seconds,
        )

    def _renew(self, args) -> Optional[float]:
        return self.trader.renew(args["offer_id"], self._now())

    def _withdraw(self, args) -> bool:
        self.trader.withdraw(args["offer_id"])
        return True

    def _modify(self, args) -> bool:
        self.trader.modify(args["offer_id"], args["properties"])
        return True

    def _import(self, args) -> List[Dict[str, Any]]:
        return self.trader.import_wire(args, self._now())

    def _add_type(self, args) -> bool:
        self.trader.add_type(ServiceType.from_wire(args["type"]), self._now())
        return True

    def _remove_type(self, args) -> bool:
        return self.trader.remove_type(args["name"])

    def _mask_type(self, args) -> bool:
        self.trader.mask_type(args["name"])
        return True

    def _list_types(self, args) -> List[str]:
        return self.trader.types.names()

    def _get_type(self, args) -> Dict[str, Any]:
        return self.trader.types.get(args["name"]).to_wire()

    def _list_offers(self, args) -> List[Dict[str, Any]]:
        return [offer.to_wire() for offer in self.trader.offers.all()]


class TraderClient:
    """Importer/exporter stub for a remote trader."""

    def __init__(self, client: RpcClient, address: Address) -> None:
        self._client = client
        self.address = address

    def export(
        self,
        service_type: str,
        ref: Union[ServiceRef, Dict[str, Any]],
        properties: Dict[str, Any],
        lease_seconds: Optional[float] = None,
    ) -> str:
        ref_wire = ref.to_wire() if isinstance(ref, ServiceRef) else ref
        return self._call(
            _PROC_EXPORT,
            {
                "service_type": service_type,
                "ref": ref_wire,
                "properties": properties,
                "lifetime": None,
                "lease_seconds": lease_seconds,
            },
        )

    def renew(self, offer_id: str) -> Optional[float]:
        """Refresh an offer's liveness lease (the RENEW heartbeat)."""
        return self._call(_PROC_RENEW, {"offer_id": offer_id})

    def withdraw(self, offer_id: str) -> bool:
        return self._call(_PROC_WITHDRAW, {"offer_id": offer_id})

    def modify(self, offer_id: str, properties: Dict[str, Any]) -> bool:
        return self._call(_PROC_MODIFY, {"offer_id": offer_id, "properties": properties})

    def import_(
        self,
        request: Union[ImportRequest, Dict[str, Any]],
        ctx: Optional[CallContext] = None,
    ) -> List[ServiceOffer]:
        wire = request.to_wire() if isinstance(request, ImportRequest) else request
        results = self._call(_PROC_IMPORT, wire, ctx)
        return [ServiceOffer.from_wire(item) for item in results]

    def select_best(
        self, request: ImportRequest, ctx: Optional[CallContext] = None
    ) -> Optional[ServiceOffer]:
        request = ImportRequest(**{**request.__dict__, "max_matches": 1})
        offers = self.import_(request, ctx)
        return offers[0] if offers else None

    def add_type(self, service_type: ServiceType) -> bool:
        return self._call(_PROC_ADD_TYPE, {"type": service_type.to_wire()})

    def remove_type(self, name: str) -> bool:
        return self._call(_PROC_REMOVE_TYPE, {"name": name})

    def mask_type(self, name: str) -> bool:
        return self._call(_PROC_MASK_TYPE, {"name": name})

    def list_types(self) -> List[str]:
        return self._call(_PROC_LIST_TYPES, {})

    def get_type(self, name: str) -> ServiceType:
        return ServiceType.from_wire(self._call(_PROC_GET_TYPE, {"name": name}))

    def list_offers(self) -> List[ServiceOffer]:
        return [ServiceOffer.from_wire(item) for item in self._call(_PROC_LIST_OFFERS, {})]

    def _call(self, proc: int, args, ctx: Optional[CallContext] = None) -> Any:
        if ctx is not None:
            with ctx.span("trader", f"proc {proc}", self._client.transport.now):
                return self._client.call(
                    self.address, TRADER_PROGRAM, 1, proc, args, context=ctx
                )
        return self._client.call(self.address, TRADER_PROGRAM, 1, proc, args)
