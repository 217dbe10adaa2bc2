"""Service offers and the trader's offer store."""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from typing import (  # noqa: F401
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.naming.refs import ServiceRef
from repro.telemetry.metrics import METRICS
from repro.trader.dynamic import is_dynamic
from repro.trader.errors import OfferNotFound


@dataclass
class ServiceOffer:
    """One exported offer: a reference plus characterising properties.

    ``expires_at`` implements offer lifetimes: an expired offer never
    matches an import and is reaped by the trader's expiry sweep.  ``None``
    means the offer lives until withdrawn.

    ``lease_seconds`` is the liveness lease granted at export: exporters
    refresh it via RENEW (the service runtime heartbeats it), and a lease
    that lapses — because the exporter crashed or lost connectivity —
    takes the offer out of matching without any explicit withdraw.
    """

    offer_id: str
    service_type: str
    ref: Dict[str, Any]  # ServiceRef wire form (kept marshallable)
    properties: Dict[str, Any] = field(default_factory=dict)
    exported_at: float = 0.0
    expires_at: Optional[float] = None
    lease_seconds: Optional[float] = None

    def service_ref(self) -> ServiceRef:
        return ServiceRef.from_wire(self.ref)

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def renew(self, now: float) -> Optional[float]:
        """Refresh the lease: a fresh ``lease_seconds`` of life from ``now``.

        A no-op for offers exported without a lease (they never expire).
        Returns the new ``expires_at``.
        """
        if self.lease_seconds is not None:
            self.expires_at = now + self.lease_seconds
        return self.expires_at

    def to_wire(self) -> Dict[str, Any]:
        return {
            "offer_id": self.offer_id,
            "service_type": self.service_type,
            "ref": dict(self.ref),
            "properties": dict(self.properties),
            "exported_at": self.exported_at,
            "expires_at": self.expires_at,
            "lease_seconds": self.lease_seconds,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ServiceOffer":
        return cls(
            offer_id=data["offer_id"],
            service_type=data["service_type"],
            ref=data["ref"],
            properties=data.get("properties", {}),
            exported_at=data.get("exported_at", 0.0),
            expires_at=data.get("expires_at"),
            lease_seconds=data.get("lease_seconds"),
        )


def _indexable(value: Any) -> bool:
    """Static, hashable values go in the equality index; the rest cannot.

    A dynamic-property marker's stored form is a dict, and its *resolved*
    value — the one constraints see — is unknown until import time, so
    such offers must always survive index pre-filtering.
    """
    if is_dynamic(value):
        return False
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _range_class(value: Any) -> Optional[str]:
    """Which sorted-index value class ``value`` belongs to, if any.

    Numbers (bools included — they *are* ints under comparison) share one
    total order; strings another.  Everything else — dynamic markers,
    containers — has no order a range conjunct could exploit: comparing
    such a value against a numeric or string literal raises ``TypeError``,
    which constraint semantics turn into ``False``, so leaving those
    offers out of a range pre-filter is *correct*, not just convenient.
    Dynamic markers are the one exception (their import-time value is
    unknown) and they are re-admitted via the unindexed fallback bucket.
    """
    if isinstance(value, bool) or isinstance(value, (int, float)):
        return "num"
    if isinstance(value, str):
        return "str"
    return None


class _SortedValues:
    """One sorted run of ``(value, seq, offer_id)`` plus a write overlay.

    Keeping the run exactly sorted on every insert would cost an O(n)
    memmove per export at million-offer scale, so writes land in an
    unsorted ``pending`` list and removals in a ``dead`` tombstone set;
    both fold into the sorted run when they grow past a threshold
    (geometric in the run length, so a bulk load compacts O(log n)
    times).  Range lookups bisect the run and linearly scan the small
    overlay; ordered walks force a full compaction first.
    """

    #: Overlay sizes above which a *query* forces compaction.  Mutation
    #: uses ``max(_QUERY_LIMIT, len(entries) >> 3)`` so bulk loads stay
    #: amortised-linear while point queries never scan a huge overlay.
    _QUERY_LIMIT = 512

    __slots__ = ("entries", "pending", "dead", "ids")

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, int, str]] = []
        self.pending: List[Tuple[Any, int, str]] = []
        self.dead: Set[Tuple[Any, int, str]] = set()
        self.ids: Dict[str, Tuple[Any, int]] = {}

    def add(self, value: Any, seq: int, offer_id: str) -> None:
        entry = (value, seq, offer_id)
        # Re-adding an entry that was just tombstoned (modify back to the
        # same value) must cancel the tombstone, not duplicate the entry.
        if entry in self.dead:
            self.dead.discard(entry)
        else:
            self.pending.append(entry)
        self.ids[offer_id] = (value, seq)
        limit = max(self._QUERY_LIMIT, len(self.entries) >> 3)
        if len(self.pending) > limit or len(self.dead) > limit:
            self.compact()

    def discard(self, value: Any, seq: int, offer_id: str) -> None:
        if self.ids.pop(offer_id, None) is None:
            return
        entry = (value, seq, offer_id)
        try:
            self.pending.remove(entry)
        except ValueError:
            self.dead.add(entry)

    def compact(self) -> None:
        if self.dead:
            dead = self.dead
            self.entries = [entry for entry in self.entries if entry not in dead]
            self.pending = [entry for entry in self.pending if entry not in dead]
            self.dead = set()
        if self.pending:
            # Timsort gallops over the already-sorted run, so this is an
            # O(n + k log k) merge, not a from-scratch sort.
            self.entries.extend(self.pending)
            self.entries.sort()
            self.pending = []

    def ids_matching(self, operator: str, literal: Any) -> Set[str]:
        """Live offer ids whose indexed value satisfies ``value OP literal``."""
        if len(self.pending) > self._QUERY_LIMIT or len(self.dead) > self._QUERY_LIMIT:
            self.compact()
        entries = self.entries
        # ``(x,)`` sorts before every ``(x, seq, id)`` and ``(x, inf)``
        # after (seq is always an int), giving clean half-open cuts.
        if operator == "<":
            start, stop = 0, bisect_left(entries, (literal,))
        elif operator == "<=":
            start, stop = 0, bisect_left(entries, (literal, float("inf")))
        elif operator == ">":
            start, stop = bisect_left(entries, (literal, float("inf"))), len(entries)
        else:  # ">="
            start, stop = bisect_left(entries, (literal,)), len(entries)
        dead = self.dead
        matched = {entry[2] for entry in entries[start:stop] if entry not in dead}
        for entry in self.pending:
            value = entry[0]
            try:
                if (
                    (operator == "<" and value < literal)
                    or (operator == "<=" and value <= literal)
                    or (operator == ">" and value > literal)
                    or (operator == ">=" and value >= literal)
                ):
                    matched.add(entry[2])
            except TypeError:  # mixed class within the overlay: no match
                continue
        return matched

    def walk(self, reverse: bool = False) -> Iterator[Tuple[Any, int, str]]:
        """Yield live entries ordered by ``(value, seq)``.

        For ``reverse`` the values descend but *ties keep ascending
        seq* — exactly the order a ``max`` preference ranks candidates
        (stable sort on the negated value preserves insertion order).
        """
        self.compact()
        entries = self.entries
        if not reverse:
            yield from entries
            return
        upper = len(entries)
        while upper:
            lower = upper - 1
            value = entries[lower][0]
            while lower and entries[lower - 1][0] == value:
                lower -= 1
            yield from entries[lower:upper]
            upper = lower


def _ranked(
    sorted_values: _SortedValues, position: int, reverse: bool
) -> Iterator[Tuple[Any, int, int, str]]:
    """One type's sorted walk keyed for the cross-type merge.

    A function, not an inline generator expression: the expression would
    read the caller's loop variable ``position`` late, when every stream
    has already been built, and cross-type ties would break on the last
    type's position instead of each stream's own.
    """
    for value, seq, offer_id in sorted_values.walk(reverse):
        yield (-value if reverse else value), position, seq, offer_id


class OfferStore:
    """Offers indexed by id, by service type, and by property equality.

    The equality index maps ``(service_type, property) -> value -> ids``
    so an import whose constraint pins ``Prop == literal`` can pre-filter
    candidates without evaluating the constraint against every offer.
    Values that cannot be indexed (unhashable, or dynamic-property
    markers whose import-time value is unknown) land in a per-property
    fallback set that every index lookup includes.
    """

    def __init__(self, prefix: str = "offer", range_index: bool = True) -> None:
        self._prefix = prefix
        self._by_id: Dict[str, ServiceOffer] = {}
        self._by_type: Dict[str, Dict[str, ServiceOffer]] = {}
        self._eq_index: Dict[Tuple[str, str], Dict[Any, Set[str]]] = {}
        self._unindexed: Dict[Tuple[str, str], Set[str]] = {}
        # Unindexed values per service type (every dynamic marker is one).
        self._unindexed_per_type: Dict[str, int] = {}
        self._range_index: Dict[Tuple[str, str], Dict[str, _SortedValues]] = {}
        self._range_enabled = range_index
        # Exactly what _index put where, per offer id.  _unindex replays
        # this record instead of re-deriving it from offer.properties,
        # which a caller may have mutated or aliased since indexing —
        # re-deriving would leave stale index entries behind.
        self._indexed: Dict[str, List[Tuple[Any, ...]]] = {}
        # Store-wide insertion sequence, stable across property modifies,
        # so sorted-index walks tie-break in exactly candidate order.
        self._order: Dict[str, int] = {}
        self._order_counter = itertools.count(1)
        self._counters: Dict[str, int] = {}

    @property
    def prefix(self) -> str:
        return self._prefix

    def new_offer_id(self, service_type: str) -> str:
        """Mint ``prefix:type:n`` with a counter *per service type*.

        Per-type numbering makes the id a pure function of the export
        sequence for that type — a sharded deployment that partitions by
        type then mints the same ids a single trader would, which is what
        lets parity tests compare outcome maps verbatim.
        """
        count = self._counters.get(service_type, 0)
        # skip ids already present (e.g. after a snapshot restore)
        while True:
            count += 1
            candidate = f"{self._prefix}:{service_type}:{count}"
            if candidate not in self._by_id:
                self._counters[service_type] = count
                return candidate

    def _note_minted(self, offer: ServiceOffer) -> None:
        """Advance the per-type counter past an id minted elsewhere.

        Offers arrive without a local mint on replicas (delta streams)
        and restores; the counter must reflect the highest id *ever
        seen*, not the ids currently present — a promoted replica that
        re-minted a withdrawn offer's id would fork from the id sequence
        an unsharded trader produces.
        """
        head, _, suffix = offer.offer_id.rpartition(":")
        if suffix.isdigit() and head == f"{self._prefix}:{offer.service_type}":
            number = int(suffix)
            if number > self._counters.get(offer.service_type, 0):
                self._counters[offer.service_type] = number

    def minted(self, service_type: str) -> int:
        """Highest id number ever minted (or seen) for ``service_type``."""
        return self._counters.get(service_type, 0)

    def burn_to(self, service_type: str, count: int) -> None:
        """Advance the per-type counter to at least ``count``.

        Ids up to ``count`` are spent even if no offer carrying them
        survives — a migration recipient burns the donor's counter at
        begin so it can never re-mint an id the donor already used,
        even when every such offer was withdrawn before the copy.
        """
        if count > self._counters.get(service_type, 0):
            self._counters[service_type] = count

    def add(self, offer: ServiceOffer) -> None:
        self._note_minted(offer)
        existing = self._by_id.get(offer.offer_id)
        if existing is not None:
            # Idempotent re-add (replication retry, snapshot double-apply):
            # drop the old generation's index entries first.
            self._unindex(existing)
            if existing.service_type != offer.service_type:
                self._drop_from_type(existing)
                # It joins the end of its new type: a fresh sequence keeps
                # ``_order`` in step with per-type insertion order.
                self._order.pop(offer.offer_id, None)
        self._by_id[offer.offer_id] = offer
        self._by_type.setdefault(offer.service_type, {})[offer.offer_id] = offer
        self._index(offer)

    def get(self, offer_id: str) -> ServiceOffer:
        offer = self._by_id.get(offer_id)
        if offer is None:
            raise OfferNotFound(f"no offer {offer_id!r}")
        return offer

    def remove(self, offer_id: str) -> ServiceOffer:
        offer = self.get(offer_id)
        del self._by_id[offer_id]
        self._drop_from_type(offer)
        self._unindex(offer)
        self._order.pop(offer_id, None)
        return offer

    def _drop_from_type(self, offer: ServiceOffer) -> None:
        per_type = self._by_type.get(offer.service_type, {})
        per_type.pop(offer.offer_id, None)
        if not per_type:
            self._by_type.pop(offer.service_type, None)

    def replace_properties(self, offer_id: str, properties: Dict[str, Any]) -> ServiceOffer:
        offer = self.get(offer_id)
        self._unindex(offer)
        offer.properties = dict(properties)
        self._index(offer)
        return offer

    def of_types(self, type_names: Iterable[str]) -> List[ServiceOffer]:
        offers: List[ServiceOffer] = []
        for type_name in type_names:
            offers.extend(self._by_type.get(type_name, {}).values())
        return offers

    def candidates(
        self,
        type_names: Iterable[str],
        equalities: Iterable[Tuple[str, Any]],
        ranges: Iterable[Tuple[str, str, Any]] = (),
    ) -> List[ServiceOffer]:
        """Offers of ``type_names`` that can still satisfy the conjuncts.

        For each equality ``(property, literal)`` pair the index keeps
        only offers whose stored value equals the literal; for each range
        ``(property, operator, literal)`` triple the sorted index keeps
        only offers whose stored value satisfies the bound.  Both always
        re-admit offers whose stored value is unindexable (dynamic
        markers), since the import-time value may yet match.  A superset
        of the true matches: callers still run the full constraint, they
        just run it over far fewer offers.
        """
        equalities = list(equalities)
        ranges = list(ranges)
        if equalities:
            METRICS.inc("offers.index_hits", (self._prefix,))
            return self._filter(type_names, self._eq_bucket, equalities)
        if ranges and self._range_enabled:
            METRICS.inc("offers.range_hits", (self._prefix,))
            return self._filter(type_names, self._range_bucket, ranges)
        # No exploitable conjunct: the full per-type scan.  Counted, so
        # benchmark output can say *why* an import was fast or slow.
        METRICS.inc("offers.fallback_scans", (self._prefix,))
        return self.of_types(type_names)

    def equality_bucket_size(
        self, type_names: Iterable[str], equalities: Iterable[Tuple[str, Any]]
    ) -> int:
        """How many offers :meth:`candidates` returns for ``equalities``.

        Exact, and O(bucket): the import planner weighs it against an
        ordered walk before committing to either path.
        """
        equalities = list(equalities)
        total = 0
        for type_name in type_names:
            per_type = self._by_type.get(type_name)
            if per_type:
                total += len(
                    self._surviving(type_name, per_type, self._eq_bucket, equalities)
                )
        return total

    def _surviving(self, type_name, per_type, bucket_for, conjuncts) -> Set[str]:
        surviving: Set[str] = set()
        for position, conjunct in enumerate(conjuncts):
            bucket = bucket_for(type_name, per_type, conjunct)
            surviving = bucket if position == 0 else surviving & bucket
            if not surviving:
                break
        return surviving

    def _filter(self, type_names, bucket_for, conjuncts) -> List[ServiceOffer]:
        offers: List[ServiceOffer] = []
        order = self._order
        for type_name in type_names:
            per_type = self._by_type.get(type_name)
            if not per_type:
                continue
            surviving = self._surviving(type_name, per_type, bucket_for, conjuncts)
            # The store-wide sequence runs in per-type insertion order, so
            # sorting the survivors keeps candidate order deterministic at
            # O(bucket log bucket) instead of a walk over the whole type.
            offers.extend(
                per_type[offer_id] for offer_id in sorted(surviving, key=order.__getitem__)
            )
        return offers

    def _eq_bucket(self, type_name, per_type, conjunct) -> Set[str]:
        prop, literal = conjunct
        bucket = set(self._unindexed.get((type_name, prop), ()))
        try:
            exact = self._eq_index.get((type_name, prop), {}).get(literal)
        except TypeError:  # unhashable literal: index can't help
            exact = set(per_type)
        if exact:
            bucket |= exact
        return bucket

    def _range_bucket(self, type_name, per_type, conjunct) -> Set[str]:
        prop, operator, literal = conjunct
        literal_class = _range_class(literal)
        if literal_class is None:  # e.g. list literal: index can't help
            return set(per_type)
        bucket = set(self._unindexed.get((type_name, prop), ()))
        sorted_values = self._range_index.get((type_name, prop), {}).get(literal_class)
        if sorted_values is not None:
            bucket |= sorted_values.ids_matching(operator, literal)
        return bucket

    def ordered_by(
        self, type_names: Iterable[str], prop: str, reverse: bool = False
    ) -> Iterator[ServiceOffer]:
        """Yield offers in exactly min/max-preference rank order.

        Offers with a numeric value for ``prop`` come first, ordered by
        ``(value, position)`` — position being the offer's index in the
        ``of_types`` candidate list — with values descending when
        ``reverse``; offers where the preference is undefined (missing
        property, non-numeric value) follow in candidate order, matching
        ``Preference.apply`` term for term.  Callers that only need the
        top-k stop early and skip sorting the whole candidate set.

        Only sound when no offer of these types carries a dynamic marker
        for ``prop`` (its resolved value could be numeric); callers must
        check :meth:`has_unindexed` first.
        """
        type_names = list(type_names)
        streams = []
        defined: List[Dict[str, Tuple[Any, int]]] = []
        for position, type_name in enumerate(type_names):
            sorted_values = self._range_index.get((type_name, prop), {}).get("num")
            if sorted_values is None or not sorted_values.ids:
                defined.append({})
                continue
            defined.append(sorted_values.ids)
            streams.append(_ranked(sorted_values, position, reverse))
        for _value, _position, _seq, offer_id in _heap_merge(*streams):
            offer = self._by_id.get(offer_id)
            if offer is not None:
                yield offer
        for position, type_name in enumerate(type_names):
            in_index = defined[position]
            for offer_id, offer in self._by_type.get(type_name, {}).items():
                if offer_id not in in_index:
                    yield offer

    def has_unindexed(self, type_name: str, prop: str) -> bool:
        """True when some offer's value for ``prop`` could not be indexed."""
        return bool(self._unindexed.get((type_name, prop)))

    def any_unindexed(self, type_names: Iterable[str]) -> bool:
        """True when some offer of these types holds a value the index
        could not take; False proves none of them holds a dynamic marker."""
        return any(name in self._unindexed_per_type for name in type_names)

    @property
    def range_index_enabled(self) -> bool:
        return self._range_enabled

    def all(self) -> List[ServiceOffer]:
        return list(self._by_id.values())

    def count_for_type(self, type_name: str) -> int:
        return len(self._by_type.get(type_name, {}))

    def __len__(self) -> int:
        return len(self._by_id)

    # -- index maintenance ---------------------------------------------------

    def _index(self, offer: ServiceOffer) -> None:
        offer_id = offer.offer_id
        seq = self._order.get(offer_id)
        if seq is None:
            seq = self._order[offer_id] = next(self._order_counter)
        recorded: List[Tuple[Any, ...]] = []
        for prop, value in offer.properties.items():
            key = (offer.service_type, prop)
            if _indexable(value):
                self._eq_index.setdefault(key, {}).setdefault(value, set()).add(
                    offer_id
                )
                recorded.append(("eq", key, value))
            else:
                self._unindexed.setdefault(key, set()).add(offer_id)
                per_type = self._unindexed_per_type
                per_type[key[0]] = per_type.get(key[0], 0) + 1
                recorded.append(("fb", key))
            if self._range_enabled:
                value_class = _range_class(value)
                if value_class is not None:
                    per_class = self._range_index.setdefault(key, {})
                    sorted_values = per_class.get(value_class)
                    if sorted_values is None:
                        sorted_values = per_class[value_class] = _SortedValues()
                    sorted_values.add(value, seq, offer_id)
                    recorded.append(("rg", key, value_class, value, seq))
        self._indexed[offer_id] = recorded

    def _unindex(self, offer: ServiceOffer) -> None:
        # Replay the record of what _index actually stored rather than
        # walking offer.properties again: the caller may have mutated or
        # aliased that dict since, and deriving removals from the current
        # values would strand the original entries in the index forever.
        offer_id = offer.offer_id
        for entry in self._indexed.pop(offer_id, ()):
            kind, key = entry[0], entry[1]
            if kind == "eq":
                per_value = self._eq_index.get(key)
                if per_value is None:
                    continue
                ids = per_value.get(entry[2])
                if ids is None:
                    continue
                ids.discard(offer_id)
                if not ids:
                    del per_value[entry[2]]
                if not per_value:
                    del self._eq_index[key]
            elif kind == "fb":
                remaining = self._unindexed_per_type[key[0]] - 1
                if remaining:
                    self._unindexed_per_type[key[0]] = remaining
                else:
                    del self._unindexed_per_type[key[0]]
                ids = self._unindexed.get(key)
                if ids is None:
                    continue
                ids.discard(offer_id)
                if not ids:
                    del self._unindexed[key]
            else:  # "rg"
                per_class = self._range_index.get(key)
                if per_class is None:
                    continue
                sorted_values = per_class.get(entry[2])
                if sorted_values is not None:
                    sorted_values.discard(entry[3], entry[4], offer_id)
