"""IP prefixes and longest-prefix-match tables.

A tiny, dependency-free IPv4 prefix layer used by the routing substrate: the
FIB performs longest-prefix match over announced prefixes, and traffic
descriptors (flow equivalence classes) carry destination prefixes that must
be matched against route announcements and the Rela prefix predicates.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from functools import lru_cache

from repro.errors import RoutingError


@dataclass(frozen=True, slots=True, order=True)
class Prefix:
    """An IPv4 prefix in CIDR form."""

    network: int
    length: int

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/24"`` into a Prefix."""
        try:
            net = ipaddress.IPv4Network(text, strict=False)
        except ValueError as exc:
            raise RoutingError(f"invalid IPv4 prefix {text!r}: {exc}") from exc
        return cls(network=int(net.network_address), length=net.prefixlen)

    @classmethod
    def coerce(cls, value: "Prefix | str") -> "Prefix":
        """Accept either a Prefix or a CIDR string (parse results are cached)."""
        if isinstance(value, Prefix):
            return value
        return _parse_cached(value)

    def __str__(self) -> str:
        network = self.network
        return (
            f"{network >> 24 & 255}.{network >> 16 & 255}."
            f"{network >> 8 & 255}.{network & 255}/{self.length}"
        )

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def contains(self, other: "Prefix | str") -> bool:
        """True when ``other`` is a (non-strict) subnet of this prefix."""
        other = Prefix.coerce(other)
        if other.length < self.length:
            return False
        shift = 32 - self.length
        return (other.network >> shift) == (self.network >> shift)

    def overlaps(self, other: "Prefix | str") -> bool:
        """True when the two prefixes share any address."""
        other = Prefix.coerce(other)
        return self.contains(other) or other.contains(self)

    def subnets(self, *, new_length: int) -> Iterator["Prefix"]:
        """Enumerate subnets of this prefix at the given length."""
        if new_length < self.length or new_length > 32:
            raise RoutingError(
                f"cannot split /{self.length} prefix into /{new_length} subnets"
            )
        count = 1 << (new_length - self.length)
        step = 1 << (32 - new_length)
        for index in range(count):
            yield Prefix(network=self.network + index * step, length=new_length)


@lru_cache(maxsize=65536)
def _parse_cached(text: str) -> Prefix:
    return Prefix.parse(text)


class PrefixTable:
    """A longest-prefix-match table mapping prefixes to arbitrary values.

    Lookups are served from a by-length index (prefix length → masked
    network → prefix) probed from the longest installed length downward, so
    a match costs one dict probe per distinct installed length instead of a
    scan over every entry — the difference between microseconds and
    milliseconds for the FIB-trace hot path.  The result is identical to the
    textbook linear scan: within one length at most one prefix can contain a
    destination, and the first (longest) length probed that hits wins.
    """

    def __init__(self) -> None:
        self._entries: dict[Prefix, object] = {}
        self._by_length: dict[int, dict[int, Prefix]] = {}
        self._lengths_desc: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, prefix: Prefix | str) -> bool:
        return Prefix.coerce(prefix) in self._entries

    def insert(self, prefix: Prefix | str, value: object) -> None:
        """Insert or replace the value stored for ``prefix``."""
        prefix = Prefix.coerce(prefix)
        self._entries[prefix] = value
        bucket = self._by_length.get(prefix.length)
        if bucket is None:
            bucket = self._by_length[prefix.length] = {}
            self._lengths_desc = tuple(sorted(self._by_length, reverse=True))
        bucket[prefix.network >> (32 - prefix.length) if prefix.length else 0] = prefix

    def remove(self, prefix: Prefix | str) -> None:
        """Remove an entry (missing entries are ignored)."""
        prefix = Prefix.coerce(prefix)
        if self._entries.pop(prefix, None) is None:
            return
        bucket = self._by_length.get(prefix.length)
        if bucket is not None:
            bucket.pop(prefix.network >> (32 - prefix.length) if prefix.length else 0, None)
            if not bucket:
                del self._by_length[prefix.length]
                self._lengths_desc = tuple(sorted(self._by_length, reverse=True))

    def exact(self, prefix: Prefix | str) -> object | None:
        """The value stored for exactly this prefix, if any."""
        return self._entries.get(Prefix.coerce(prefix))

    def lookup(self, destination: Prefix | str) -> object | None:
        """Longest-prefix match for a destination prefix (or address)."""
        prefix = self.lookup_prefix(destination)
        return self._entries[prefix] if prefix is not None else None

    def lookup_prefix(self, destination: Prefix | str) -> Prefix | None:
        """The matching prefix itself rather than its value."""
        destination = Prefix.coerce(destination)
        network = destination.network
        max_length = destination.length
        for length in self._lengths_desc:
            if length > max_length:
                continue
            hit = self._by_length[length].get(network >> (32 - length) if length else 0)
            if hit is not None:
                return hit
        return None

    def prefixes(self) -> list[Prefix]:
        """All prefixes in the table."""
        return list(self._entries)

    def entries_equal(self, other: "PrefixTable") -> bool:
        """Whether both tables hold identical (prefix, value) entries.

        One dict comparison — used to screen out provably-unchanged routers
        before any per-destination longest-prefix-match work.
        """
        return self._entries == other._entries

    def items(self) -> Iterable[tuple[Prefix, object]]:
        return self._entries.items()


def allocate_prefixes(base: str, count: int, *, new_length: int = 24) -> list[Prefix]:
    """Carve ``count`` subnets of ``new_length`` out of a base supernet.

    Used by the synthetic traffic generator to hand each destination region a
    block of customer prefixes.
    """
    base_prefix = Prefix.parse(base)
    subnets = []
    for index, subnet in enumerate(base_prefix.subnets(new_length=new_length)):
        if index >= count:
            break
        subnets.append(subnet)
    if len(subnets) < count:
        raise RoutingError(
            f"cannot allocate {count} /{new_length} prefixes from {base}"
        )
    return subnets
