"""Finite multisets over an ordered element domain."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping


class BagUnderflowError(ValueError):
    """Difference would produce a negative multiplicity."""

    def __init__(self, element):
        super().__init__(f"multiset underflow at {element!r}")
        self.element = element


class Bag:
    """Immutable multiset with positive natural multiplicities.

    Elements must be hashable and totally ordered.  Entries iterate in
    element order, so equal bags are structurally identical and render to
    identical text.  Zero-multiplicity entries are never stored.
    """

    __slots__ = ("_entries", "_items", "_render")

    def __init__(self, entries: Mapping | Iterable[tuple] = ()):
        data: dict = {}
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        for elem, count in pairs:
            if not isinstance(count, int) or isinstance(count, bool):
                raise TypeError(f"multiplicity of {elem!r} must be an int")
            if count < 0:
                raise ValueError(f"negative multiplicity {count} for {elem!r}")
            if count:
                data[elem] = data.get(elem, 0) + count
        self._entries = data
        self._items = None
        self._render = None

    @classmethod
    def of(cls, *elements) -> "Bag":
        """Bag from elements listed with repetition."""
        data: dict = {}
        for e in elements:
            data[e] = data.get(e, 0) + 1
        return cls(data)

    def items(self) -> tuple:
        """Entries as (element, multiplicity) pairs in element order."""
        if self._items is None:
            self._items = tuple(sorted(self._entries.items()))
        return self._items

    def elements(self) -> tuple:
        return tuple(e for e, _ in self.items())

    @property
    def size(self) -> int:
        """Total multiplicity (cardinality)."""
        return sum(self._entries.values())

    def __getitem__(self, elem) -> int:
        return self._entries.get(elem, 0)

    def __contains__(self, elem) -> bool:
        return elem in self._entries

    def __iter__(self) -> Iterator:
        return iter(self.elements())

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other: "Bag") -> "Bag":
        if not isinstance(other, Bag):
            return NotImplemented
        data = dict(self._entries)
        for elem, count in other._entries.items():
            data[elem] = data.get(elem, 0) + count
        return _raw(data)

    def __sub__(self, other: "Bag") -> "Bag":
        if not isinstance(other, Bag):
            return NotImplemented
        data = dict(self._entries)
        for elem, count in other._entries.items():
            have = data.get(elem, 0)
            if have < count:
                raise BagUnderflowError(elem)
            if have == count:
                del data[elem]
            else:
                data[elem] = have - count
        return _raw(data)

    def __le__(self, other: "Bag") -> bool:
        # componentwise containment, not the sort order
        if not isinstance(other, Bag):
            return NotImplemented
        return all(other._entries.get(e, 0) >= c for e, c in self._entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self.items())

    def filter(self, keep: Callable) -> "Bag":
        """Restriction to elements satisfying ``keep``; multiplicities kept."""
        return _raw({e: c for e, c in self._entries.items() if keep(e)})

    def with_count(self, elem, count: int) -> "Bag":
        """Copy with the multiplicity of ``elem`` set to exactly ``count``."""
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ValueError(f"invalid multiplicity {count!r}")
        data = dict(self._entries)
        if count:
            data[elem] = count
        else:
            data.pop(elem, None)
        return _raw(data)

    def render(self) -> str:
        """Weighted-sum text form, e.g. ``2 . p(< "s" ; 0 >) + 1 . p(< "w" ; 0 >)``."""
        if not self._entries:
            return "nilP"
        if self._render is None:
            self._render = " + ".join(f"{c} . {e}" for e, c in self.items())
        return self._render

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Bag({dict(self.items())!r})"


def _from_items(items: tuple) -> Bag:
    """Bag from entries already in element order, with positive counts."""
    bag = _raw(dict(items))
    bag._items = items
    return bag


def _raw(data: dict) -> Bag:
    bag = Bag.__new__(Bag)
    bag._entries = data
    bag._items = None
    bag._render = None
    return bag
