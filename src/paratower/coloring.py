"""Greedy proper coloring of Cayley graphs.

Given a symmetric finite set E containing the identity of a group K, the
Cayley graph on generating set E^2 has degree |E^2| - 1, so first-fit greedy
coloring along any vertex enumeration uses at most m = |E^2| colors.  The
resulting color classes partition K and each class B satisfies
e·B ∩ e'·B = ∅ for distinct e, e' in E, which is exactly the translation
freeness the tower constructions need.

K is any group with an enumeration (``groups.FiniteGroup``, whose elements
come in table order, or ``groups.IntegerGroup``, enumerated 0, 1, -1, 2,
-2, ...), so one first-fit greedy along it colours every countable K.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from .groups import MAX_CYCLIC_ORDER, FiniteGroup, factor_from_json

# first-fit colours every element enumerated before k, and looks up the
# colours of each one's |E^2| - 1 neighbours; this many lookups take well
# under a second, and colouring -10,000..10,000 of Z with E = {-1, 0, 1}
# takes about 8 * 10^4
WORK_BUDGET = 10**6


class Coloring:
    """A proper coloring of Cay(K, E^2) with colors 1..m.

    The assignment is first-fit along K's enumeration, memoized and extended
    on demand up to the element asked for.  K may be given by its JSON name,
    "Z" or "Z/n".
    """

    def __init__(self, group, e_set: Sequence):
        group = factor_from_json(group) if isinstance(group, str) else group
        self.group = group
        self.e_set = group.ordered(e_set)
        if len(self.e_set) > MAX_CYCLIC_ORDER:
            raise ValueError(
                f"E lists {len(self.e_set)} elements, above the cap of {MAX_CYCLIC_ORDER}"
            )
        if len({group.index(e) for e in self.e_set}) != len(self.e_set):
            raise ValueError("E must list distinct elements")
        if group.identity not in self.e_set:
            raise ValueError("E must contain the identity")
        if any(group.inv(e) not in self.e_set for e in self.e_set):
            raise ValueError("E must be symmetric")
        self.e_squared = group.ordered(
            dict.fromkeys(group.mul(e, f) for e in self.e_set for f in self.e_set)
        )
        self.m = len(self.e_squared)
        self._offsets = [g for g in self.e_squared if g != group.identity]
        self._assign: Dict = {}

    def color_of(self, k) -> int:
        # k's place first: it rejects what the enumeration never reaches
        upto = self.group.index(k)
        if upto * len(self._offsets) > WORK_BUDGET:
            raise ValueError(
                f"colouring up to {k!r} takes {upto} x {len(self._offsets)} neighbour"
                f" lookups, above the budget of {WORK_BUDGET}"
            )
        while len(self._assign) <= upto:
            v = self.group.element(len(self._assign))
            used = {self._assign.get(self.group.mul(g, v)) for g in self._offsets}
            self._assign[v] = next(c for c in range(1, self.m + 1) if c not in used)
        return self._assign[k]

    def color_class(self, j: int):
        """Membership of class j as a set (finite K) or predicate (Z)."""
        if not 1 <= j <= self.m:
            raise IndexError(f"color index {j} out of range 1..{self.m}")
        if isinstance(self.group, FiniteGroup):
            return {k for k in self.group.elements if self.color_of(k) == j}
        return lambda k: self.color_of(k) == j

    def is_proper_on(self, window: Iterable) -> bool:
        return all(
            self.color_of(k) != self.color_of(self.group.mul(g, k))
            for k in window
            for g in self._offsets
        )

    def to_json(self, window: Optional[Sequence] = None) -> dict:
        """The assignment on the window: all of a finite K, or -100..100 of Z,
        by default."""
        if window is None:
            finite = isinstance(self.group, FiniteGroup)
            window = self.group.elements if finite else range(-100, 101)
        # colour first, so a window that reaches too far fails before it is listed
        assignment = [self.color_of(k) for k in window]
        return {
            "K": self.group.to_json(),
            "E": list(self.e_set),
            "m": self.m,
            "window": list(window),
            "assignment": assignment,
        }


def greedy_color(group, e_set: Sequence) -> Coloring:
    return Coloring(group, e_set)

