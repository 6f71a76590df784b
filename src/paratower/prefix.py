"""Prefix-free antichains of reduced words: the trie algebra behind both
``subsets.NormalForm`` and ``boundary.ClopenSet``.

A base ``h`` names a node of the 4-ary trie of reduced words over
{a, A, b, B}.  In the group it stands for the cone W(h) of all reduced words
starting with h; on the boundary for the cylinder [h] of all infinite
reduced words starting with h.  The two readings differ only at the nodes
themselves: every node is a point of the group and none is a point of the
boundary.  So a group set is a pair ``(words, bases)`` with a finite word
set beside the antichain, and a boundary set passes ``words=None``.  The
base "" is the whole space.

A pair is in form when the bases are pairwise prefix-incomparable and no
word lies under a base.  ``canonical`` returns the unique form with maximal
bases; the other operations take forms and return pieces in form, which the
views hand back to ``canonical`` through their constructors.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Dict, FrozenSet, Hashable, Iterable, Optional, Sequence, Set, Tuple,
)

from .words import ball_key, legal_next_letters, multiply

Words = Optional[AbstractSet[str]]


def canonical(
    words: Optional[Iterable[str]], bases: Iterable[str]
) -> Tuple[Words, FrozenSet[str]]:
    """Unique form of a word set plus bases: nested bases and covered words
    dropped, then complete sibling families merged bottom-up into their
    parent.  In the group a family merges only when the parent word is in
    the set; on the boundary (``words=None``) it always does."""
    bs = set(bases)
    if len(bs) == 1 and not words:
        # one base and no word are in form already; most translates of a
        # cone or a cylinder are one base
        return (None if words is None else frozenset()), frozenset(bs)
    if "" in bs:
        return (None if words is None else frozenset()), frozenset([""])
    kept: list = []
    # a base sorts directly before every base it covers
    for b in sorted(bs):
        if not kept or not b.startswith(kept[-1]):
            kept.append(b)
    bs = set(kept)
    ws = None if words is None else {w for w in words if not under(w, bs)}
    # a family has at least three members, so smaller sets cannot merge
    if len(bs) >= 3:
        _collapse_families(ws, bs)
    return (None if ws is None else frozenset(ws)), frozenset(bs)


def _collapse_families(words: Optional[Set[str]], bases: Set[str]) -> None:
    by_depth: Dict[int, Dict[str, list]] = {}
    for b in bases:
        by_depth.setdefault(len(b) - 1, {}).setdefault(b[:-1], []).append(b)
    # a merge can only complete the family of the parent one level up
    for depth in range(max(by_depth), -1, -1):
        for p, kids in by_depth.get(depth, {}).items():
            if len(kids) != len(legal_next_letters(p)):
                continue
            if words is not None and p not in words:
                continue
            bases.difference_update(kids)
            bases.add(p)
            if words is not None:
                words.discard(p)
            if p:
                by_depth.setdefault(depth - 1, {}).setdefault(p[:-1], []).append(p)


def under(w: str, bases) -> bool:
    """Whether the word w lies under one of the bases."""
    return any(w[:t] in bases for t in range(len(w) + 1))


def meet(a: Iterable[str], b: Iterable[str]) -> Set[str]:
    """Bases of the intersection of two antichains: each base that has a
    prefix on the other side.  In sorted order that prefix is the last
    base of the other side seen."""
    last: list = [None, None]
    out = set()
    for x, side in sorted([(x, 0) for x in a] + [(x, 1) for x in b]):
        other = last[1 - side]
        if other is not None and x.startswith(other):
            out.add(x)
        last[side] = x
    return out


def complement(words: Words, bases: AbstractSet[str]) -> Tuple[Words, Set[str]]:
    """Complement of a form, by one walk over its prefix trie: the
    branch-off bases at every inner node, plus in the group the inner
    nodes that are not words."""
    if "" in bases:
        return (None if words is None else set()), set()
    inner = {b[:t] for b in bases for t in range(len(b))}
    if words is not None:
        inner.update(w[:t] for w in words for t in range(len(w) + 1))
    if not inner:
        return (None if words is None else set()), {""}
    out = {
        p + y
        for p in inner
        for y in legal_next_letters(p)
        if p + y not in inner and p + y not in bases
    }
    return (None if words is None else inner - words), out


def moved_base(g: str, h: str) -> Optional[str]:
    """The base of g·W(h) when part of h survives the cancellation with g,
    otherwise None."""
    c = multiply(g, h)
    return c if len(c) > len(g) - len(h) else None


def translate(g: str, words: Words, bases: Iterable[str]) -> Tuple[Words, list]:
    """Pieces of g·S.  A base moves to one base unless g cancels all of it;
    then it splits into its children, and in the group the node itself
    moves to a word.  Only the cancellation path splits, at most |g| deep."""
    out_words = None if words is None else {multiply(g, w) for w in words}
    out = []
    stack = list(bases)
    while stack:
        h = stack.pop()
        c = moved_base(g, h)
        if c is not None:
            out.append(c)
            continue
        if out_words is not None:
            out_words.add(multiply(g, h))
        stack.extend(h + y for y in legal_next_letters(h))
    return out_words, out


def first_by_pattern(
    forms: Sequence[Tuple[AbstractSet[str], AbstractSet[str]]],
    radius: Optional[int] = None,
) -> Dict[FrozenSet[int], str]:
    """For every membership pattern met in the radius-r ball of F2, or in
    the whole group when ``radius`` is None, the first word with it in ball
    order.  ``forms[k]`` is a group set in form, given as (words, bases); a
    word's pattern is the set of the k whose set holds it.  The dict lists
    the patterns in the ball order of their first words.

    Call the bases and words of the forms, and "", the keys.  A word that
    is no key has its parent's cone pattern, and a key below a key always
    adds a set, since a form has no piece below another.  So the first word
    with a pattern is a key, or the first child that is no key of a key
    holding a word, the only kind of key whose pattern differs from its
    cone pattern.  One sorted scan with a stack of ancestors gives the
    keys' cone patterns, and the candidates are sorted in ball order: the
    cost is O(keys · log keys) whatever r."""
    cones: Dict[str, list] = {}
    at: Dict[str, list] = {}
    for k, (words, bases) in enumerate(forms):
        for b in bases:
            cones.setdefault(b, []).append(k)
        for w in words:
            at.setdefault(w, []).append(k)
    keys = {x for x in (*cones, *at) if radius is None or len(x) <= radius}
    keys.add("")
    candidates = []
    # (key, cone pattern) of the keys above the current one; in sorted
    # order the keys below a key follow it directly, so a key not below the
    # top of the stack is past the top's subtree
    stack: list = []
    for x in sorted(keys):
        while stack and not x.startswith(stack[-1][0]):
            stack.pop()
        above = stack[-1][1] if stack else frozenset()
        below = above.union(cones[x]) if x in cones else above
        stack.append((x, below))
        if x not in at:
            candidates.append((x, below))
            continue
        candidates.append((x, below.union(at[x])))
        if radius is None or len(x) < radius:
            child = next((x + y for y in legal_next_letters(x) if x + y not in keys), None)
            if child is not None:
                candidates.append((child, below))
    candidates.sort(key=lambda c: ball_key(c[0]))
    first: Dict[FrozenSet[int], str] = {}
    for w, pattern in candidates:
        first.setdefault(pattern, w)
    return first


def first_overlap(
    bases: Iterable[Tuple[str, Hashable]]
) -> Optional[Tuple[Hashable, Hashable]]:
    """First pair of owners whose cones meet, from (base, owner) entries, or
    None.  Each owner's bases must be an antichain.  Sorted, a base comes
    directly before the bases it covers, so one scan with the last base
    seen finds a meeting pair."""
    last = None
    for x, owner in sorted(bases, key=lambda e: e[0]):
        if last is not None and x.startswith(last[0]):
            return last[1], owner
        last = (x, owner)
    return None
