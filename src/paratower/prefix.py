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
word lies under a base; it is canonical when, besides, no complete sibling
family could merge into its parent.  ``canonical`` returns the unique
canonical form.  The other operations take canonical forms of reduced
words.  ``meet`` and ``complement`` return canonical forms, which the views
keep as they are; the pieces of ``translate`` can leave form, so the views
hand them back to ``canonical`` (``ClopenSet.act`` only three or more).
In sorted order a base comes directly before the words under it: ``under``
takes an antichain sorted and bisects, and ``canonical`` is one scan.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set,
    Tuple,
)

from .words import LETTERS, ball_key, legal_next_letters, multiply

Words = Optional[AbstractSet[str]]

# a family's children in sorted order: the last is "b", or "a" after "B";
# the letters of the others, by the parent's last letter ("" at the root)
_SIBLINGS = {x: sorted(legal_next_letters(x))[:-1] for x in ("", *LETTERS)}


def canonical(
    words: Optional[Iterable[str]], bases: Iterable[str]
) -> Tuple[Words, FrozenSet[str]]:
    """Unique form of a word set plus bases: nested bases and covered words
    dropped, and complete sibling families merged into their parent.  In
    the group a family merges only when the parent word is in the set; on
    the boundary (``words=None``) it always does.  In sorted order a base
    under the last one kept is nested, and a family's children sit side by
    side, so its last child completes it when its siblings were the last
    kept; the parent may then complete its own family, up to the root."""
    bs = set(bases)
    if len(bs) == 1 and not words:
        # one base and no word are in form already; most translates of a
        # cone or a cylinder are one base
        return (None if words is None else frozenset()), frozenset(bs)
    ws = None if words is None else set(words)
    kept: List[str] = []
    for b in sorted(bs):
        if kept and b.startswith(kept[-1]):
            continue
        while kept and b.endswith(("b", "Ba")):
            p = b[:-1]
            siblings = _SIBLINGS[p[-1:]]
            if kept[-1] != p + siblings[-1] or (ws is not None and p not in ws):
                break
            if kept[-len(siblings):] != [p + y for y in siblings]:
                break
            del kept[-len(siblings):]
            b = p
        kept.append(b)
    # a merged parent word lies under its own base
    if ws is not None:
        ws = frozenset(w for w in ws if not under(w, kept))
    return ws, frozenset(kept)


def under(w: str, ordered: Sequence[str]) -> bool:
    """Whether the word w lies under a base of an antichain given in sorted
    order.  Every word between a prefix of w and w extends that prefix, so
    only the last base at or before w can be one."""
    i = bisect_right(ordered, w)
    return i > 0 and w.startswith(ordered[i - 1])


def meet(a: Iterable[str], b: Iterable[str]) -> Set[str]:
    """Bases of the intersection of two antichains: each base that has a
    prefix on the other side.  In sorted order that prefix is the last
    base of the other side seen.

    The meet of two canonical antichains is canonical.  A child in the meet
    that is no base of one side lies under a base of that side at or above
    its parent, and then no sibling is a base of that side.  So a complete
    family in the meet is a complete family of one side."""
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
    nodes that are not words.

    The result is canonical.  The inner nodes are closed under prefixes, so
    none lies under a branch-off.  An inner node that is no word of the set
    is a proper prefix of one of its pieces, so one of its children is
    inner or a base, and its children are never all branch-offs."""
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


def translate(g: str, words: Words, bases: Iterable[str]) -> Tuple[Words, list]:
    """Pieces of g·S.  A base moves to one base unless g cancels all of it;
    then it splits into its children, and in the group the node itself
    moves to a word.  Only the cancellation path splits, at most |g| deep."""
    out_words = None if words is None else {multiply(g, w) for w in words}
    out = []
    stack = list(bases)
    while stack:
        h = stack.pop()
        c = multiply(g, h)
        # part of h survives the cancellation with g
        if len(c) > len(g) - len(h):
            out.append(c)
            continue
        if out_words is not None:
            out_words.add(c)
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


def branch_sums(weights: Dict[str, int]) -> Tuple[Dict[str, int], Dict[str, List[str]]]:
    """(key -> the sum of the weights on the path from "" to it, key -> its
    child keys, for the keys that have some) over the keys of the prefix
    trie of the weighted words: "", the words and the longest common
    prefix of each pair of sorted neighbours.  Every other node lies on a
    chain between a key and a child key.  One scan of the sorted words with
    a stack of the keys above the previous word: a word closes the keys
    that are not its prefixes, and its common prefix with the last one
    closed, when longer than the top, is a new key between the two,
    weighted 0 (a weighted word there would be on the stack)."""
    sums = {"": weights.get("", 0)}
    below: Dict[str, List[str]] = {}
    stack = [""]
    for w in sorted(weights):
        if w == stack[-1]:
            # the weighted ""
            continue
        closed = None
        while not w.startswith(stack[-1]):
            closed = stack.pop()
        if closed is not None:
            top = stack[-1]
            # most often w branches off just above the closed key, as
            # the children of a base do
            i = len(closed) - 1
            if not w.startswith(closed[:i]):
                i = len(top)
                while closed[i] == w[i]:
                    i += 1
            if i > len(top):
                # the closed key was the top's last child
                p = w[:i]
                below[top][-1] = p
                below[p] = [closed]
                sums[p] = sums[top]
                stack.append(p)
        top = stack[-1]
        sums[w] = sums[top] + weights[w]
        kids = below.get(top)
        if kids is None:
            below[top] = [w]
        else:
            kids.append(w)
        stack.append(w)
    return sums, below


def key_cells(
    key: str, below: Sequence[str], legal: Callable[[str], Sequence[str]]
) -> List[str]:
    """The cells that carry a key's sum: the key when it has no child keys,
    else its children off the trie and those of the chain nodes down to
    each child key.  ``legal(p)`` spells the letters that may follow p."""
    if not below:
        return [key]
    on = {x[len(key)] for x in below}
    out = [key + y for y in legal(key) if y not in on]
    for x in below:
        for t in range(len(key) + 1, len(x)):
            out += [x[:t] + y for y in legal(x[:t]) if y != x[t]]
    return out


def first_overlap(
    bases: Iterable[Tuple[str, Hashable]]
) -> Optional[Tuple[Hashable, Hashable]]:
    """First pair of owners whose cones meet, from (base, owner) entries, or
    None.  Each owner's bases must be an antichain.  Sorted, a base comes
    directly before the bases it covers, so one scan with the last base
    seen finds a meeting pair."""
    last = None
    for x, owner in sorted(bases, key=itemgetter(0)):
        if last is not None and x.startswith(last[0]):
            return last[1], owner
        last = (x, owner)
    return None


def first_overlap_by_label(
    items: Iterable[Tuple[Hashable, Iterable[Tuple[Hashable, str]]]]
) -> Optional[Tuple[Hashable, Hashable]]:
    """First pair of owners among (owner, [(label, base), ...]) items whose
    cones meet at some label, or None: ``first_overlap`` over each label's
    (base, owner) entries.  An owner may come in several items, and its
    bases at one label must be an antichain."""
    per_label: Dict[Hashable, list] = {}
    for owner, rep in items:
        for lbl, b in rep:
            per_label.setdefault(lbl, []).append((b, owner))
    for bucket in per_label.values():
        pair = first_overlap(bucket)
        if pair is not None:
            return pair
    return None
