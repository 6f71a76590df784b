"""Freely reduced words over {a, A, b, B} and metric balls of the rank-2 free group.

A group element is a Python ``str`` whose characters come from the
four-letter alphabet ``a``/``A``/``b``/``B``, where an upper-case letter is
the inverse of the lower-case one.  The empty string is the identity.  Every
word handed around by this package is kept freely reduced: no ``aA``, ``Aa``,
``bB`` or ``Bb`` factor ever appears.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

LETTERS = ("a", "A", "b", "B")

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b"}

_BALL_ORDER = str.maketrans("aAbB", "0123")

DEFAULT_MAX_RADIUS = 14


class RadiusTooLarge(ValueError):
    """Requested ball radius exceeds the configured enumeration cap."""


def inverse_letter(x: str) -> str:
    return _INVERSE[x]


def are_reduced(ws: List[str]) -> bool:
    """True when ws is a list of strings over a, A, b, B with no factor
    xx⁻¹.  A few C-level scans of the comma-joined list, where a comma
    inside a word shows as one comma too many."""
    if not isinstance(ws, list):
        return False
    if not ws:
        return True
    try:
        joined = ",".join(ws)
    except TypeError:
        return False
    return not (
        joined.encode("ascii", "replace").translate(None, b"aAbB,")
        or "aA" in joined or "Aa" in joined or "bB" in joined or "Bb" in joined
        or joined.count(",") != len(ws) - 1
    )


def is_reduced(word: str) -> bool:
    return are_reduced([word])


def reduce_word(letters: Sequence[str]) -> str:
    """Freely reduce a letter sequence; idempotent."""
    stack: List[str] = []
    for x in letters:
        if x not in _INVERSE:
            raise ValueError(f"not a generator letter: {x!r}")
        if stack and stack[-1] == _INVERSE[x]:
            stack.pop()
        else:
            stack.append(x)
    return "".join(stack)


def multiply(u: str, v: str) -> str:
    """Group product of two reduced words."""
    if not u:
        return v
    if not v:
        return u
    # only the boundary between u and v can cancel
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == _INVERSE[v[j]]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def inverse(u: str) -> str:
    return "".join(_INVERSE[x] for x in reversed(u))


def legal_next_letters(w: str) -> List[str]:
    """Letters x with w·x reduced (all four at the identity)."""
    if not w:
        return list(LETTERS)
    bad = _INVERSE[w[-1]]
    return [x for x in LETTERS if x != bad]


def words_of_length(n: int) -> List[str]:
    """All reduced words of length exactly n, in canonical (lex) order."""
    if n == 0:
        return [""]
    layer = list(LETTERS)
    for _ in range(n - 1):
        layer = [w + x for w in layer for x in legal_next_letters(w)]
    return layer


class Ball:
    """All reduced words of length at most r, in length-lexicographic order."""

    def __init__(self, radius: int, words: List[str]):
        self.radius = radius
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def __contains__(self, w: str) -> bool:
        return len(w) <= self.radius and is_reduced(w)


def ball_size(r: int) -> int:
    # 1 + 4 + 4*3 + ... + 4*3^(r-1)
    return 1 + 2 * (3**r - 1)


def ball_key(w: str) -> Tuple[int, str]:
    """Sort key of the order in which ``ball`` lists words: by length, then
    letter by letter with a < A < b < B."""
    return len(w), w.translate(_BALL_ORDER)


def ball(r: int, max_radius: int = DEFAULT_MAX_RADIUS) -> Ball:
    """Enumerate the radius-r ball; duplicate-free, canonically ordered."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r > max_radius:
        raise RadiusTooLarge(f"radius {r} exceeds cap {max_radius}")
    words: List[str] = [""]
    layer = [""]
    for _ in range(r):
        layer = [w + x for w in layer for x in legal_next_letters(w)]
        words.extend(layer)
    return Ball(r, words)


def enumerate_words(max_radius: int = DEFAULT_MAX_RADIUS) -> Iterator[str]:
    """Lazy canonical enumeration used by deterministic greedy searches."""
    layer = [""]
    yield ""
    for _ in range(max_radius):
        layer = [w + x for w in layer for x in legal_next_letters(w)]
        yield from layer


def common_prefix_len(u: str, v: str) -> int:
    n = min(len(u), len(v))
    for i in range(n):
        if u[i] != v[i]:
            return i
    return n
