import random

import oracles
import pytest
from hypothesis import given, strategies as st

from paratower.words import (
    DEFAULT_MAX_RADIUS,
    RadiusTooLarge,
    ball,
    ball_key,
    ball_size,
    enumerate_words,
    inverse,
    is_reduced,
    legal_next_letters,
    multiply,
    reduce_word,
    reduce_words,
    walk_key,
    words_of_length,
)

letters = st.sampled_from("aAbB")
letter_seqs = st.lists(letters, max_size=20)
reduced_words = letter_seqs.map(reduce_word)


@given(letter_seqs)
def test_reduce_is_reduced_and_idempotent(seq):
    w = reduce_word(seq)
    assert is_reduced(w)
    assert reduce_word(w) == w


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_word("ax")


@given(st.lists(letter_seqs.map("".join), max_size=6))
def test_reduce_words_reduces_each_word(ws):
    assert reduce_words(ws) == [reduce_word(w) for w in ws]
    assert reduce_words(iter(ws)) == [reduce_word(w) for w in ws]


@pytest.mark.parametrize("ws", [["a", "x"], ["ab", "a,b"], ["aA", "b", "c"], ["", "Ba", "a b"]])
def test_reduce_words_rejects_a_non_letter(ws):
    with pytest.raises(ValueError):
        reduce_words(ws)


@given(reduced_words, reduced_words)
def test_multiply_matches_concatenate_reduce(u, v):
    assert multiply(u, v) == reduce_word(u + v)


@given(reduced_words, reduced_words, reduced_words)
def test_multiply_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(reduced_words)
def test_inverse_cancels(u):
    assert multiply(u, inverse(u)) == ""
    assert multiply(inverse(u), u) == ""
    assert inverse(inverse(u)) == u


def _random_reduced(rng, n: int) -> str:
    w = ""
    for _ in range(n):
        w += rng.choice(legal_next_letters(w))
    return w


def test_kernel_matches_the_letter_by_letter_oracle():
    # seeded pairs (u, v) where v cancels nothing, part of u, all of u, or
    # all of u and then more; "" on either side
    rng = random.Random("words/kernel")
    pairs = [("", ""), ("a", ""), ("", "B")]
    for _ in range(400):
        u = _random_reduced(rng, rng.randint(0, 12))
        cut = rng.randint(0, len(u))
        rest = _random_reduced(rng, rng.randint(0, 6))
        pairs += [
            (u, _random_reduced(rng, rng.randint(0, 12))),
            (u, reduce_word(oracles.inverse(u[cut:]) + rest)),
            (u, oracles.inverse(u)),
            (u, reduce_word(oracles.inverse(u) + rest)),
        ]
    kept = [len(multiply(u, v)) - len(u) - len(v) for u, v in pairs]
    assert 0 in kept and min(kept) < 0
    assert any(k == -2 * len(u) < 0 for k, (u, _) in zip(kept, pairs))
    for u, v in pairs:
        assert multiply(u, v) == oracles.multiply(u, v), (u, v)
        assert inverse(u) == oracles.inverse(u), u


@given(reduced_words)
def test_identity_is_neutral(u):
    assert multiply("", u) == u
    assert multiply(u, "") == u


@given(reduced_words)
def test_legal_next_letters_extend_reduced(w):
    nxt = legal_next_letters(w)
    assert len(nxt) == (4 if not w else 3)
    for x in nxt:
        assert is_reduced(w + x)


def test_legal_next_letters_keep_the_letter_order():
    assert legal_next_letters("") == ("a", "A", "b", "B")
    assert legal_next_letters("Ba") == ("a", "b", "B")
    assert legal_next_letters("bA") == ("A", "b", "B")
    assert legal_next_letters("ab") == ("a", "A", "b")
    assert legal_next_letters("AB") == ("a", "A", "B")


def test_words_of_length_counts():
    assert words_of_length(0) == [""]
    assert len(words_of_length(1)) == 4
    assert len(words_of_length(2)) == 12
    assert len(words_of_length(5)) == 4 * 3**4


def test_ball_sizes_and_order():
    for r in range(6):
        b = ball(r)
        assert len(b) == ball_size(r)
        ws = list(b)
        assert len(set(ws)) == len(ws)
        # layers of equal length, in canonical enumeration order
        lens = [len(w) for w in ws]
        assert lens == sorted(lens)
        for n in range(r + 1):
            assert [w for w in ws if len(w) == n] == words_of_length(n)
        assert sorted(reversed(ws), key=ball_key) == ws
        assert sorted(ws, key=walk_key) == _walk("", r)


def _walk(w, depth):
    """w and the words up to depth letters below it, in the order of a
    depth-first walk of their trie."""
    return [w] + [v for y in (legal_next_letters(w) if depth else ()) for v in _walk(w + y, depth - 1)]


def test_ball_membership():
    b = ball(3)
    assert "" in b
    assert "abA" in b
    assert "abab" not in b


def test_ball_radius_cap():
    with pytest.raises(RadiusTooLarge):
        ball(DEFAULT_MAX_RADIUS + 1)
    with pytest.raises(ValueError):
        ball(-1)


def test_enumerate_words_prefix_of_ball():
    lazy = []
    gen = enumerate_words()
    while len(lazy) < ball_size(4):
        lazy.append(next(gen))
    assert lazy == list(ball(4))
