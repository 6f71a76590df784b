"""A mutation sweep of two comparison certificates: every scalar leaf is
edited in turn, the hash recomputed and the certificate verified again.

An int gets +1 and a bool is flipped.  A string gets a letter appended
and its last letter dropped, and a string of digits, such as a K label,
also gets a digit appended.  Every edit must make `verify` exit 2 or 3,
or be one of the neutral edits listed below: an edit under which the
edited witness still proves its claim.  The list is exact, so an edit that stops being
accepted fails here too, and its entry goes.
"""

import copy

import pytest

import paratower.certificates as certs
from paratower.boundary import ClopenSet, ProductClopen
from paratower.comparison import ComparisonInstance, build_comparison
from paratower.groups import cyclic_group


def _leaves(node, path=()):
    """(path, value) of every scalar leaf, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path, node


def _edits(value):
    """(name, edited value) of each edit of a leaf."""
    if isinstance(value, bool):
        yield "flip", not value
    elif isinstance(value, int):
        yield "+1", value + 1
    elif isinstance(value, str):
        yield "+a", value + "a"
        if value:
            yield "drop", value[:-1]
        if value.isdigit():
            yield "+digit", value + "1"


def _accepted(payload):
    """The edits `verify` accepts, as "dotted.leaf.path edit", and the
    number of edits made."""
    accepted, made = [], 0
    for path, value in list(_leaves(payload)):
        for name, new in _edits(value):
            edited = copy.deepcopy(payload)
            node = edited
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = new
            made += 1
            code, _ = certs.verify_certificate(certs.wrap("comparison", edited))
            assert code in (0, 2, 3)
            if code == 0:
                accepted.append(".".join(map(str, path)) + " " + name)
    return accepted, made


# why an accepted edit is neutral: the edited witness still proves its claim
SHRUNK = (
    "a piece shrunk to one of its subcylinders, inside a source that the"
    " other entries of the source still cover"
)
MOVED = (
    "another mover that still carries its piece into the target, clear of"
    " the other images of its colour"
)
RECOLOURED = (
    "claim 3's targets are n + 1 copies of one cell, and the image meets no"
    " image of its new colour"
)

NEUTRAL_EDITS = {
    "F2-ab": {
        SHRUNK: [
            "claim2_witness.entries.0.piece.words.0 +a",
            "claim2_witness.entries.0.piece.words.2 +a",
            "claim2_witness.entries.1.piece.words.1 +a",
            "claim2_witness.entries.1.piece.words.2 +a",
            "boosted.witness.entries.0.piece.words.0 +a",
            "boosted.witness.entries.0.piece.words.2 +a",
            "boosted.witness.entries.1.piece.words.1 +a",
            "boosted.witness.entries.1.piece.words.2 +a",
        ],
        MOVED: [
            "claim2_witness.entries.0.g +a",
            "claim3_witness.entries.0.g +a",
            "claim3_witness.entries.1.g +a",
            "boosted.witness.entries.0.g +a",
        ],
        RECOLOURED: [
            "claim3_witness.entries.0.color +1",
            "claim3_witness.entries.1.color +1",
        ],
    },
    "F2xZ2-a0": {
        SHRUNK: [
            f"{w}.entries.{e}.piece.slices.{lbl}.words.{i} +a"
            for w, e, i in [
                ("claim2_witness", 0, 0), ("claim2_witness", 0, 1), ("claim2_witness", 0, 2),
                ("claim2_witness", 1, 1), ("claim2_witness", 1, 2),
                ("claim2_witness", 2, 0), ("claim2_witness", 2, 1), ("claim2_witness", 2, 2),
                ("claim2_witness", 3, 1), ("claim2_witness", 3, 2),
            ]
            for lbl in "01"
        ] + [
            f"boosted.witness.entries.{e}.piece.slices.{lbl}.words.{i} +a"
            for e, lbl, i in [
                (0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2),
                (2, 0, 1), (2, 0, 2), (3, 1, 1), (3, 1, 2),
                (4, 0, 0), (4, 0, 1), (4, 0, 2), (5, 1, 0), (5, 1, 1), (5, 1, 2),
                (6, 0, 1), (6, 0, 2), (7, 1, 1), (7, 1, 2),
            ]
        ],
        MOVED: [
            "claim2_witness.entries.0.g.0 +a",
            "claim2_witness.entries.2.g.0 +a",
            *(f"claim3_witness.entries.{e}.g.0 +a" for e in range(8)),
            "boosted.witness.entries.0.g.0 +a",
            "boosted.witness.entries.1.g.0 +a",
            "boosted.witness.entries.4.g.0 +a",
            "boosted.witness.entries.5.g.0 +a",
        ],
        RECOLOURED: [f"claim3_witness.entries.{e}.color +1" for e in (0, 2, 4, 6)],
    },
}


@pytest.mark.parametrize(
    "name, instance, u_set, made",
    [
        ("F2-ab", "F2", ClopenSet.cylinder("ab"), 148),
        ("F2xZ2-a0", "F2xZ2", ProductClopen(cyclic_group(2), {"0": ClopenSet.cylinder("a")}), 958),
    ],
    ids=["F2-ab", "F2xZ2-a0"],
)
def test_every_edit_of_a_comparison_certificate_is_caught_or_neutral(name, instance, u_set, made):
    payload = build_comparison(ComparisonInstance(instance), u_set).to_json()
    assert certs.verify_certificate(certs.wrap("comparison", payload))[0] == 0
    accepted, count = _accepted(payload)
    assert count == made
    neutral = [edit for edits in NEUTRAL_EDITS[name].values() for edit in edits]
    assert len(neutral) == len(set(neutral))
    assert sorted(accepted) == sorted(neutral)
