"""Reference implementations the tests check the exact algorithms against.

They evaluate the geodesic averaging measures point by point, with no
prefix-trie visit: ``GeodesicMap.step_cells`` and ``threshold_weighted``
must agree with ``OracleMap.mu_eval``, and ``defect_bound`` must bound
``OracleMap.defect``.  ``union`` joins tower sets in normal form, as a
``union`` set decodes.  ``image_key`` asks one (cell, mover) pair at a time
what the matching's preimage search (``comparison._image_keys``) finds for
many cells at once.
"""

import functools
from fractions import Fraction
from typing import Dict, Optional, Tuple

from paratower import prefix
from paratower.boundary import BoundaryPoint, DepthInsufficient, GeodesicMap
from paratower.subsets import GroupSubset, NormalForm, NormalizedSet
from paratower.words import multiply


class RationalProbMeasure:
    """Finitely supported exact rational probability measure on the group."""

    def __init__(self, mass: Dict[str, Fraction]):
        total = sum(mass.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"total mass is {total}, not 1")
        if any(v < 0 for v in mass.values()):
            raise ValueError("negative mass")
        self.mass = {g: v for g, v in mass.items() if v != 0}

    def of_subset(self, s: GroupSubset) -> Fraction:
        return sum((v for g, v in self.mass.items() if s.contains(g)), Fraction(0))

    def translated(self, g: str) -> "RationalProbMeasure":
        out: Dict[str, Fraction] = {}
        for h, v in self.mass.items():
            key = multiply(g, h)
            out[key] = out.get(key, Fraction(0)) + v
        return RationalProbMeasure(out)

    def l1_distance(self, other: "RationalProbMeasure") -> Fraction:
        keys = set(self.mass) | set(other.mass)
        return sum(
            (abs(self.mass.get(k, Fraction(0)) - other.mass.get(k, Fraction(0))) for k in keys),
            Fraction(0),
        )


class OracleMap(GeodesicMap):
    """``GeodesicMap`` plus its measures evaluated at single points."""

    def measure_at(self, point: BoundaryPoint) -> RationalProbMeasure:
        w = point.prefix(self.n - 1)
        return RationalProbMeasure(
            {w[:l]: Fraction(1, self.n) for l in range(self.n)}
        )

    def mu_eval(self, w: str, s: GroupSubset) -> Fraction:
        """Exact value of mu_N(x)(S) for any point x in the cylinder [w]."""
        nf = s.normal_form()
        d = len(w)
        if nf.depth() > d:
            raise DepthInsufficient(
                f"set depth {nf.depth()} exceeds cylinder depth {d}"
            )
        n = self.n
        cnt = sum(1 for l in range(min(d, n)) if nf.contains(w[:l]))
        if n > d:
            if nf.contains(w):
                cnt += 1
            if any(w.startswith(c) for c in nf.cones):
                cnt += n - d - 1
        return Fraction(cnt, n)

    def defect(self, g: str, deep_base: str) -> Fraction:
        """Exact ℓ1 distance between mu_N(g·x) and g·mu_N(x) on [deep_base]."""
        if len(deep_base) < self.n + len(g):
            raise DepthInsufficient(
                f"cylinder depth {len(deep_base)} below {self.n + len(g)}"
            )
        moved = multiply(g, deep_base)
        p1 = {moved[:l] for l in range(self.n)}
        p2 = {multiply(g, deep_base[:l]) for l in range(self.n)}
        return Fraction(len(p1 ^ p2), self.n)


def union(*sets: NormalizedSet) -> NormalizedSet:
    """The union of tower sets in normal form."""
    return NormalizedSet(functools.reduce(NormalForm.union, (s.nf for s in sets), NormalForm()))


def image_key(space, ueff_slices, g, cell) -> Optional[Tuple]:
    """The (label, base) pairs of g·cell's canonical bases, in order, if
    g·cell lies inside the shrunk target whose slices by label are
    ``ueff_slices``, else None.

    For cells deeper than the cancellation the image is the single
    cylinder [g·w], so the containment test is a string prefix check.
    Otherwise it is decided on the cell's moved bases, which are the
    image's canonical bases; no clopen sets get built."""
    lbl, w = cell
    h = space.word_part(g)
    c = prefix.moved_base(h, w)
    newl = space.act_label(g, lbl)
    tgt = ueff_slices[newl]
    if c is not None:
        if tgt.full or any(c.startswith(b) for b in tgt.bases):
            return ((newl, c),)
        if not any(b.startswith(c) for b in tgt.bases):
            return None
    bases = sorted(prefix.translate(h, None, (w,))[1])
    if not (tgt.full or all(prefix.under(b, tgt.bases) for b in bases)):
        return None
    return tuple((newl, b) for b in bases)


def cells(space, s, depth: int) -> list:
    """The depth-``depth`` cylinder cells (label, word) below a set of a
    space, in label order and ``ClopenSet.refine`` order."""
    return [
        (lbl, w)
        for lbl, sl in space.slice_items(s)
        if not sl.is_empty()
        for w in sl.refine(depth)
    ]
