"""Symbolic crossed-product algebra over the boundary and the isometry build.

Elements are finite sums sum_g f_g u_g where each coefficient f_g is an
exact step function (clopen pieces, rational values) and u_g implements
the boundary action.  Multiplication uses the covariance relation
u_g f = (g.f) u_g; the conditional expectation keeps the coefficient at
the identity.  The main construction produces an isometry v with
v* v = 1 whose range projection has expectation supported in a proper
clopen set, so v is not a unitary.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from . import subsets as ss
from .boundary import ClopenSet, GeodesicMap, clopen_from_json
from .towers import f2_strengthened_towers
from .words import inverse, multiply


class StepFunction:
    """A clopen step function: finitely many disjoint pieces with rational
    values, zero elsewhere.  Canonical form merges pieces sharing a value."""

    def __init__(self, pieces: Iterable[Tuple[ClopenSet, Fraction]] = ()):
        by_value: Dict[Fraction, ClopenSet] = {}
        for s, v in pieces:
            v = Fraction(v)
            if v == 0 or s.is_empty():
                continue
            by_value[v] = by_value.get(v, ClopenSet.empty()).union(s)
        vals = sorted(by_value)
        for v1, v2 in itertools.combinations(vals, 2):
            if not by_value[v1].are_disjoint(by_value[v2]):
                raise ValueError("step function pieces overlap")
        self.pieces: Tuple[Tuple[ClopenSet, Fraction], ...] = tuple(
            (by_value[v], v) for v in vals
        )

    @staticmethod
    def zero() -> "StepFunction":
        return StepFunction()

    @staticmethod
    def one() -> "StepFunction":
        return StepFunction([(ClopenSet.full_set(), Fraction(1))])

    @staticmethod
    def indicator(s: ClopenSet, value: Fraction = Fraction(1)) -> "StepFunction":
        return StepFunction([(s, value)])

    def is_zero(self) -> bool:
        return not self.pieces

    def support(self) -> ClopenSet:
        out = ClopenSet.empty()
        for s, _ in self.pieces:
            out = out.union(s)
        return out

    def equals(self, other: "StepFunction") -> bool:
        if len(self.pieces) != len(other.pieces):
            return False
        return all(
            v1 == v2 and s1.equals(s2)
            for (s1, v1), (s2, v2) in zip(self.pieces, other.pieces)
        )

    def _combine(self, other: "StepFunction", op) -> "StepFunction":
        out: List[Tuple[ClopenSet, Fraction]] = []
        supp_self = self.support()
        supp_other = other.support()
        for s1, v1 in self.pieces:
            rest = s1.minus(supp_other)
            out.append((rest, op(v1, Fraction(0))))
            for s2, v2 in other.pieces:
                out.append((s1.inter(s2), op(v1, v2)))
        for s2, v2 in other.pieces:
            out.append((s2.minus(supp_self), op(Fraction(0), v2)))
        return StepFunction(out)

    def add(self, other: "StepFunction") -> "StepFunction":
        return self._combine(other, lambda a, b: a + b)

    def mul(self, other: "StepFunction") -> "StepFunction":
        # off either support the product vanishes
        out = []
        for s1, v1 in self.pieces:
            for s2, v2 in other.pieces:
                out.append((s1.inter(s2), v1 * v2))
        return StepFunction(out)

    def scale(self, c: Fraction) -> "StepFunction":
        return StepFunction([(s, Fraction(c) * v) for s, v in self.pieces])

    def act(self, g: str) -> "StepFunction":
        return StepFunction([(s.act(g), v) for s, v in self.pieces])

    def to_json(self) -> list:
        return [{"set": s.to_json(), "value": str(v)} for s, v in self.pieces]

    @staticmethod
    def from_json(data: list) -> "StepFunction":
        return StepFunction(
            [(clopen_from_json(p["set"]), Fraction(p["value"])) for p in data]
        )

    def __repr__(self) -> str:
        return "Step{" + ", ".join(f"{v} on {s!r}" for s, v in self.pieces) + "}"


class CrossedElement:
    """Finite sum of terms f_g u_g with step-function coefficients."""

    def __init__(self, terms: Dict[str, StepFunction]):
        self.terms = {g: f for g, f in terms.items() if not f.is_zero()}

    @staticmethod
    def zero() -> "CrossedElement":
        return CrossedElement({})

    @staticmethod
    def one() -> "CrossedElement":
        return CrossedElement({"": StepFunction.one()})

    @staticmethod
    def unitary(g: str) -> "CrossedElement":
        return CrossedElement({g: StepFunction.one()})

    @staticmethod
    def from_function(f: StepFunction) -> "CrossedElement":
        return CrossedElement({"": f})

    def support(self) -> List[str]:
        return sorted(self.terms, key=lambda w: (len(w), w))

    def equals(self, other: "CrossedElement") -> bool:
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[g].equals(other.terms[g]) for g in self.terms)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"g": g, "step": self.terms[g].to_json()} for g in self.support()
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "CrossedElement":
        return CrossedElement(
            {t["g"]: StepFunction.from_json(t["step"]) for t in data["terms"]}
        )

    def __repr__(self) -> str:
        return " + ".join(f"({self.terms[g]!r})u[{g}]" for g in self.support()) or "0"


def cp_add(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    out: Dict[str, StepFunction] = dict(x.terms)
    for g, f in y.terms.items():
        out[g] = out[g].add(f) if g in out else f
    return CrossedElement(out)


def cp_scale(c: Fraction, x: CrossedElement) -> CrossedElement:
    return CrossedElement({g: f.scale(c) for g, f in x.terms.items()})


def cp_multiply(x: CrossedElement, y: CrossedElement) -> CrossedElement:
    out: Dict[str, StepFunction] = {}
    for g, f in x.terms.items():
        for h, f2 in y.terms.items():
            gh = multiply(g, h)
            term = f.mul(f2.act(g))
            out[gh] = out[gh].add(term) if gh in out else term
    return CrossedElement(out)


def cp_adjoint(x: CrossedElement) -> CrossedElement:
    out: Dict[str, StepFunction] = {}
    for g, f in x.terms.items():
        gi = inverse(g)
        moved = f.act(gi)
        out[gi] = out[gi].add(moved) if gi in out else moved
    return CrossedElement(out)


def expectation(x: CrossedElement) -> StepFunction:
    return x.terms.get("", StepFunction.zero())


class IsometryCertificate:
    def __init__(self, data: dict):
        self.data = data

    @property
    def passed(self) -> bool:
        return bool(self.data.get("pass"))

    def to_json(self) -> dict:
        return self.data


class DepthTooSmall(ValueError):
    """The averaging depth N is too small for the translation defect bound."""


def v_thresholds(bases: List[str], depth: int, eps: Fraction) -> List[ClopenSet]:
    """V_j = {x : mu_N(x)(W(b_j)) > 1/2 + eps} for the tower bases b_j."""
    gm = GeodesicMap(depth)
    return [
        gm.threshold_weighted(
            [ss.cone(b).normal_form()], [Fraction(1)], Fraction(1, 2) + eps, ">"
        )
        for b in bases
    ]


def build_isometry(h: str = "a", depth: int = 200) -> IsometryCertificate:
    """Produce the non-unitary isometry from three strengthened towers.

    The covering translates of the towers give thresholds V_j (deep
    cylinders) and W_j (co-cylinders); indicators of the disjointified W_j
    form a partition of unity, and pushing them through the inverses of
    the covering elements yields v with v*v = 1 while the expectation of
    vv* lives inside the union V, which misses a cylinder.
    """
    if not h:
        raise ValueError("h must be nontrivial")
    towers = f2_strengthened_towers(["", h])
    bases = towers.bases
    a_sets = [ss.cone(b) for b in bases]
    h_elems = [inverse(b) for b in bases]
    if len(set(h_elems)) != len(h_elems):
        raise RuntimeError("covering elements are not pairwise distinct")

    eps = Fraction(1, 24)
    gm = GeodesicMap(depth)
    defect_elems = [inverse(h)] + h_elems
    defect_ok = all(gm.defect_bound(g) < eps for g in defect_elems)
    if not defect_ok:
        longest = max(len(g) for g in defect_elems)
        raise DepthTooSmall(
            f"depth {depth} fails the defect bound 2*{longest}/N < {eps};"
            f" the smallest depth that passes is {math.floor(2 * longest / eps) + 1}"
        )

    v_sets = v_thresholds(bases, depth, eps)
    w_sets = [
        gm.threshold_weighted(
            [(~ss.translate(g, a)).normal_form()], [Fraction(1)],
            Fraction(1, 2) - 2 * eps, "<",
        )
        for a, g in zip(a_sets, h_elems)
    ]

    # (i) the V_j are pairwise disjoint
    cond_i = all(
        s.are_disjoint(t) for s, t in itertools.combinations(v_sets, 2)
    )
    v_union = ClopenSet.empty()
    for s in v_sets:
        v_union = v_union.union(s)
    # (ii) h moves V off itself, so V is proper
    cond_ii = v_union.act(h).are_disjoint(v_union)
    complement_witness = v_union.complement().sorted_bases()[0]
    # (iii) the W_j cover the boundary
    w_union = ClopenSet.empty()
    for s in w_sets:
        w_union = w_union.union(s)
    cond_iii = w_union.is_full()
    # (iv) each W_j pulls back into its V_j under the covering element
    cond_iv = all(
        w.act(inverse(g)).is_subset(v)
        for w, g, v in zip(w_sets, h_elems, v_sets)
    )

    # partition of unity subordinate to the W_j, by disjointification
    f1 = StepFunction.indicator(w_sets[0])
    f2 = StepFunction.indicator(w_sets[1].minus(w_sets[0]))
    f3 = StepFunction.indicator(
        w_sets[2].minus(w_sets[0].union(w_sets[1]))
    )
    funcs = [f1, f2, f3]
    partition_ok = f1.add(f2).add(f3).equals(StepFunction.one())

    g_elems = [inverse(g) for g in h_elems]
    coeffs = [f.act(g) for f, g in zip(funcs, g_elems)]
    # orthogonality of the pushed coefficients
    orthogonal = all(
        c1.mul(c2).is_zero() for c1, c2 in itertools.combinations(coeffs, 2)
    )

    v = CrossedElement.zero()
    for c, g in zip(coeffs, g_elems):
        v = cp_add(v, CrossedElement({g: c}))

    vstar_v = cp_multiply(cp_adjoint(v), v)
    isometry_ok = vstar_v.equals(CrossedElement.one())
    range_exp = expectation(cp_multiply(v, cp_adjoint(v)))
    exp_sum = coeffs[0].add(coeffs[1]).add(coeffs[2])
    exp_matches = range_exp.equals(exp_sum)
    exp_in_v = range_exp.support().is_subset(v_union)
    not_unitary = not range_exp.equals(StepFunction.one())

    verdicts = {
        "distinct_elements": len(set(h_elems)) == len(h_elems),
        "defect_bound": defect_ok,
        "i_disjoint": cond_i,
        "ii_moved_off": cond_ii,
        "iii_cover": cond_iii,
        "iv_pullback": cond_iv,
        "partition_of_unity": partition_ok,
        "orthogonality": orthogonal,
        "isometry": isometry_ok,
        "expectation_matches": exp_matches,
        "range_inside_v": exp_in_v,
        "not_unitary": not_unitary,
    }
    data = {
        "h": h,
        "D": ["", h],
        "bases": bases,
        "covering": h_elems,
        "epsilon": str(eps),
        "N": depth,
        "V": [s.to_json() for s in v_sets],
        "W": [s.to_json() for s in w_sets],
        "f": [f.to_json() for f in funcs],
        "g": g_elems,
        "v": v.to_json(),
        "vstar_v": vstar_v.to_json(),
        "range_expectation": range_exp.to_json(),
        "complement_witness": complement_witness,
        "checks": verdicts,
        "pass": all(verdicts.values()),
    }
    if not data["pass"]:
        failing = [k for k, ok in verdicts.items() if not ok]
        raise RuntimeError(f"isometry conditions failed: {failing}")
    return IsometryCertificate(data)
