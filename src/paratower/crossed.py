"""Symbolic crossed-product algebra over the boundary and the isometry build.

Elements are finite sums sum_g f_g u_g where each coefficient f_g is an
exact step function (clopen pieces, rational values) and u_g implements
the boundary action.  Multiplication uses the covariance relation
u_g f = (g.f) u_g; the conditional expectation keeps the coefficient at
the identity.  The isometry is read off a comparison witness for the
whole boundary below a proper clopen set U: s = sum 1_{g_i.Q_i} u_{g_i}
has s* s = 1 and range projection s s* <= 1_U, so s is not a unitary.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .boundary import ClopenSet, boundary_from_json
from .comparison import ComparisonInstance, SubeqWitness, build_comparison
from .groups import F2Group
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
            [(boundary_from_json(p["set"]), Fraction(p["value"])) for p in data]
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
        """Terms over reduced words of F2; an unreduced word, or a word with
        two terms, is a ValueError."""
        terms: Dict[str, StepFunction] = {}
        for t in data["terms"]:
            g = F2Group().elem_from_json(t["g"])
            if g in terms:
                raise ValueError(f"the element {g!r} has two terms")
            terms[g] = StepFunction.from_json(t["step"])
        return CrossedElement(terms)

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




def isometry_checks(u_set: ClopenSet, s: CrossedElement) -> Dict[str, bool]:
    """The three identities that make s a non-unitary isometry whose range
    projection lies below 1_U: s*s = 1, ss*·1_U = ss* and ss* != 1."""
    range_proj = cp_multiply(s, cp_adjoint(s))
    u_proj = CrossedElement.from_function(StepFunction.indicator(u_set))
    return {
        "isometry": cp_multiply(cp_adjoint(s), s).equals(CrossedElement.one()),
        "range_inside_u": cp_multiply(range_proj, u_proj).equals(range_proj),
        "not_unitary": not range_proj.equals(CrossedElement.one()),
    }


def build_isometry(u_set: ClopenSet) -> IsometryCertificate:
    """The isometry s = sum 1_{g_i.Q_i} u_{g_i} of the F2 comparison witness
    for the whole boundary below U.

    A witness only promises that its pieces P_i cover, so they are made
    disjoint in entry order, Q_i = P_i minus P_1, ..., P_{i-1}.  The Q_i
    partition the boundary and their images g_i.Q_i are disjoint inside U,
    so s*s = 1 and ss* is the indicator of the images' union, which lies
    in U and so is not 1 for a proper U."""
    if u_set.is_empty() or u_set.is_full():
        raise ValueError("U must be a nonempty proper clopen set of the boundary")
    cert = build_comparison(ComparisonInstance("F2"), u_set)
    witness = SubeqWitness.from_json(cert.data["boosted"]["witness"])
    s = CrossedElement.zero()
    covered = ClopenSet.empty()
    for _, piece, g, _ in witness.entries:
        q = piece.minus(covered)
        covered = covered.union(piece)
        s = cp_add(s, CrossedElement({g: StepFunction.indicator(q.act(g))}))
    checks = isometry_checks(u_set, s)
    return IsometryCertificate(
        {"U": u_set.to_json(), "v": s.to_json(), "checks": checks, "pass": all(checks.values())}
    )
