"""Clique-count upper bounds as exact rationals.

Every bound is returned as a ``fractions.Fraction`` (always in lowest terms),
and equality against an integer count is decided by integer cross
multiplication; no floating point ever touches the equality path. Binomial
coefficients use the vanishing convention C(a, b) = 0 for b < 0 or b > a,
which is what makes sub-threshold degree and weight terms drop out of the
sums.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Graph
from .weights import WeightMap

KIND_WOOD = "wood_classical"
KIND_WOOD_TOTAL = "wood_total"
KIND_CC_PATH = "cc_path_classical"
KIND_CC_CYCLE = "cc_cycle_classical"
KIND_LOCAL_VERTEX = "local_vertex"
KIND_LOCAL_VERTEX_TOTAL = "local_vertex_total"
KIND_LOCAL_EDGE_PATH = "local_edge_path"
KIND_LOCAL_EDGE_CYCLE = "local_edge_cycle_conjecture"

BOUND_KINDS = (
    KIND_WOOD,
    KIND_WOOD_TOTAL,
    KIND_CC_PATH,
    KIND_CC_CYCLE,
    KIND_LOCAL_VERTEX,
    KIND_LOCAL_VERTEX_TOTAL,
    KIND_LOCAL_EDGE_PATH,
    KIND_LOCAL_EDGE_CYCLE,
)

# The four bound families the sweep verifies head-on; the remaining classical
# bounds enter through the dominance comparison.
DEFAULT_SWEEP_KINDS = (
    KIND_LOCAL_VERTEX,
    KIND_LOCAL_EDGE_PATH,
    KIND_CC_CYCLE,
    KIND_LOCAL_EDGE_CYCLE,
)

# The kinds evaluated at each order t, in analyze report order; only the
# first two are defined at t = 1.
PER_ORDER_KINDS = (
    KIND_LOCAL_VERTEX, KIND_WOOD, KIND_LOCAL_EDGE_PATH, KIND_LOCAL_EDGE_CYCLE, KIND_CC_PATH, KIND_CC_CYCLE
)


def binom(a: int, b: int) -> int:
    """C(a, b) with C(a, b) = 0 whenever b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def equals_count(count: int, bound: Fraction) -> bool:
    """Integer cross-multiplied equality test between a count and a bound."""
    return count * bound.denominator == bound.numerator


def wood_bound(n: int, d: int, t: int) -> Fraction:
    """Max K_t copies in an n-vertex graph with maximum degree d."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    if d < 0:
        raise ValueError(f"maximum degree must be >= 0, got {d}")
    return Fraction(n * binom(d + 1, t), d + 1)


def wood_total_bound(n: int, d: int) -> Fraction:
    """Max cliques of any order in an n-vertex graph with maximum degree d."""
    if d < 0:
        raise ValueError(f"maximum degree must be >= 0, got {d}")
    return Fraction(n * (2 ** (d + 1) - 1), d + 1)


def cc_path_bound(m: int, r: int, t: int) -> Fraction:
    """Max K_t copies in an m-edge graph with no path on r+1 vertices."""
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    if r < 2:
        raise ValueError(f"path parameter must be >= 2, got {r}")
    return Fraction(m * binom(r, t), binom(r, 2))


def cc_cycle_bound(m: int, r: int, t: int) -> Fraction:
    """Max K_t copies in an m-edge graph with circumference at most r.

    Same closed form as the path version; the premise differs and is the
    caller's responsibility to track.
    """
    return cc_path_bound(m, r, t)


def local_vertex_bound(g: Graph, t: int) -> Fraction:
    """Degree-localized bound: (1/t) * sum_v C(d(v), t-1)."""
    if t < 1:
        raise ValueError(f"clique order must be >= 1, got {t}")
    return Fraction(sum(binom(d, t - 1) for d in g.degrees()), t)


def local_vertex_total_bound(g: Graph) -> Fraction:
    """Degree-localized all-orders bound: sum_v (2^(d(v)+1) - 1) / (d(v)+1)."""
    total = Fraction(0)
    for d in g.degrees():
        total += Fraction(2 ** (d + 1) - 1, d + 1)
    return total


def local_edge_path_bound(g: Graph, weights: WeightMap, t: int) -> Fraction:
    """Path-localized bound: (1/C(t,2)) * sum_e C(p(e)-1, t-2)."""
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    return Fraction(sum(binom(p - 1, t - 2) for p in weights.p.values()), binom(t, 2))


def local_edge_cycle_bound(g: Graph, weights: WeightMap, t: int) -> Fraction:
    """Cycle-localized bound (conjectured): (1/C(t,2)) * sum_e C(c(e)-2, t-2)."""
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    return Fraction(sum(binom(c - 2, t - 2) for c in weights.c.values()), binom(t, 2))


def classical_path_r(weights: WeightMap, m: int) -> int:
    # tightest valid path premise: no path longer than the longest one
    return max(weights.longest_path + 1, 2) if m > 0 else 2


def classical_cycle_r(weights: WeightMap) -> int:
    return max(weights.circumference, 2)


def _binom_sum(histogram: dict[int, int], shift: int, b: int) -> int:
    """sum over the histogram's values x, with multiplicity, of C(x + shift, b)."""
    return sum(k * binom(x + shift, b) for x, k in histogram.items())


def order_bounds(g: Graph, weights: WeightMap, ts: Iterable[int]) -> dict[int, dict[str, Fraction]]:
    """The bound table of every order t in ``ts``: the bound of every
    per-order kind defined at t, in ``PER_ORDER_KINDS`` order.

    This is the one place a per-order bound is computed: the reports and the
    dominance record of (g, t) read this table. Each local bound is a sum of
    binomials over the degrees, p(e) or c(e) (``local_vertex_bound`` and its
    siblings, the per-t oracle); here it runs over a histogram of the
    distinct values, built once for all orders.
    """
    degrees, p, c = Counter(g.degrees()), Counter(weights.p.values()), Counter(weights.c.values())
    d = g.max_degree()
    path_r, cycle_r = classical_path_r(weights, g.m), classical_cycle_r(weights)
    tables = {}
    for t in ts:
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        table = {KIND_LOCAL_VERTEX: Fraction(_binom_sum(degrees, 0, t - 1), t), KIND_WOOD: wood_bound(g.n, d, t)}
        if t >= 2:
            pairs = binom(t, 2)
            table[KIND_LOCAL_EDGE_PATH] = Fraction(_binom_sum(p, -1, t - 2), pairs)
            table[KIND_LOCAL_EDGE_CYCLE] = Fraction(_binom_sum(c, -2, t - 2), pairs)
            table[KIND_CC_PATH] = cc_path_bound(g.m, path_r, t)
            table[KIND_CC_CYCLE] = cc_cycle_bound(g.m, cycle_r, t)
        tables[t] = table
    return tables


@dataclass
class BoundReport:
    """One bound evaluated against the exact count for a (graph, t, kind) triple."""

    kind: str
    t: int | None
    count: int
    bound: Fraction
    slack: Fraction
    equality: bool
    certificate: object | None = None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "t": self.t,
            "count": self.count,
            "bound": fraction_json(self.bound),
            "slack": fraction_json(self.slack),
            "equality": self.equality,
            "certificate": self.certificate.to_json_dict(self.t) if self.certificate is not None else None,
        }


def make_report(kind: str, t: int | None, count: int, bound: Fraction, certificate=None) -> BoundReport:
    # bound - count, built directly: Fraction's operator dispatch costs twice as much
    slack = Fraction(bound.numerator - count * bound.denominator, bound.denominator)
    return BoundReport(kind, t, count, bound, slack, equals_count(count, bound), certificate)


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": float(x)}


def format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator} (≈ {float(x):.6g})"


@dataclass
class DominanceRecord:
    """Localized-versus-classical comparison for one (graph, t)."""

    t: int
    max_degree: int
    local_vertex: Fraction
    wood: Fraction
    vertex_ok: bool
    vertex_slack: Fraction
    path_r: int | None
    local_edge: Fraction | None
    cc_path: Fraction | None
    edge_ok: bool
    edge_slack: Fraction | None

    @property
    def ok(self) -> bool:
        return self.vertex_ok and self.edge_ok

    def to_json_dict(self) -> dict:
        return {k: fraction_json(v) if isinstance(v, Fraction) else v for k, v in vars(self).items()}


def compare_local_vs_classical(g: Graph, weights: WeightMap, t: int, bounds: dict[str, Fraction]) -> DominanceRecord:
    """Check that each localized bound is dominated by its classical ancestor.

    ``bounds`` is the ``order_bounds`` table of (g, t); the record compares
    its entries and computes no bound. The edge pair is compared only when g
    has an edge, with cc_path at r = longest path + 1. A violation here is an
    implementation bug, not a graph property: the localized bounds refine
    the classical ones termwise.
    """
    if t < 2:
        raise ValueError(f"clique order must be >= 2, got {t}")
    lv, wd = bounds[KIND_LOCAL_VERTEX], bounds[KIND_WOOD]
    r = le = cc = edge_slack = None
    if g.m > 0:
        r, le, cc = classical_path_r(weights, g.m), bounds[KIND_LOCAL_EDGE_PATH], bounds[KIND_CC_PATH]
        edge_slack = cc - le
    return DominanceRecord(
        t=t,
        max_degree=g.max_degree(),
        local_vertex=lv,
        wood=wd,
        vertex_ok=lv <= wd,
        vertex_slack=wd - lv,
        path_r=r,
        local_edge=le,
        cc_path=cc,
        edge_ok=edge_slack is None or edge_slack >= 0,
        edge_slack=edge_slack,
    )
