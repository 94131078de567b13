"""Clique-count upper bounds as exact rationals.

Every bound is a ``fractions.Fraction`` in lowest terms, built once:
``order_bounds`` sums each order's integer numerator over the degree, p(e)
and c(e) histograms and makes one ``Fraction`` per (kind, t). Binomial
coefficients use the vanishing convention C(a, b) = 0 for b < 0 or b > a,
which is what makes sub-threshold degree and weight terms drop out of the
sums. Equality against an integer count, and the dominance of a localized
bound by its classical one, are decided by integer cross multiplication; no
floating point ever touches the equality or slack path. A slack (bound
minus count, or classical minus localized bound) is a ``Fraction`` built
only when read; the sweep reads a report's slack as the integer pair
``BoundReport.slack_terms`` and builds none.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


def _binom_sum(histogram: list[tuple[int, int]], b: int) -> int:
    """sum over the histogram's values x, with multiplicity k, of k * C(x, b);
    b >= 0, and a term with x < b vanishes (x may be negative)."""
    comb = math.comb
    return sum(k * comb(x, b) for x, k in histogram if x >= b)


def order_bounds(g: Graph, weights: WeightMap, ts: Iterable[int]) -> dict[int, dict[str, Fraction]]:
    """The bound table of every order t in ``ts``: the bound of every
    per-order kind defined at t, in ``PER_ORDER_KINDS`` order.

    This is the one place a per-order bound is computed: the reports and the
    dominance record of (g, t) read this table. Each local bound is a sum of
    binomials over the degrees, p(e) - 1 or c(e) - 2 (``local_vertex_bound``
    and its siblings, the per-t oracle); here it runs over a histogram of the
    distinct values, built once for all orders. The classical bounds are the
    closed forms of ``wood_bound`` and ``cc_path_bound``, with their premises
    checked once per graph. Each order's numerators are integers, and each
    (kind, t) entry is the one ``Fraction`` built from them.
    """
    n, d, m = g.n, g.max_degree(), g.m
    path_r, cycle_r = classical_path_r(weights, m), classical_cycle_r(weights)
    if min(n, d, m) < 0 or min(path_r, cycle_r) < 2:
        raise ValueError(f"invalid premises n={n}, max degree={d}, m={m}, path r={path_r}, cycle r={cycle_r}")
    degrees = list(Counter(g.degrees()).items())
    p = [(x - 1, k) for x, k in Counter(weights.p.values()).items()]
    c = [(x - 2, k) for x, k in Counter(weights.c.values()).items()]
    comb = math.comb
    path_pairs, cycle_pairs = comb(path_r, 2), comb(cycle_r, 2)
    tables = {}
    for t in ts:
        if t < 1:
            raise ValueError(f"clique order must be >= 1, got {t}")
        table = {
            KIND_LOCAL_VERTEX: Fraction(_binom_sum(degrees, t - 1), t),
            KIND_WOOD: Fraction(n * comb(d + 1, t), d + 1),
        }
        if t >= 2:
            pairs = comb(t, 2)
            table[KIND_LOCAL_EDGE_PATH] = Fraction(_binom_sum(p, t - 2), pairs)
            table[KIND_LOCAL_EDGE_CYCLE] = Fraction(_binom_sum(c, t - 2), pairs)
            table[KIND_CC_PATH] = Fraction(m * comb(path_r, t), path_pairs)
            table[KIND_CC_CYCLE] = Fraction(m * comb(cycle_r, t), cycle_pairs)
        tables[t] = table
    return tables


@dataclass
class BoundReport:
    """One bound evaluated against the exact count for a (graph, t, kind) triple.

    Built by ``make_report``. The slack, bound - count, is a ``Fraction``
    built on first read; ``slack_terms`` gives it as integers.
    """

    kind: str
    t: int | None
    count: int
    bound: Fraction
    equality: bool
    certificate: object | None = None

    def slack_terms(self) -> tuple[int, int]:
        """bound - count as (numerator, denominator), denominator > 0, in lowest
        terms: gcd(num - count * den, den) = gcd(num, den) = 1."""
        bound = self.bound
        return bound.numerator - self.count * bound.denominator, bound.denominator

    @cached_property
    def slack(self) -> Fraction:
        return Fraction(*self.slack_terms())

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
    return BoundReport(kind, t, count, bound, equals_count(count, bound), certificate)


def fraction_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator, "decimal": float(x)}


def format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator} (≈ {float(x):.6g})"


def _at_most(a: Fraction, b: Fraction) -> bool:
    """a <= b by integer cross multiplication (denominators are positive)."""
    return a.numerator * b.denominator <= b.numerator * a.denominator


@dataclass
class DominanceRecord:
    """Localized-versus-classical comparison for one (graph, t).

    The slacks, classical minus localized bound, are ``Fraction``s built on
    first read.
    """

    t: int
    max_degree: int
    local_vertex: Fraction
    wood: Fraction
    vertex_ok: bool
    path_r: int | None
    local_edge: Fraction | None
    cc_path: Fraction | None
    edge_ok: bool

    JSON_KEYS = ("t", "max_degree", "local_vertex", "wood", "vertex_ok", "vertex_slack",
                 "path_r", "local_edge", "cc_path", "edge_ok", "edge_slack")

    @cached_property
    def vertex_slack(self) -> Fraction:
        return self.wood - self.local_vertex

    @cached_property
    def edge_slack(self) -> Fraction | None:
        return None if self.cc_path is None else self.cc_path - self.local_edge

    @property
    def ok(self) -> bool:
        return self.vertex_ok and self.edge_ok

    def to_json_dict(self) -> dict:
        values = ((k, getattr(self, k)) for k in self.JSON_KEYS)
        return {k: fraction_json(v) if isinstance(v, Fraction) else v for k, v in values}


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
    r = le = cc = None
    if g.m > 0:
        r, le, cc = classical_path_r(weights, g.m), bounds[KIND_LOCAL_EDGE_PATH], bounds[KIND_CC_PATH]
    return DominanceRecord(
        t=t,
        max_degree=g.max_degree(),
        local_vertex=lv,
        wood=wd,
        vertex_ok=_at_most(lv, wd),
        path_r=r,
        local_edge=le,
        cc_path=cc,
        edge_ok=cc is None or _at_most(le, cc),
    )
