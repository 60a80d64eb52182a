"""Difference-set combinatorics and the zero-sum subset finder.

The anchored quantity is the largest #J over J subseteq Z with every
positive pairwise difference of J inside S; translation invariance anchors
min(J) at 0, after which the remaining members of J are themselves forced
into S.  The within-S variant additionally requires J subseteq S.  Both are
maximum cliques of the graph on S whose edges join pairs with difference in
S, found by branch and bound under a node budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .digitsets import check_base, ilog
from .errors import DomainError, InvariantViolation, ResourceLimit

NODE_BUDGET_DEFAULT = 2_000_000

VARIANT_ANCHORED = "anchored"
VARIANT_WITHIN = "within"


@dataclass(frozen=True)
class DiffSetReport:
    value: int
    witness: tuple[int, ...]
    variant: str
    bound: Optional[int] = None
    nodes: int = 0


def positive_differences(A: Sequence[int]) -> set[int]:
    """D+(A): all y - x over pairs y > x of A."""
    vals = sorted(set(A))
    return {y - x for i, x in enumerate(vals) for y in vals[i + 1 :]}


def anchored_cap(b: int, N: int) -> int:
    """Upper bound floor(log_b N) + 2 for the anchored quantity over the
    zero-one integers in [1, N], valid for bases b >= 3."""
    check_base(b)
    if b < 3:
        raise DomainError("the logarithmic cap holds for bases >= 3 only")
    return ilog(b, N) + 2


class _CliqueSearch:
    """Max clique over candidate indices 0..n-1 with bitmask adjacency.

    Branch and bound, candidates expanded smallest-first, pruned by the
    remaining-candidate count, under a shared node budget.
    """

    def __init__(self, adj: list[int], budget: int):
        self.adj = adj
        self.budget = budget
        self.nodes = 0
        self.best = 0

    def largest(self, mask: int, at_least: int = 1) -> int:
        """Exact size of the biggest clique in mask if that is >= at_least;
        any smaller return value only certifies no clique of size at_least."""
        self.best = at_least - 1
        self._expand(0, mask)
        return self.best

    def _expand(self, size: int, cand: int):
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceLimit(f"difference-set search exceeded {self.budget} nodes")
        if size > self.best:
            self.best = size
        while cand:
            if size + cand.bit_count() <= self.best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            self._expand(size + 1, cand & self.adj[v])


def _search(cands: list[int], member: set[int], budget: int):
    n = len(cands)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if cands[j] - cands[i] in member:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    searcher = _CliqueSearch(adj, budget)
    full = (1 << n) - 1
    size = searcher.largest(full)
    # Lexicographically least witness of maximal size, rebuilt greedily:
    # accept a candidate iff some completion to full size still exists among
    # the later compatible candidates.
    chosen: list[int] = []
    mask = full
    need = size
    while need:
        if not mask:
            raise InvariantViolation("difference-set witness reconstruction failed")
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        rest = mask & adj[v]
        if need == 1 or searcher.largest(rest, at_least=need - 1) >= need - 1:
            chosen.append(cands[v])
            mask = rest
            need -= 1
    return size, tuple(chosen), searcher.nodes


def max_difference_set(
    S: Sequence[int],
    variant: str = VARIANT_ANCHORED,
    node_budget: int = NODE_BUDGET_DEFAULT,
    bound: Optional[int] = None,
) -> DiffSetReport:
    """Largest J with all positive pairwise differences inside S.

    variant "anchored": J ranges over integer sets; the search is anchored
    at min(J) = 0 and confined to [0, max S], exhaustive by branch and
    bound.  variant "within": J must be a subset of S.  The witness is the
    lexicographically least optimum; ties in S never change the value.
    """
    if variant not in (VARIANT_ANCHORED, VARIANT_WITHIN):
        raise DomainError(f"unknown variant {variant!r}")
    member = set(S)
    if not member:
        raise DomainError("S must be nonempty")
    if min(member) < 1:
        raise DomainError("S must contain positive integers only")

    # anchored: min(J) = 0, so the other members of J lie in S themselves
    size, clique, nodes = _search(sorted(member), member, node_budget)
    if variant == VARIANT_ANCHORED:
        size, clique = size + 1, (0,) + clique
    return DiffSetReport(size, clique, variant, bound=bound, nodes=nodes)


def zero_sum_subset(k: int, residues: Sequence[int]) -> Optional[tuple[int, ...]]:
    """A nonempty subset of the residues summing to 0 mod k, if one exists.

    Dynamic programming over Z/kZ with subset reconstruction; among all
    zero-sum subsets the returned one is minimal by (size, lexicographic)
    order on ascending value tuples.  Residues must be pairwise distinct
    mod k.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    elems = sorted(residues)
    seen_mod = set()
    for e in elems:
        m = e % k
        if m in seen_mod:
            raise DomainError(f"residues are not pairwise distinct mod {k}")
        seen_mod.add(m)

    best: list[Optional[tuple[int, tuple[int, ...]]]] = [None] * k
    for e in elems:
        snapshot = list(best)
        em = e % k
        cand = (1, (e,))
        if best[em] is None or cand < best[em]:
            best[em] = cand
        for r, entry in enumerate(snapshot):
            if entry is None:
                continue
            size, vals = entry
            target = (r + em) % k
            cand = (size + 1, vals + (e,))
            if best[target] is None or cand < best[target]:
                best[target] = cand
    if best[0] is None:
        return None
    return best[0][1]


def assert_zero_sum_guarantee(k: int, residues: Sequence[int]) -> tuple[int, ...]:
    """zero_sum_subset, hard-failing when the guarantee threshold is met.

    With at least 3*sqrt(k) pairwise-distinct residues a zero-sum subset
    always exists; its absence past that threshold is an invariant failure,
    not a negative answer.
    """
    out = zero_sum_subset(k, residues)
    if out is None and len(residues) ** 2 >= 9 * k:
        raise InvariantViolation(
            f"no zero-sum subset among {len(residues)} residues mod {k} "
            "despite the guarantee threshold"
        )
    return out
