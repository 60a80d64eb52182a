"""Difference-set combinatorics.

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
from .errors import DomainError, ResourceLimit

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


def _search(cands: list[int], member: set[int], budget: int):
    """(size, clique, nodes) of a maximum clique of the candidates, edges
    joining pairs with difference in member, under a node budget.

    Branch and bound, pruned by the remaining-candidate count.  It is a
    depth-first search that includes each candidate before it excludes it,
    over ascending candidates, so it meets the cliques in lexicographic
    order: the first clique of the final size, recorded where the best size
    rises, is the lexicographically least maximum clique.
    """
    n = len(cands)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if cands[j] - cands[i] in member:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    # the open nodes, (clique size, candidates left, clique as a (last,
    # rest) chain); a clique may hold every candidate, so the search keeps
    # its own stack, not Python's
    stack = [(0, (1 << n) - 1, None)]
    best, witness, nodes = 0, None, 1
    while stack:
        size, cand, chain = stack.pop()
        if cand and size + cand.bit_count() > best:
            nodes += 1
            if nodes > budget:
                raise ResourceLimit(f"difference-set search exceeded {budget} nodes")
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            stack += (size, cand, chain), (size + 1, cand & adj[v], (v, chain))
            if size + 1 > best:
                best, witness = size + 1, (v, chain)
    clique = []
    while witness:
        v, witness = witness
        clique.append(cands[v])
    return best, tuple(reversed(clique)), nodes


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
