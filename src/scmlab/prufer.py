"""Sequence codec for rooted labeled trees on nodes 1..n, and its price.

Encoding runs the classic elimination on the underlying unrooted tree:
repeatedly delete the smallest-labeled leaf and record its neighbor,
stopping when two nodes remain. Elimination never removes n, the largest
label, so both directions work on the tree rooted at n, where each
removed leaf's neighbor is its parent: encode re-roots its input at n,
decode re-roots what it builds at the given root, and `_rerooted`
reverses the one path between the two roots. The root label travels
alongside the sequence so rooted trees round-trip exactly. For n <= 2
the sequence is empty, which is why decode takes n explicitly.
`tree_bit_budget` prices the codec in exact bits; it is the tree
family's constructive encoder.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import BadRangeError, InvalidSequenceError
from .families import RootedTree


def ceil_log2(x: int) -> int:
    """Smallest k with 2^k >= x; exact integer arithmetic, 0 for x <= 1."""
    if x < 1:
        raise BadRangeError(f"ceil_log2 needs a positive integer, got {x}")
    return (x - 1).bit_length()


@dataclass(frozen=True)
class BitBudget:
    """Itemized encoder cost: named components and their bit totals."""

    components: tuple[tuple[str, int], ...]
    total_bits: int
    idealized_bits: float


def tree_bit_budget(n: int) -> BitBudget:
    """Cost of the sequence codec: ceil(log2 n^(n-2)) sequence bits plus
    ceil(log2 n) root bits; idealized cost is (n-1) log2 n."""
    if n < 1:
        raise BadRangeError(f"n must be at least 1, got {n}")
    sequence_bits = ceil_log2(n ** (n - 2)) if n >= 2 else 0
    root_bits = ceil_log2(n)
    idealized = (n - 1) * math.log2(n) if n > 1 else 0.0
    components = (("sequence", sequence_bits), ("root", root_bits))
    return BitBudget(components, sequence_bits + root_bits, idealized)


def _rerooted(parent: dict[int, int], root: int) -> dict[int, int]:
    """Re-root the tree of `parent` at `root` in place, by reversing the one
    path from `root` up to the old root; return `parent`."""
    child, node = root, parent.pop(root, 0)
    while node:
        above = parent.get(node, 0)
        parent[node] = child
        child, node = node, above
    return parent


def prufer_encode(tree: RootedTree) -> tuple[tuple[int, ...], int]:
    """Return (sequence, root); the sequence has length max(n - 2, 0).
    Each removed leaf's neighbor is its parent in the tree rooted at n."""
    tree.check()
    n = tree.n
    parent = _rerooted(dict(tree.parent), n)
    degree = [1] * (n + 1)
    for p in parent.values():
        degree[p] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]  # ascending, so a heap
    sequence = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        p = parent[leaf]
        sequence.append(p)
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(leaves, p)
    return tuple(sequence), tree.root


def prufer_decode(sequence, root: int, n: int) -> RootedTree:
    """Rebuild the tree on nodes 1..n rooted at `root`: each popped leaf
    hangs from its label in the tree rooted at n, the last leaf from n,
    and re-rooting reverses the path from `root` to n."""
    sequence = tuple(sequence)
    if any(type(x) is not int for x in (n, root, *sequence)):  # a bool is no label
        raise InvalidSequenceError(f"n={n!r}, root={root!r} and labels {sequence!r} must be ints")
    if n < 1:
        raise InvalidSequenceError(f"n must be at least 1, got {n}")
    if len(sequence) != max(n - 2, 0):
        raise InvalidSequenceError(
            f"sequence length {len(sequence)} does not match n={n}"
        )
    if not 1 <= root <= n:
        raise InvalidSequenceError(f"root {root} outside 1..{n}")
    if any(not 1 <= s <= n for s in sequence):
        raise InvalidSequenceError(f"sequence labels {sequence} outside 1..{n}")
    if n == 1:
        return RootedTree(1, root, {})
    degree = [1] * (n + 1)
    for s in sequence:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]  # ascending, so a heap
    parent = {}
    for s in sequence:
        leaf = heapq.heappop(leaves)
        parent[leaf] = s
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    parent[leaves[0]] = n  # n, never a popped leaf, is the other one left
    return RootedTree(n, root, _rerooted(parent, root))  # a tree, built from checked inputs
