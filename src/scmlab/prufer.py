"""Sequence codec for rooted labeled trees on nodes 1..n, and its price.

Encoding runs the classic elimination on the underlying unrooted tree:
repeatedly delete the smallest-labeled leaf and record its neighbor,
stopping when two nodes remain. The root label travels alongside the
sequence so rooted trees round-trip exactly. For n <= 2 the sequence is
empty, which is why decode takes n explicitly. `tree_bit_budget` prices
the codec in exact bits; it is the tree family's constructive encoder.
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


def prufer_encode(tree: RootedTree) -> tuple[tuple[int, ...], int]:
    """Return (sequence, root); the sequence has length max(n - 2, 0)."""
    tree.check()
    n = tree.n
    if n <= 2:
        return (), tree.root
    adjacency: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for child, parent in tree.parent.items():
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    leaves = [v for v in adjacency if len(adjacency[v]) == 1]
    heapq.heapify(leaves)
    sequence = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        neighbor = next(iter(adjacency[leaf]))
        sequence.append(neighbor)
        adjacency[neighbor].discard(leaf)
        adjacency[leaf].clear()
        if len(adjacency[neighbor]) == 1:
            heapq.heappush(leaves, neighbor)
    return tuple(sequence), tree.root


def prufer_decode(sequence, root: int, n: int) -> RootedTree:
    """Rebuild the tree on nodes 1..n and orient every edge away from root."""
    sequence = tuple(int(s) for s in sequence)
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
    degree = [0] * (n + 1)
    for v in range(1, n + 1):
        degree[v] = 1
    for s in sequence:
        degree[s] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in sequence:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    adjacency: dict[int, list[int]] = {w: [] for w in range(1, n + 1)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    parent: dict[int, int] = {}
    stack = [root]
    seen = {root}
    while stack:
        node = stack.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = node
                stack.append(neighbor)
    return RootedTree(n, root, parent)  # a tree by construction from the checked inputs
