"""Reference Prüfer codec: the adjacency-based encode and decode.

This is the codec `scmlab.prufer` used before both directions worked on
the tree rooted at n. Encode runs leaf elimination over adjacency sets;
decode collects the eliminated edges, builds adjacency lists and orients
every edge away from the root with a depth-first walk. It is kept as the
reference the codec is checked against: equal parent maps and equal
sequences on every tree.
"""

import heapq

from scmlab.errors import InvalidSequenceError
from scmlab.families import RootedTree


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
