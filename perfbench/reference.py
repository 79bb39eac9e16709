"""Reference graph algorithms in the benchmark's own code, independent of vconn.

Kosaraju's strongly connected components and the iterative dominator
algorithm of Cooper, Harvey and Kennedy, on plain adjacency lists.  The
output checks use them to recompute strong articulation points, and the
calibration task in ``run.py`` times them as fixed work.
"""

from __future__ import annotations


def scc_count(n: int, out_adj, in_adj, alive=None) -> tuple[int, list[int]]:
    """Strongly connected components by Kosaraju, over ``alive`` vertices."""
    alive = alive if alive is not None else [True] * n
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root] or not alive[root]:
            continue
        seen[root] = True
        stack = [(root, iter(out_adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if alive[w] and not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(out_adj[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * n
    count = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = count
        stack = [root]
        while stack:
            v = stack.pop()
            for w in in_adj[v]:
                if alive[w] and comp[w] == -1:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return count, comp


def nontrivial_dominators(n: int, succ, pred, root: int) -> set[int]:
    """Non-root vertices that dominate another vertex, by the iterative
    algorithm of Cooper, Harvey and Kennedy.  All vertices must be
    reachable from ``root``."""
    post: list[int] = []
    seen = [False] * n
    seen[root] = True
    stack = [(root, iter(succ[root]))]
    while stack:
        v, it = stack[-1]
        for w in it:
            if not seen[w]:
                seen[w] = True
                stack.append((w, iter(succ[w])))
                break
        else:
            stack.pop()
            post.append(v)
    number = [0] * n
    for i, v in enumerate(post):
        number[v] = i
    idom = [-1] * n
    idom[root] = root
    changed = True
    while changed:
        changed = False
        for v in reversed(post[:-1]):
            new = -1
            for p in pred[v]:
                if idom[p] == -1:
                    continue
                if new == -1:
                    new = p
                    continue
                a, b = p, new
                while a != b:
                    while number[a] < number[b]:
                        a = idom[a]
                    while number[b] < number[a]:
                        b = idom[b]
                new = a
            if idom[v] != new:
                idom[v] = new
                changed = True
    return {idom[v] for v in range(n) if v != root} - {root}
