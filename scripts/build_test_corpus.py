#!/usr/bin/env python3
"""Regenerate tests/data/connected_upto7.g6.

Enumerates every graph on up to 7 vertices up to isomorphism by extending
each (n-1)-vertex representative with one new vertex over all neighbor
subsets, reducing candidates to a canonical form (the minimum of the packed
upper-triangle bits over all vertex permutations, vectorized with numpy),
then keeps the connected ones.  The per-order counts are asserted against
the known sequences, so a buggy run cannot silently ship a wrong corpus.

Brute-force canonical labeling lives only here: it is test tooling, not a
library feature, and is only feasible for these tiny orders anyway.

Requires numpy, which neither the library nor its tests need; install it
separately (`pip install numpy`) to run this script.
"""

from __future__ import annotations

import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from convexcycles import Graph, profile_and_census, write_graph6

MAX_N = 7
ALL_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {pair: k for k, pair in enumerate(combinations(range(n), 2))}


def permutation_table(n: int) -> np.ndarray:
    """Row p maps target bit slot k to its source slot under permutation p."""
    index = pair_index(n)
    pairs = list(combinations(range(n), 2))
    rows = []
    for perm in permutations(range(n)):
        rows.append([index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs])
    return np.asarray(rows, dtype=np.int64)


def canonical_masks(n: int, masks: list[int]) -> set[int]:
    nbits = n * (n - 1) // 2
    bits = np.zeros((len(masks), nbits), dtype=np.int64)
    for row, mask in enumerate(masks):
        for k in range(nbits):
            if mask >> k & 1:
                bits[row, k] = 1
    weights = (np.int64(1) << np.arange(nbits, dtype=np.int64))
    table = permutation_table(n)
    best = np.full(len(masks), np.iinfo(np.int64).max, dtype=np.int64)
    for perm_row in table:
        packed = bits[:, perm_row] @ weights
        np.minimum(best, packed, out=best)
    return set(int(v) for v in best)


def extend_all(n: int, smaller: set[int]) -> set[int]:
    """All canonical n-vertex masks reachable by adding one vertex."""
    index = pair_index(n)
    # pair slots shift when n grows, so lift the (n-1)-vertex masks first
    lift = [index[pair] for pair in combinations(range(n - 1), 2)]
    new_slots = [index[(i, n - 1)] for i in range(n - 1)]
    candidates = set()
    for mask in smaller:
        lifted = 0
        for old_slot, new_slot in enumerate(lift):
            if mask >> old_slot & 1:
                lifted |= 1 << new_slot
        for subset in range(1 << (n - 1)):
            extra = 0
            for i in range(n - 1):
                if subset >> i & 1:
                    extra |= 1 << new_slots[i]
            candidates.add(lifted | extra)
    return canonical_masks(n, sorted(candidates))


def mask_to_graph(n: int, mask: int):
    pairs = list(combinations(range(n), 2))
    edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
    return Graph(n, edges)


def main() -> None:
    out_path = Path(__file__).resolve().parent.parent / "tests" / "data" / "connected_upto7.g6"
    reps: dict[int, set[int]] = {1: {0}}
    for n in range(2, MAX_N + 1):
        reps[n] = extend_all(n, reps[n - 1])
        print(f"n={n}: {len(reps[n])} graphs up to isomorphism")
        assert len(reps[n]) == ALL_GRAPHS[n], (n, len(reps[n]))
    lines = []
    for n in range(1, MAX_N + 1):
        connected = [
            mask for mask in sorted(reps[n])
            if profile_and_census(mask_to_graph(n, mask))[0].connected
        ]
        assert len(connected) == CONNECTED_GRAPHS[n], (n, len(connected))
        lines += [write_graph6(mask_to_graph(n, mask)) for mask in connected]
        print(f"n={n}: {len(connected)} connected")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} graphs to {out_path}")


if __name__ == "__main__":
    main()
