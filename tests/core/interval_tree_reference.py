"""The interval tree's build written the plain way: the reference.

:meth:`repro.core.indexing.IntervalTree._build` sorts each node's
endpoints once and bisects off the infinities.  This is the build it
replaced — a sort of the filtered finite endpoints at every node — kept
so the two can be compared node by node: same centres, same ``by_start``
and ``by_end`` order, hence the same answer order from every stab and
overlap query.
"""

import math
from typing import Any, List, Optional, Tuple

_NEG = -math.inf
_POS = math.inf


class Node:
    __slots__ = ("center", "by_start", "by_end", "left", "right")


def reference_build(triples: List[Tuple[float, float, Any]]
                    ) -> Optional[Node]:
    if not triples:
        return None
    endpoints = sorted(
        point
        for lo, hi, _ in triples
        for point in (lo, hi)
        if point not in (_NEG, _POS)
    )
    node = Node()
    node.center = endpoints[len(endpoints) // 2] if endpoints else 0.0
    node.by_start = []
    left_items, right_items = [], []
    for triple in triples:
        lo, hi, _ = triple
        if hi <= node.center:
            left_items.append(triple)
        elif lo > node.center:
            right_items.append(triple)
        else:
            node.by_start.append(triple)
    if len(left_items) == len(triples) or len(right_items) == len(triples):
        node.by_start.extend(left_items + right_items)
        left_items, right_items = [], []
    node.by_start.sort(key=lambda t: t[0])
    node.by_end = sorted(node.by_start, key=lambda t: -t[1])
    node.left = reference_build(left_items)
    node.right = reference_build(right_items)
    return node


def shape(node) -> Any:
    """A tree as nested plain data: ``(center, by_start, by_end, left,
    right)``."""
    if node is None:
        return None
    return (node.center, list(node.by_start), list(node.by_end),
            shape(node.left), shape(node.right))
