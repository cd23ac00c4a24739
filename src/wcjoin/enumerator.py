"""Branch-and-bound join enumeration, in the order `constraints.resolve_order` picks.

wcj() is the plain algorithm: bind variables in order, try every domain code,
backtrack as soon as some relation has no matching row. wcj_binarised() binds
codes one bit at a time, MSB first, which prunes whole blocks of useless
codes after a single bit and is what makes the search worst-case optimal.
Both walk the levels of one `index.Cursors` over the original sorted
relations, depth first from an explicit stack, so the depth n*b of the bit
search is not limited by Python's recursion limit.

Both searches record one count: the consistent nodes at each depth. Branch
and bound calls each of the `fanout` children of every consistent inner node
and nothing else, so the calls one level down are `fanout` times the
consistent nodes of this level, and `EnumerationStats.derive` builds every
other statistic from that identity.

wcj() steps through every child with `Cursors.bind/unbind`. The bit search
expands a node with one `Cursors.split`, the sampler's two-way split, and
enters only its consistent children. Where a narrowed column's range holds a
single code, the loop follows that code's remaining bits in one step (a
forced path): one bisect per column tells how far every column agrees with
the code, and each level passed holds one consistent node. Over
`binary.bin_query`'s copy, wcj() is the independent reference the bit
search is tested against.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

from .constraints import ConstraintSet, resolve_order
from .core import JoinQuery
from .index import Cursors

Sink = Callable[[tuple[int, ...]], None]


@dataclass
class EnumerationStats:
    recursive_calls: int = 0
    consistent_calls: int = 0
    answers_emitted: int = 0
    per_depth_calls: list[int] = field(default_factory=list)

    @classmethod
    def derive(cls, consistent: list[int], fanout: int) -> EnumerationStats:
        """The stats of a search with `consistent[d]` consistent nodes at depth d."""
        per_depth = [1] + [fanout * c for c in consistent[:-1]]
        return cls(sum(per_depth), sum(consistent), consistent[-1], per_depth)

    def as_dict(self) -> dict:
        return asdict(self)


def wcj(query: JoinQuery, sink: Sink, order: Sequence[str] | None = None) -> EnumerationStats:
    """Enumerate ans(Q) into the sink, in lexicographic order of the codes.

    The sink receives one code tuple per answer, aligned with the variable
    order used for the search.
    """
    order = resolve_order(query, None, order)
    return _step_search(Cursors(query.relations, order, query.domain_size, False), sink)


def wcj_binarised(
    query: JoinQuery,
    sink: Sink,
    constraint_set: ConstraintSet | None = None,
    order: Sequence[str] | None = None,
) -> EnumerationStats:
    """Worst-case optimal path: enumerate bit by bit, MSB first.

    The variable order is `constraints.resolve_order`'s: an explicit order is
    checked against the constraints' dependency graph. The returned stats
    describe the bit-level search (depth n*b); the sink receives code tuples,
    as from wcj().
    """
    order = resolve_order(query, constraint_set, order)
    return _split_search(Cursors(query.relations, order, query.domain_size, True), sink)


def _step_search(cur: Cursors, sink: Sink) -> EnumerationStats:
    """Visit every child of every consistent node through `Cursors.bind/unbind`."""
    levels, fanout = cur.levels, cur.fanout
    bind, unbind = cur.bind, cur.unbind
    # A node is consistent iff no relation has run out of rows; only the
    # relations narrowed by the level just bound can have (every relation
    # at the root).
    checked = [cur.stacks] + [[st for _, st in aff] for aff in cur.affected]
    consistent = [0] * (levels + 1)
    child = [0] * levels  # the child bound at each level of the current path
    depth = 0
    while True:
        for st in checked[depth]:
            lo, hi = st[-1]
            if lo == hi:
                break
        else:
            consistent[depth] += 1
            if depth < levels:
                child[depth] = 0
                bind(0)
                depth += 1
                continue
            sink(cur.codes())
        # Move to the next sibling, climbing out of exhausted levels.
        while depth:
            depth -= 1
            unbind()
            d = child[depth] + 1
            if d < fanout:
                child[depth] = d
                bind(d)
                depth += 1
                break
        else:
            break
    return EnumerationStats.derive(consistent, fanout)


def _split_search(cur: Cursors, sink: Sink) -> EnumerationStats:
    """Split each consistent node of the bit levels once.

    `Cursors.split` pushes child 0's ranges and tells which children have
    rows; only consistent ones are counted and entered. `Cursors.sibling`
    turns child 0 into child 1 once child 0's subtree is done. At the last
    level the split is popped at once and the consistent children are
    emitted.

    A forced path settles the variable's k remaining levels in one step. If
    some narrowed column's range holds a single code c, only the child on
    c's bit path can be consistent at each of those levels. One bisect at c
    per column gives either the column's range at the variable's last level
    or, from c's two neighbours in the column, how many levels it follows
    c's bits. The path is followed for the least of these depths, counting
    one consistent node at every level passed. If every column holds c, the
    ranges are pushed once, at the variable's last level, and the climb back
    from there jumps to the level the path started at (`origin`).
    """
    levels, per_var = cur.levels, cur.per_var
    width, start, affected = cur._width, cur._start, cur.affected
    split, sibling = cur.split, cur.sibling
    last = levels - 1
    consistent = [0] * (levels + 1)
    if any(st[-1][0] == st[-1][1] for st in cur.stacks):
        return EnumerationStats.derive(consistent, 2)
    consistent[0] = 1
    if not levels:
        sink(())
        return EnumerationStats.derive(consistent, 2)
    pending = [False] * levels  # child 1 of the level is consistent and not yet entered
    origin = [0] * levels  # where the climb resumes after popping the level's push
    depth = 0
    while True:
        # The node at `depth` is consistent and inner.
        aff = affected[depth]
        c = -1
        for col, st in aff:
            lo, hi = st[-1]
            if col[lo] == col[hi - 1]:
                c = col[lo]
                break
        if c >= 0:
            # Follow c's bits while every column has a code agreeing with them.
            k = width[depth].bit_length()  # levels left in the variable
            follow = k
            ranges = []
            for col, st in aff:
                lo, hi = st[-1]
                p = bisect_left(col, c, lo, hi)
                if p < hi and col[p] == c:
                    ranges.append((st, p, bisect_left(col, c + 1, p, hi)))
                    continue
                miss = min(
                    (col[p - 1] ^ c).bit_length() if p > lo else k,
                    (col[p] ^ c).bit_length() if p < hi else k,
                )
                if k - miss < follow:
                    follow = k - miss
            # Each level followed has one consistent child.
            for level in range(depth + 1, depth + 1 + follow):
                consistent[level] += 1
            if follow == k:
                end = depth + k - 1
                if end == last:
                    sink(tuple(start[per_var - 1 : last : per_var]) + (c,))
                else:
                    for st, lo, hi in ranges:
                        st.append((lo, hi))
                    start[end] = c
                    origin[end] = depth
                    depth = end + 1
                    continue
        else:
            # Split it; `split` reads the depth, which the loop keeps in a local.
            cur.depth = depth
            live0, live1 = split()
            consistent[depth + 1] += live0 + live1
            if depth == last:
                for _, st in aff:
                    st.pop()
                if live0 or live1:
                    head = tuple(start[per_var - 1 : last : per_var])
                    if live0:
                        sink(head + (start[last],))
                    if live1:
                        sink(head + (start[last] + 1,))
            else:
                pending[depth] = live1
                origin[depth] = depth
                depth += 1
                if live0:
                    continue
                # An inconsistent child 0 is left at once, like an exhausted one.
        # Enter the deepest pending child 1, popping exhausted levels.
        while depth:
            depth -= 1
            if pending[depth]:
                pending[depth] = False
                depth += 1
                cur.depth = depth
                sibling()
                break
            for _, st in affected[depth]:
                st.pop()
            depth = origin[depth]
        else:
            break
    return EnumerationStats.derive(consistent, 2)
