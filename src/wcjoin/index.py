"""The one cursor engine every search drives, over sorted relations.

`build` lays a relation's columns out in the global variable order with its
rows sorted, so the rows agreeing with a bound prefix stay contiguous, and
gives each column its run lengths: where a code's rows end. `Cursors`
keeps a stack of row ranges per relation; a level narrows each relation on
that level's variable to a code interval [a, c), and unbinding pops. Plain
levels are variables, child d being [d, d+1). Bit levels are the b bits of
each variable, MSB first: child d of a level of width w narrows [a, a + 2w)
to [a + d*w, a + (d+1)*w). A range agrees on all earlier columns and bits,
so its codes stay sorted, and the bit-level tree over the original relations
is, node for node, the plain tree of `binary.bin_query`'s bit-level copy.

The moves, and who makes them. None keeps a code: each reads its code
interval off a prefix of child indices or off the rows.
- `bind`/`unbind`: one level down or up, for `enumerator.wcj`'s step search,
  `estimators.verify_estimator` and `sampler.children_values`. `bind(d)`
  cuts child d's code interval, two bisects per column; at bit levels it
  reads the node's interval off the first range that has rows.
- `bind_prefix`: root to a prefix's node by a `cut_plan`, one cut per
  entry, each code read off the prefix's bits as one int by the entry's
  shift and mask. By default every variable the prefix binds is cut, in
  all its stacks; the sampler's walk passes a plan that cuts only the
  stacks its later levels read, and `reset` returns. `bind` and
  `bind_prefix` share one narrowing loop, two bisects per (column, stack)
  pair.
- `prefix_codes`: the one code reader, arithmetic on child indices alone.
- `seek`: where a code's rows start in one column's range, and how much of
  the code the range holds, for the sampler's stretches.
The bit search (`enumerator.wcj_binarised`) and the sampler's walk below its
cut read the columns and push the ranges they descend into themselves; the
bit search reads a leaf's rows off the run lengths (`runs`).
"""
from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, deque
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Sequence

from .core import Relation

_BITS = bytes.maketrans(b"\0\1", b"01")  # child indices 0 and 1 as the digits of a binary int


def bit_width(domain_size: int) -> int:
    """Number of bits needed per variable (at least 1, even for empty domains)."""
    if domain_size < 0:
        raise ValueError("domain size must be nonnegative")
    return max(1, (domain_size - 1).bit_length()) if domain_size else 1


def build(rel: Relation, order: Sequence[str]) -> list[tuple[list[int], Sequence[int]]]:
    """A relation's columns in the global variable order, each with its run lengths.

    The columns hold the rows in sorted order. They are cut from a grouping
    of the rows on their leading code: each group's tails are sorted alone
    and the groups laid out in code order, so no row tuple is sorted; with
    one row per leading code, the tails are read off in code order. A run
    is a block of rows that agree on a column and every earlier one; at its
    first row, the column's run lengths hold how many rows it has. So at a
    code's first row in a range that agrees on the earlier columns, the run
    length says where the code's rows end. A first column's runs are its
    groups, and a last column's runs are single rows, as the rows are distinct.
    """
    positions = {v: i for i, v in enumerate(order)}
    for v in rel.variables:
        if v not in positions:
            raise ValueError(f"variable {v!r} not in global order")
    perm = sorted(range(len(rel.variables)), key=lambda i: positions[rel.variables[i]])
    if not perm:
        return []
    # Maps over the rows: `zip(*rows)` would make an iterator per row, each
    # one an object for the garbage collector to count.
    lead = list(map(itemgetter(perm[0]), rel.rows))
    if len(perm) == 1:
        return [(sorted(lead), b"\1" * len(lead))]
    # A tail list per leading code, in code order: one tail column groups
    # its codes, wider tails their code tuples.
    keys = sorted(set(lead))
    tails = map(itemgetter(*perm[1:]), rel.rows)
    if len(keys) == len(lead):  # one row per leading code: no group to sort
        tail_of = dict(zip(lead, tails))
        del lead
        columns, flat = [keys], list(map(tail_of.__getitem__, keys))
        del tail_of
        first_runs: Sequence[int] = b"\1" * len(flat)
    else:
        groups = {code: [] for code in keys}
        deque(map(list.append, map(groups.__getitem__, lead), tails), 0)
        del lead
        deque(map(list.sort, groups.values()), 0)
        sizes = list(map(len, groups.values()))
        columns = [list(chain.from_iterable(map(repeat, keys, sizes)))]
        flat = list(chain.from_iterable(groups.values()))
        del groups  # freed before the runs are made
        # A first column's runs, set at each group's first row.
        first_runs = array("I", [0]) * len(flat)
        deque(map(first_runs.__setitem__, accumulate(sizes, initial=0), sizes), 0)
    if len(perm) == 2:
        columns.append(flat)
    else:  # the tails are code tuples
        columns += [list(map(itemgetter(j), flat)) for j in range(len(perm) - 1)]
    runs = [first_runs]
    for c in range(1, len(perm) - 1):  # a middle column's runs: how many rows share a prefix
        prefixes = list(zip(*columns[: c + 1]))
        runs.append(array("I", map(Counter(prefixes).__getitem__, prefixes)))
    runs.append(b"\1" * len(flat))
    return list(zip(columns, runs))


class Cursors:
    """Row-range stacks over sorted relations, positioned at one search node.

    `stacks[i]` holds relation i's half-open row ranges (lo, hi), the top one
    matching the bound prefix; `affected[level]` lists the (column, stack)
    pairs a level narrows. With `depth`, the stacks are all the state. The
    module docstring lists the moves and their callers. `runs[u][j]` are
    the run lengths (`build`) of the column of `affected[u * per_var][j]`,
    on variable u: a code's rows in a range that agrees on the earlier
    columns end its run length after its first row there.
    """

    def __init__(
        self, relations: Sequence[Relation], order: Sequence[str], domain_size: int, bits: bool
    ):
        n = len(order)
        per_var = bit_width(domain_size) if bits else 1
        self.per_var = per_var  # levels per variable
        self.levels = n * per_var
        self.fanout = 2 if bits else domain_size
        self.depth = 0
        self._width = [1 << (per_var - 1 - level % per_var) for level in range(self.levels)]
        pos = {v: i for i, v in enumerate(order)}
        self.stacks: list[list[tuple[int, int]]] = []
        on_var: list[list[tuple[list[int], list[tuple[int, int]]]]] = [[] for _ in range(n)]
        self.runs: list[list[Sequence[int]]] = [[] for _ in range(n)]
        for rel in relations:
            stack = [(0, len(rel.rows))]
            self.stacks.append(stack)
            variables = sorted(rel.variables, key=pos.__getitem__)
            for v, (col, runs) in zip(variables, build(rel, order)):
                on_var[pos[v]].append((col, stack))
                self.runs[pos[v]].append(runs)
        self.affected = [on_var[level // per_var] for level in range(self.levels)]

    def _narrow(self, pairs: Sequence[tuple], a: int, c: int) -> None:
        """Push, for every (column, stack) pair, the rows of the stack's top range in [a, c)."""
        for col, st in pairs:
            lo, hi = st[-1]
            lo = bisect_left(col, a, lo, hi)
            st.append((lo, bisect_left(col, c, lo, hi)))

    def bind(self, d: int) -> None:
        """Move to child d: cut its code interval [a + d*w, a + (d+1)*w), w the level's width.

        At plain levels a = 0. At bit levels the codes of a nonempty range
        share the node's prefix, so its first code gives the node's interval
        [a, a + 2w); with every range empty, any a keeps them so.
        """
        level = self.depth
        pairs = self.affected[level]
        a, w = 0, self._width[level]
        if self.per_var > 1:
            for col, st in pairs:
                lo, hi = st[-1]
                if lo < hi:
                    a = col[lo] & -2 * w
                    break
        a += d * w
        self._narrow(pairs, a, a + w)
        self.depth = level + 1

    def bind_prefix(self, prefix: Sequence[int], plan: Sequence[tuple] | None = None) -> None:
        """Move from the root to the node of a prefix of child indices.

        Each variable the prefix binds, wholly or in part, is cut once to one
        code interval [a, a + w), where w is the width of the prefix's last
        level on it. So the stacks hold one entry per variable, not one per
        level: every move but `unbind` may follow. `plan` is a `cut_plan`
        for the prefix's length; by default every stack is cut. The sampler's
        walk passes one that cuts fewer (`EstimatorContext.frontier_cuts`).
        """
        depth = self.depth = len(prefix)
        narrow = self._narrow
        if plan is None:
            if self.per_var == 1:  # one level per variable: the child index is the code
                for pairs, d in zip(self.affected, prefix):
                    narrow(pairs, d, d + 1)
                return
            plan = self.cut_plan(depth)
        if plan:
            x = int(bytes(prefix).translate(_BITS), 2)  # the prefix's bits as one int
            for shift, mask, w, pairs in plan:
                a = (x >> shift & mask) * w
                narrow(pairs, a, a + w)

    def cut_plan(self, depth: int, keep: set[int] | None = None) -> list[tuple]:
        """What `bind_prefix` cuts for a prefix of `depth` two-way levels.

        Per variable u the prefix binds: (shift, mask, w, pairs). u is cut
        to [a, a + w) with a = `(x >> shift & mask) * w` for the prefix's
        bits x, w being the width of the prefix's last level on u (1 if it
        binds u wholly); `pairs` are the (column, stack) pairs u narrows
        whose stack's id is in `keep`, by default all. A variable left no
        pairs has no entry.
        """
        k, plan = self.per_var, []
        for u in range(-(-depth // k)):
            pairs = [p for p in self.affected[u * k] if keep is None or id(p[1]) in keep]
            if pairs:
                bits = min(k, depth - u * k)  # the bits of u the prefix holds
                plan.append((depth - u * k - bits, (1 << bits) - 1, 1 << (k - bits), pairs))
        return plan

    def unbind(self) -> None:
        self.depth -= 1
        for _, st in self.affected[self.depth]:
            st.pop()

    def reset(self) -> None:
        """Return to the root in one step: every stack keeps only its root range."""
        for st in self.stacks:
            del st[1:]
        self.depth = 0

    def prefix_codes(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """The codes of the variables a prefix of child indices binds fully, in order."""
        k = self.per_var
        n = len(prefix) // k
        if k == 1 or not n:
            return tuple(prefix[:n])
        x = int(bytes(prefix).translate(_BITS), 2) >> len(prefix) % k  # their bits as one int
        mask = (1 << k) - 1
        return tuple(x >> (n - 1 - u) * k & mask for u in range(n))


def seek(col: Sequence[int], a: int, lo: int, hi: int, k: int) -> tuple[int, int]:
    """Seek the k-bit code a in the sorted range col[lo:hi]: (q, miss).

    q is where a's rows start (`bisect_left`). The longest prefix of a that
    some code of the range holds is k - miss bits long, and a's nearest
    codes, col[q - 1] and col[q], hold it. miss is 0 if the range holds a,
    and k if the range is empty.
    """
    q = bisect_left(col, a, lo, hi)
    miss = (col[q] ^ a).bit_length() if q < hi else k
    if miss and q > lo:
        m = (col[q - 1] ^ a).bit_length()
        if m < miss:
            miss = m
    return q, miss
