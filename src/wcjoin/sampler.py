"""Las Vegas uniform sampling of join answers via guided trace-tree walks.

A single trial walks the trace tree from the root, choosing child d with
probability value(d) / value(parent) and failing outright with the leftover
probability, so that each answer is returned with probability exactly
1 / up(root). Sampler walks the bit levels of the original relations; the
functions below take any two-way EstimatorContext. Repetition yields i.i.d.
uniform answers with geometric trial counts.

A Sampler's only learned state is its ValueStore: the child values of every
prefix its walks have expanded, each estimated once. A walk first draws
through the store with the cursors at the root, so a walk that ends there
moves no cursor. At the first node the store lacks, it cuts the cursors to
its prefix (`Cursors.bind_prefix`) by that level's cut plan
(`EstimatorContext.frontier_cuts`): it reads the prefix's bits as one int
and narrows only the variables with a stack that this level or a later one
reads, in those stacks. Then it expands that node and every later one in
one pass: one bisect per column at the midpoint pushes child 0's rows and
gives both children's row counts (a level on exactly two columns has a cut
of its own that keeps both columns in locals), one loop over the level's
terms (`EstimatorContext.frontier_plans`) gives both children's bounds, and
one draw picks a child; child 1 turns the pushed rows into its own.
`children_values` is that expansion by cursor moves, the tests' reference;
the walk reports a bound that overflows through it, after cutting every
stack, as `bound` reads every term.

Where a level's bound reads one live row count, of column j, and j's rows
agree on the next bits of the variable, the levels down to where they part
(or the plan changes) form a stretch: only the side of j's codes can be
live, and its bound is the plan's table value for j's row count. The walk
settles a stretch in one step. One seek per other column gives L(a), the
longest prefix of j's first code a that every column holds; per level the
walk stores the block [v, 0.0] or [0.0, v] and draws once, refutes the node
where a's side loses its rows, and at the stretch's end pushes each other
column's rows of the prefix settled. The blocks, draws and refutations are
those of the expansion level by level.
The walk reads an answer's codes off its prefix, and `Cursors.reset` returns
the cursors to the root. A node whose children are all 0 is proven
answer-free: its slot is zeroed, and so is every ancestor's whose children
are then all 0. The walk appended the blocks of the nodes below its cut one
level after another, so the climb finds their slots by arithmetic, and it
holds the cut node's slot; it walks from the root only once it goes past
the cut node's parent (`_refute`). On instances with
no answers the root's slot reaches 0 after finitely many refutations,
which is how emptiness is detected.
"""
from __future__ import annotations

import math
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .constraints import ConstraintSet
from .core import JoinQuery
from .estimators import CoverError, EstimatorContext, FractionalCover, check_coverage
from .index import seek

_NEW_BLOCK = array("i", [-1, -1])  # a new block's child slots: no child expanded yet


class EmptyAnswerSetError(Exception):
    """The query is provably answer-free: the root's value is 0, estimated or refuted."""

    def __init__(self, stats: "SamplerStats"):
        self.stats = stats
        super().__init__("answer set empty")


class WorkBudgetError(Exception):
    """Trial budget exhausted before collecting the requested samples."""

    def __init__(self, stats: "SamplerStats", answers: list):
        self.stats = stats
        self.answers = answers
        super().__init__(f"work budget exhausted after {stats.trials} trials")


@dataclass
class SamplerStats:
    trials: int = 0
    failures: int = 0
    answers_returned: int = 0
    up_root: float = 0.0
    final_up_root: float = 0.0

    @property
    def mean_trials_per_success(self) -> float:
        return self.trials / self.answers_returned if self.answers_returned else float("inf")

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "answers_returned": self.answers_returned,
            "up_root": self.up_root,
            "final_up_root": self.final_up_root,
            "mean_trials_per_success": (
                self.mean_trials_per_success if self.answers_returned else None
            ),
        }


class ValueStore:
    """Child values of every prefix the walks have expanded, as a trie of flat blocks.

    Slot 0 holds the root's estimate, taken when the store is built with its
    context at the root and kept as `up_root`. Expanding a node appends one
    block of its two child values to `values` and a parallel block of -1s to
    `child`, and points the node's slot in `child` at the block's offset. The
    values are the very floats `children_values` returns; a refutation zeroes
    the refuted node's slot (slot 0 for the root) and counts it in `refuted`.

    The store is not bounded: it holds one block per consistent inner node a
    walk has reached, so at most two values per node of the trace tree that
    the join itself calls, the join's recursive-call bound.
    """

    __slots__ = ("values", "child", "up_root", "refuted")

    def __init__(self, ctx: EstimatorContext) -> None:
        if ctx.fanout != 2:
            raise ValueError(f"the sampler walks two-way levels, not {ctx.fanout}-way ones")
        self.up_root = ctx.estimate()
        # `estimate` raises only on a finite log sum; an infinite root fails every walk.
        if not math.isfinite(self.up_root):
            raise CoverError("the root's bound overflows a float")
        self.values = array("d", [self.up_root])
        self.child = array("i", [-1])
        self.refuted = 0


def children_values(ctx: EstimatorContext) -> list[float]:
    """Expand the current node: its two children's values, the context left at the node.

    The walk's expansion by cursor moves, kept as its reference: per child,
    `bind`, `estimate` and `unbind`.
    """
    values = []
    for d in range(2):
        ctx.bind(d)
        values.append(ctx.estimate())
        ctx.unbind()
    return values


def _refute(store: ValueStore, prefix: Sequence[int], first: int, cut: int, cut_slot: int) -> None:
    """Zero the slot of the node at `prefix`, then each ancestor's whose children are all 0.

    A walk that cut at depth `cut`, at the node in slot `cut_slot`, appended one
    block per level from offset `first` on, so the node it reached at depth
    D > cut sits at first + 2 * (D - cut - 1) + prefix[D - 1], and the cut
    node's parent's block at cut_slot - prefix[cut - 1]. Only a climb that goes
    past that parent finds the slots above it from the root.
    """
    values, child = store.values, store.child
    depth = len(prefix)
    while depth > cut:
        depth -= 1
        at = first + 2 * (depth - cut)  # the block of the node at `depth`
        values[at + prefix[depth]] = 0.0
        store.refuted += 1
        if values[at] or values[at + 1]:
            return
    values[cut_slot] = 0.0
    store.refuted += 1
    if not depth:
        return
    at = cut_slot - prefix[depth - 1]  # the block of the cut node's parent
    if values[at] or values[at + 1]:
        return
    depth -= 1
    slots = [0]  # the slots of the nodes down to the cut node's parent, by depth
    for d in prefix[:depth]:
        slots.append(child[slots[-1]] + d)
    for i in range(depth, -1, -1):
        values[slots[i]] = 0.0
        store.refuted += 1
        if i:
            at = child[slots[i - 1]]
            if values[at] or values[at + 1]:
                return


def sample_once(
    ctx: EstimatorContext, store: ValueStore, rng: random.Random
) -> tuple[int, ...] | None:
    """One guided walk, in the module docstring's two phases: an answer's codes, or None.

    Each answer comes out with probability 1 / up(root); once the root's slot
    is 0 every walk fails. Walks that prove a subtree empty zero its slot.
    The context is at the root on return.
    """
    values, child = store.values, store.child
    value = values[0]
    if value <= 0.0:
        return None
    random = rng.random
    prefix: list[int] = []
    slot = 0
    # One uniform draw per level against cumulative child values; mass beyond
    # the children (clamped at >= 0 by construction) is the failure branch.
    # A leaf's slot has no block, so the draws stop there too.
    while True:
        at = child[slot]
        if at < 0:
            break
        r = random() * value
        value = values[at]
        if r < value:
            prefix.append(0)
            slot = at
        else:
            v1 = values[at + 1]
            if r < value + v1:
                prefix.append(1)
                slot = at + 1
                value = v1
            else:
                return None
    level, levels = len(prefix), ctx.levels
    if level == levels:
        return ctx.prefix_codes(prefix)
    plans, exp, k = ctx.frontier_plans, math.exp, ctx.per_var
    # The cut, its node's slot and where the walk's own blocks start (`_refute`).
    cut, cut_slot, first = level, slot, len(values)
    ctx.bind_prefix(prefix, ctx.frontier_cuts[level])
    try:
        while level < levels:
            # The node is consistent: every range has rows, and gives the midpoint.
            affected, w, terms, single = plans[level]
            if single is not None:
                j, end, table = single
                col, st = affected[j]
                lo, hi = st[-1]
                a = col[lo]
                # A stretch (module docstring): column j keeps all its rows on
                # the side of its first code a down to `stop`, where its codes
                # part or the plan ends. a's side dies at `dead`, below L(a)
                # (the largest `seek` miss over the other columns).
                stop = level + w.bit_length() - (col[hi - 1] ^ a).bit_length()
                if stop > end:
                    stop = end
                if stop > level:
                    n, miss, seeks = hi - lo, 0, []
                    for c, (col, st) in enumerate(affected):
                        if c != j:
                            lo, hi = st[-1]
                            q, m = seek(col, a, lo, hi, k)
                            if m > miss:
                                miss = m
                            seeks.append((col, st, lo, q, hi))
                    dead = level + w.bit_length() - miss
                    low = w >> (stop - 1 - level)  # the width of the last level settled
                    if dead > level:
                        v = table[n]
                        for level in range(level, stop if stop < dead else dead):
                            at = len(values)
                            if a & w:
                                d = 1
                                values.append(0.0)
                                values.append(v)
                            else:
                                d = 0
                                values.append(v)
                                values.append(0.0)
                            child.extend(_NEW_BLOCK)
                            child[slot] = at
                            if random() * value >= v:  # the draw against the block
                                return None
                            value = v
                            prefix.append(d)
                            slot = at + d
                            w >>= 1
                    if dead < stop:
                        _refute(store, prefix, first, cut, cut_slot)
                        return None
                    p = a & -low  # the prefix settled: each column's rows of it hold q
                    for col, st, lo, q, hi in seeks:
                        lo = q if p == a else bisect_left(col, p, lo, q)
                        st.append((lo, bisect_left(col, p + low, q, hi)))
                    level = stop
                    continue
            # Cut each column at the midpoint m: push child 0's rows (lo, mid)
            # and keep both children's row counts, in locals on two columns.
            # A walk that ends at this node leaves the pushed rows to `reset`.
            col, st = affected[0]
            lo, hi = st[-1]
            m = col[lo] & -w | w
            if len(affected) == 2:
                col1, st1 = affected[1]
                lo1, hi1 = st1[-1]
                mid = bisect_left(col, m, lo, hi)
                mid1 = bisect_left(col1, m, lo1, hi1)
                st.append((lo, mid))
                st1.append((lo1, mid1))
                n0, n1 = (mid - lo, mid1 - lo1), (hi - mid, hi1 - mid1)
                live0 = lo < mid and lo1 < mid1
                live1 = mid < hi and mid1 < hi1
            else:
                n0, n1 = [], []
                live0 = live1 = True
                for col, st in affected:
                    lo, hi = st[-1]
                    mid = bisect_left(col, m, lo, hi)
                    st.append((lo, mid))
                    n0.append(mid - lo)
                    n1.append(hi - mid)
                    if mid == lo:
                        live0 = False
                    elif mid == hi:
                        live1 = False
            if not (live0 or live1):
                _refute(store, prefix, first, cut, cut_slot)
                return None
            if single is None:
                # `bound`'s float operations for both children; a dead child gets none.
                t0 = t1 = 0.0
                for j, table, stack in terms:
                    if j >= 0:
                        t0 += table[n0[j]]
                        t1 += table[n1[j]]
                    else:
                        x = stack if table is None else table[stack[-1][1] - stack[-1][0]]
                        t0 += x
                        t1 += x
                v0 = exp(t0) if live0 else 0.0
                v1 = exp(t1) if live1 else 0.0
            else:
                v0 = table[n0[j]] if live0 else 0.0
                v1 = table[n1[j]] if live1 else 0.0
            at = len(values)  # the block, as the store's docstring lays it out
            values.append(v0)
            values.append(v1)
            child.extend(_NEW_BLOCK)
            child[slot] = at
            r = random() * value
            if r < v0:
                d = 0
                value = v0
            elif r < v0 + v1:
                d = 1
                value = v1
                for _, st in affected:  # child 0's rows (lo, mid) become child 1's (mid, hi)
                    st[-1] = (st[-1][1], st[-2][1])
            else:
                return None
            prefix.append(d)
            slot = at + d
            level += 1
        return ctx.prefix_codes(prefix)
    except OverflowError:
        # `bound` reads every term, so every stack is cut to the node that overflowed.
        ctx.reset()
        ctx.bind_prefix(prefix)
        children_values(ctx)  # raises `bound`'s CoverError there
        raise
    finally:
        ctx.reset()


class Sampler:
    """End-to-end sampler walking bit levels, emitting code rows.

    Constraint set, cover and order default as in `EstimatorContext` (AGM).
    """

    def __init__(
        self,
        query: JoinQuery,
        constraint_set: ConstraintSet | None = None,
        cover: FractionalCover | None = None,
        order: Sequence[str] | None = None,
    ):
        self.ctx = EstimatorContext(query, constraint_set, cover, order, bits=True)
        self.order = self.ctx.order
        # A supplied cover must cover every variable, or the samples are not uniform.
        if cover is not None:
            cs = self.ctx.constraint_set
            sets = [c.B - c.A for c in cs.constraints]
            uncovered = check_coverage(sets, cover.weights, sorted(cs.variables))
            if uncovered is not None:
                raise CoverError(f"supplied weights do not cover variable {uncovered!r}")
        self.store = ValueStore(self.ctx)

    def sample(
        self, k: int, rng: random.Random, max_work: int | None = None
    ) -> tuple[list[tuple[int, ...]], SamplerStats]:
        """k i.i.d. uniform answers (with replacement), or prove the query empty.

        Answers are code tuples aligned with the sampler's order. Raises
        EmptyAnswerSetError once the root's slot is 0 (refuted, or an estimate
        of 0), and WorkBudgetError when max_work trials pass without
        finishing. Later calls keep what earlier walks stored.
        """
        ctx, store = self.ctx, self.store
        stats = SamplerStats(up_root=store.up_root)
        answers: list[tuple[int, ...]] = []
        while True:
            # The root estimate is static; only a refutation of the root moves it.
            stats.final_up_root = store.values[0]
            if len(answers) >= k:
                return answers, stats
            if stats.final_up_root <= 0.0:
                raise EmptyAnswerSetError(stats)
            if max_work is not None and stats.trials >= max_work:
                raise WorkBudgetError(stats, answers)
            stats.trials += 1
            out = sample_once(ctx, store, rng)
            if out is None:
                stats.failures += 1
            else:
                answers.append(out)
                stats.answers_returned += 1
