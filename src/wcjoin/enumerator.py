"""Branch-and-bound join enumeration, in the order `constraints.resolve_order` picks.

wcj() is the plain algorithm: bind variables in order, try every domain code,
backtrack as soon as some relation has no matching row. wcj_binarised() binds
codes one bit at a time, MSB first, which prunes whole blocks of useless
codes after a single bit and is what makes the search worst-case optimal.
Both run on one `index.Cursors` over the original sorted relations, depth
first from an explicit stack, so the n variables and n*b bit levels are not
limited by Python's recursion limit.

Both searches record one count: the consistent nodes at each depth. Branch
and bound calls each of the `fanout` children of every consistent inner node
and nothing else, so the calls one level down are `fanout` times the
consistent nodes of this level, and `EnumerationStats.derive` builds every
other statistic from that identity.

wcj() steps through every child with `Cursors.bind/unbind`. The bit search
settles one variable per step: within a consistent node's ranges the
variable's columns are sorted, so its consistent bit prefixes can be read off
the longest common prefixes of codes in its smallest column with their
neighbours in the others, and one bisect seeks past each block of codes that
some column lacks (leapfrog seeks on dyadic prefixes; Veldhuizen, ICDT 2014).
A variable on exactly two columns, as in triangles, paths and cycles over
binary relations, is scanned by a dedicated two-column loop. The last
variable's consistent leaves are the answers. An uncached last variable on
two columns, as in a triangle, is settled at its parent's leaves: the
parent's scan reads both columns' rows of its leaf code and scans them by
the two-column loop's rules in place, entering no node of its own. Any
other last variable is scanned like every other.
Over `binary.bin_query`'s copy, wcj() is the independent reference the bit
search is tested against.

The bit search also caches a variable's subtree when the subtree depends on
only part of the prefix above it, keyed by the rows it reads (trie-join
caching; Kalinsky, Etsion & Kimelfeld, EDBT 2017): on a path, the subtree
below x(i-1) = a is searched once, however many prefixes reach a. A cached
subtree is replayed, not searched again, so its counts are derived with
multiplicities rather than executed. They still describe the paper's search
tree node for node, and the answers come in the same order.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from operator import mul
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
    return _seek_search(Cursors(query.relations, order, query.domain_size, True), sink)


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
            sink(tuple(child))  # at plain levels each child index is a code
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


def _cache_keys(on_var: list) -> list:
    """For each variable, the stacks whose top ranges fix its subtree, or None.

    Variable i's subtree reads the relations on variables i and later, and
    of those only the ones that also hold an earlier variable have left
    their root ranges: their top ranges are i's key. A relation's ranges for
    distinct codes of its earlier variables are disjoint and nonempty, so
    the starts of the top ranges tell keys apart. If the earlier variables
    of the key's relations are all of x0..x(i-1), every prefix has a key of
    its own and i is not cached (None); else prefixes that differ only
    outside them share one subtree. The key may be empty (a cross product).

    The cached variables are a suffix. i's key relations are those with a
    variable before i and one at or after it. If a later variable j is not
    cached, each of x0..x(i-1) lies in a key relation of j, which holds it
    before i and a variable at or after j: a key relation of i too. So i is
    not cached either, and the search caches from the first cached one down.
    """
    held: dict[int, tuple[list, list[int]]] = {}  # each relation's stack and variables
    for i, aff in enumerate(on_var):
        for _, st in aff:
            held.setdefault(id(st), (st, []))[1].append(i)
    keys = []
    for i in range(len(on_var)):
        stacks, earlier = [], set()
        for st, vs in held.values():
            if vs[0] < i <= vs[-1]:
                stacks.append(st)
                earlier.update(v for v in vs if v < i)
        keys.append(stacks if len(earlier) < i else None)
    return keys


def _replay(entry: list, i: int, last: int, codes: list[int], sink: Sink, skip: int) -> None:
    """Emit the answers of variable i's recorded entry under codes[:i], in code order.

    An entry's items start at index `skip`: leaf codes at the last variable,
    else (code, child entry) pairs laid out flat.
    """
    if i == last:
        head = tuple(codes)
        for c in entry[skip:]:
            sink(head + (c,))
        return
    items = iter(entry[skip:])
    todo = [zip(items, items)]  # the pairs left at each variable from i down
    while todo:
        for c, child in todo[-1]:
            codes[i] = c
            if i + 1 < last:
                items = iter(child[skip:])
                todo.append(zip(items, items))
                i += 1
                break
            head = tuple(codes)
            for leaf in child[skip:]:
                sink(head + (leaf,))
        else:
            todo.pop()
            i -= 1


def _smallest(aff: list) -> tuple[tuple, list]:
    """The narrowed column with the fewest rows (the first such), and the others
    as (column, stack, runs, lo, hi), with their top ranges."""
    # A plain loop: min() with a key made the whole search 8-15 % slower.
    scan = aff[0]
    for cs in aff:
        lo, hi = cs[1][-1]
        if hi - lo < scan[1][-1][1] - scan[1][-1][0]:
            scan = cs
    return scan, [(*cs, *cs[1][-1]) for cs in aff if cs is not scan]


def _seek_search(cur: Cursors, sink: Sink) -> EnumerationStats:
    """Settle one variable per step by seeks over its smallest column.

    A bit prefix of the variable being bound is consistent iff every
    narrowed column holds a code with that prefix, so every consistent node
    of the variable's subtree is a prefix of some code in the column S with
    the fewest rows. For a code `a` of S, L(a) is the longest prefix of `a`
    that every other column holds: the least, over the other columns, of
    `a`'s longest common prefix with its two neighbours there. Scanned in
    sorted order, `a` adds one consistent node at each variable depth in
    (lcp(previous scanned code, a), L(a)]. If L(a) falls short of the
    variable's bits, the codes sharing a's (L + 1)-bit prefix, an
    inconsistent child, add nothing, and one bisect in S seeks past them.
    Otherwise `a` is a consistent leaf: the search pushes every column's
    rows of `a` and enters the next variable. At the last variable the leaf
    is an answer instead: the scan emits it, appends `a` to the visit's
    entry when the visit is recorded, and steps past it. A column's rows of
    `a` end `a`'s run length (`Cursors.runs`) after its first row there, so
    a leaf costs no bisect beyond the seeks that found it (a trie iterator
    moves into a code's rows without searching again). Each scanned code
    is a distinct consistent leaf or inconsistent child and costs at most
    two bisects per column, so the paper's bound on recursive calls bounds
    the work too.

    A variable on exactly two columns is scanned by a dedicated kernel: the
    other column's range is read once per node, the lower neighbour only on
    a miss, and a leaf pushes that column's rows of `a` directly.

    The last variable is settled at its parent's leaves when it is
    uncached, lies on exactly two columns and has a parent: in a triangle,
    or wherever its two relations hold every earlier variable. Each node
    entry of the parent notes where each of those columns reads its rows of
    a leaf code: the scanned column's run, the other column's run (or, in
    the generic scan, that column's seek), or its stack's top range, which
    the node does not move. At a leaf the parent's scan reads the two
    ranges, scans the smaller against the other as the kernel does, the
    first on a tie, counts into the same depths and emits the answers in
    code order. It then goes on past the leaf's rows: no range is pushed,
    no scan saved and none climbed out of. A last variable on one column or
    on three or more, or a cached one, is entered as above.

    Subtrees are cached by the rows they read (`_cache_keys`). From the
    first cached variable down, every visit of variable i is recorded as
    one flat list, its entry: [extra, its count differences at depths
    i*k + 1 .. i*k + k + 1, items...], the items being its leaf codes at
    the last variable, else (code, child entry) pairs. A descent is linked
    into its parent's entry when the parent is recorded. If its key is
    cached, it pops the ranges it pushed, adds 1 to the entry's `extra`
    and replays the entry's answers after the current prefix. After the
    search each entry's `extra` gains its parents' `extra`, one per link,
    level by level, and the entry adds its differences (1 + extra) times to
    the counts. So the counts are those of the paper's search tree,
    derived with multiplicities, not executed.
    """
    levels, k = cur.levels, cur.per_var
    if any(st[-1][0] == st[-1][1] for st in cur.stacks):
        return EnumerationStats.derive([0] * (levels + 1), 2)
    if not levels:
        sink(())
        return EnumerationStats.derive([1], 2)
    # Differences of the consistent nodes per depth: +1 where a run of
    # depths starts, -1 one past where it ends.
    diff = [0] * (levels + 2)
    diff[0], diff[1] = 1, -1
    # Each variable's (column, stack, runs) triples.
    on_var = [
        [(col, st, runs) for (col, st), runs in zip(aff, rs)]
        for aff, rs in zip(cur.affected[::k], cur.runs)
    ]
    last = len(on_var) - 1
    codes = [0] * last
    saved = [None] * last  # the scan of each variable above the current one
    keys = _cache_keys(cur.affected[::k])
    first = next((i for i, ks in enumerate(keys) if ks is not None), last + 1)
    caches = [{} for _ in on_var]  # entry by key, at each cached variable
    made = [[] for _ in on_var]  # the entries recorded at each variable
    entry = [None] * (last + 1)  # the entry of the current visit at each variable
    skip = k + 2  # an entry is [extra, its k + 1 count differences, items...]
    head = ()  # the codes above the last variable, at a visit of it
    # An uncached last variable on two columns is settled at its parent's
    # leaves (see above). Leaves of variables before `stop` descend; node
    # entries before `split` are neither recorded nor the settling parent's.
    settle = 0 < last < first and len(on_var[last]) == 2
    stop = last - 1 if settle else last
    split = stop if settle else first
    if settle:
        (lcol0, lst0, _), (lcol1, lst1, _) = on_var[last]
    i = 0
    enter = True
    while True:
        if enter:
            # A consistent node on variable i's first bit level: S is the
            # narrowed column with the fewest rows.
            aff = on_var[i]
            if len(aff) == 2:  # the two-column kernel
                scan, (ocol, ost, orun) = aff
                pos, end = scan[1][-1]
                olo, ohi = ost[-1]
                if ohi - olo < end - pos:
                    scan, (ocol, ost, orun) = (ocol, ost, orun), scan
                    pos, end, olo, ohi = olo, ohi, pos, end
                others = None
            else:
                scan, others = _smallest(aff)
                pos, end = scan[1][-1]
                ocol = ost = orun = olo = ohi = None
            col_s, run_s = scan[0], scan[2]
            # A recorded visit counts into its entry: its index t there is
            # depth i*k + t. A code's nodes run from index bound - d to one
            # short of bound - miss.
            if i < split:
                bound = i * k + k + 1
                dif = diff
            elif i >= first:
                bound = k + 1
                dif = entry[i]
            else:
                # The settling parent: where each of the last variable's
                # columns reads its rows of a leaf code. 1: the scanned
                # column's run; 2: the other column's run; (column, runs,
                # lo, hi): that column's seek; 0: its stack's top range,
                # fixed over the node.
                bound = i * k + k + 1
                dif = diff
                lo0, hi0 = lst0[-1]
                lo1, hi1 = lst1[-1]
                src0 = 1 if lst0 is scan[1] else 2 if lst0 is ost else 0
                src1 = 1 if lst1 is scan[1] else 2 if lst1 is ost else 0
                for col, st, run, lo, hi in others or ():
                    if st is lst0:
                        src0 = col, run, lo, hi
                    elif st is lst1:
                        src1 = col, run, lo, hi
            prev = col_s[pos] ^ (1 << (k - 1))  # differs from the first code in its top bit
            enter = False
        while pos < end:
            # A code x shares k - (x ^ a).bit_length() leading bits with a:
            # a misses the last `miss` bits of L(a), and d bits after its
            # common prefix with the code scanned before it. The seeks are
            # `index.seek` inlined: a call per code costs the join 1-7 %.
            a = col_s[pos]
            if ocol is not None:
                q = bisect_left(ocol, a, olo, ohi)
                miss = (ocol[q] ^ a).bit_length() if q < ohi else k
                if miss and q > olo:
                    m = (ocol[q - 1] ^ a).bit_length()
                    if m < miss:
                        miss = m
            else:
                miss = 0
                for col, st, _, lo, hi in others:
                    q = bisect_left(col, a, lo, hi)
                    m = (col[q] ^ a).bit_length() if q < hi else k
                    if m and q > lo:
                        m = min(m, (col[q - 1] ^ a).bit_length())
                    if m > miss:
                        miss = m
            d = (prev ^ a).bit_length()
            if d > miss:
                dif[bound - d] += 1
                dif[bound - miss] -= 1
            prev = a
            if miss:
                # Seek past the codes sharing a's prefix one bit longer than L(a).
                pos = bisect_left(col_s, ((a >> (miss - 1)) + 1) << (miss - 1), pos + 1, end)
            elif i < stop:
                break
            elif i < last:
                # a is a leaf of the settling parent: scan the last variable's
                # columns over their rows of a as the two-column kernel does,
                # with no push, and go on at the end of a's rows.
                nxt = pos + run_s[pos]
                if src0 == 1:
                    lo0, hi0 = pos, nxt
                elif src0 == 2:
                    lo0 = q
                    hi0 = q + orun[q]
                elif src0:
                    col, run, lo, hi = src0
                    lo0 = bisect_left(col, a, lo, hi)
                    hi0 = lo0 + run[lo0]
                if src1 == 1:
                    lo1, hi1 = pos, nxt
                elif src1 == 2:
                    lo1 = q
                    hi1 = q + orun[q]
                elif src1:
                    col, run, lo, hi = src1
                    lo1 = bisect_left(col, a, lo, hi)
                    hi1 = lo1 + run[lo1]
                if hi1 - lo1 < hi0 - lo0:
                    lcol, lpos, lend, xcol, xlo, xhi = lcol1, lo1, hi1, lcol0, lo0, hi0
                else:
                    lcol, lpos, lend, xcol, xlo, xhi = lcol0, lo0, hi0, lcol1, lo1, hi1
                lprev = lcol[lpos] ^ (1 << (k - 1))
                head = None
                while lpos < lend:
                    b = lcol[lpos]
                    q = bisect_left(xcol, b, xlo, xhi)
                    miss = (xcol[q] ^ b).bit_length() if q < xhi else k
                    if miss and q > xlo:
                        m = (xcol[q - 1] ^ b).bit_length()
                        if m < miss:
                            miss = m
                    d = (lprev ^ b).bit_length()
                    if d > miss:
                        diff[levels + 1 - d] += 1
                        diff[levels + 1 - miss] -= 1
                    lprev = b
                    if miss:
                        lpos = bisect_left(lcol, ((b >> (miss - 1)) + 1) << (miss - 1), lpos + 1, lend)
                    else:
                        # b is an answer; a last column's runs are single rows.
                        if head is None:
                            codes[i] = a
                            head = tuple(codes)
                        sink(head + (b,))
                        lpos += 1
                pos = nxt
            else:
                # a is an answer: emit it, record it and step past its run.
                sink(head + (a,))
                if dif is not diff:
                    dif.append(a)
                pos += run_s[pos]
        else:
            # Variable i is done: climb to the scan of the variable above.
            if not i:
                break
            i -= 1
            aff = on_var[i]
            for _, st, _ in aff:
                st.pop()
            scan, others, ocol, ost, orun, olo, ohi, pos, end, prev, dif, bound = saved[i]
            col_s, run_s = scan[0], scan[2]
            continue
        # a is a consistent leaf: push every column's rows of a, which end
        # its run length after its first row there.
        nxt = pos + run_s[pos]
        scan[1].append((pos, nxt))
        if ocol is not None:
            ost.append((q, q + orun[q]))
        else:
            # The generic scan seeks a again here: keeping each column's q
            # in a list per scanned code cost answer-dense joins 5 %.
            for col, st, run, lo, hi in others:
                q = bisect_left(col, a, lo, hi)
                st.append((q, q + run[q]))
        codes[i] = a
        pos = nxt
        j = i + 1
        if j >= first:
            # Record the visit of variable j, or link and replay the entry
            # its key already has.
            ks = keys[j]
            key = ks[0][-1][0] if len(ks) == 1 else tuple([st[-1][0] for st in ks])
            hit = caches[j].get(key)
            child = hit or [0] * skip
            if j > first:
                entry[i].append(a)
                entry[i].append(child)
            if hit:
                hit[0] += 1
                for _, st, _ in aff:
                    st.pop()
                _replay(hit, j, last, codes, sink, skip)
                continue
            made[j].append(child)
            caches[j][key] = child
            entry[j] = child
        if j == last:
            head = tuple(codes)
        saved[i] = (scan, others, ocol, ost, orun, olo, ohi, pos, end, a, dif, bound)
        i = j
        enter = True
    # Each hit on an entry, and each extra visit of a parent it is linked to,
    # replays it once more: those extra visits, e[0], run down the links level
    # by level. Then each entry's differences count 1 + e[0] times, summed
    # column by column.
    for j in range(first, last):
        for e in made[j]:
            m = e[0]
            if m:
                for child in e[skip + 1 :: 2]:
                    child[0] += m
    for j in range(first, last + 1):
        columns = zip(*made[j])
        weights = [1 + m for m in next(columns, ())]
        for t, col in zip(range(j * k + 1, j * k + skip), columns):
            diff[t] += sum(map(mul, weights, col))
    for depth in range(1, levels + 1):
        diff[depth] += diff[depth - 1]
    return EnumerationStats.derive(diff[:-1], 2)
