"""The sweep protocol both enumerators speak, and its fixpoint proof.

A DenotationStream drives an enumerator: begin_sweep, then values(root,
d) for d = 0, 1, ...; where that repeats the depth d-1 set,
confirm_fixpoint(d) with self.root the root. The memo keeps a set per
node and depth, the depth k-1 object where the set did not change, so
that unchanged sets compare by identity at the next depth.

A node's set at depth k is computed from the nodes it reads: nodes at
k-1, and strictly smaller nodes at k; what it finds at k-1 decides what
it reads. A function-free node is settled: its set never changes, and
it is answered without a memo entry. The sweeper records, for each node
and depth it computes, the nodes that computation read, in the order it
read them. The proof is a stability check over those reads, as in
chaotic iteration (Bourdoncle, "Efficient chaotic iteration strategies
with widenings", 1993), and needs no monotonicity in depth. The
read-closure of the root at d holds the root and, with each unsettled
node x, the nodes recorded for x at d. If each unsettled x of the
closure has the same set at d as at d-1, then it has at d+n too, for
every n, by induction on n and then on the size of x: at d+n+1, x finds
at d+n what it found at d-1, so it reads the same nodes and computes the
same set, and the smaller nodes it reads at its own depth keep theirs by
the induction on size. A cache that stands for reads records them again
on every hit, so the record holds every read the set depends on.

The walk is breadth first and stops at the first changed set, since each
step forces entries at depth d. Nothing outside the closure reaches the
root, so neither the whole support nor a sweep that changed no entry is
needed. A check over the whole support passes only when the support is
closed under reads at d and kept its sets; the closure lies inside it,
so that check proves no later.

Freezing applies the same induction to one node (semi-naive
evaluation: Bancilhon and Ramakrishnan, "An amateur's introduction to
recursive query processing strategies", SIGMOD 1986). A node is frozen
from f when its set is the same at every depth >= f. While x is computed
at k, the sweeper counts its reads of a node y at j not yet frozen from
a depth <= j. If there are none, x is frozen from k with its set: at k+n
it finds at j+n the sets it found at j, so it reads the same nodes,
computes the same set and passes the same budget checks, by induction
on n, again with no monotonicity. A call at depth 0 reads nothing yet is
_|_, as no rule unfolds: it never freezes, nor does a node that reads
it. A read behind a cache entry is counted again on every hit.
values(x, k) of a node frozen from f <= k is a lookup that neither
visits nor stores anything. A node freezes once.

The proof skips a node frozen from a depth <= d-1, as it skips a settled
one. Such a node reads at d only nodes frozen from <= d-1, by the same
shift, so the walk through them could not fail: the proof passes at the
depth it would without freezing, and a frozen root proves at once.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional, Tuple

from .syntax import Program
from .terms import Term


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration outgrows the enumerator's value budget.

    Only enumerators constructed with a budget raise this; interactive use
    runs unbudgeted. The budget counts the members of one memoized set,
    for the calculi the maximal values of an antichain. A product is sized
    before it is built, so an overflow builds no set it cannot keep. The
    sets memoized before the overflow stay valid."""


class Sweeper:
    """The memo, the frozen table, the read record, the budget and the
    fixpoint proof of one program's enumerator (module docstring). A
    subclass provides values(e, k), which answers a settled e at once,
    else by _lookup, or opens a record with _begin, computes and closes
    it with _keep. The memo and the record are keyed (node, depth); the
    node of e's set is e, and other nodes need _settled and _at
    overridden."""

    def __init__(self, program: Program, value_budget: Optional[int] = None):
        self.program = program
        self.root: Optional[Term] = None
        self._budget = value_budget
        self._fnames = frozenset(program.signature.functions)
        self._memo: Dict[tuple, FrozenSet] = {}
        # per frozen node: the depth it is frozen from, and its set
        self._frozen: Dict[object, Tuple[int, FrozenSet]] = {}
        # per (node, k) computed: the nodes its computation read, in order
        self._record: Dict[tuple, tuple] = {}
        # the reads of the computation under way, None outside one
        self._reading: Optional[list] = None
        # reads so far of a node not frozen at the depth read
        self._thaws = 0

    # perfbench/layers.py counts sweeps by it, and
    # tests/oracles.SupportWideEnumerator marks its sweeps clean in it
    def begin_sweep(self):
        """A sweep starts outside any computation: a record that an
        exception left open is dropped."""
        self._reading = None

    @property
    def memo_entries(self) -> int:
        return len(self._memo)

    def _fit(self, size: int) -> None:
        if self._budget is not None and size > self._budget:
            raise BudgetExceeded(
                "value set of size %d exceeds the budget %d" % (size, self._budget)
            )

    def _lookup(self, node, k: int, read: bool = True) -> Optional[FrozenSet]:
        """The node's set at k, frozen or memoized, else None. A read is
        recorded for the computation under way, and a memo hit read counts
        a thaw."""
        if read and self._reading is not None:
            self._reading.append(node)
        got = self._frozen.get(node)
        if got is not None and got[0] <= k:
            return got[1]
        got = self._memo.get((node, k))
        if got is not None and read:
            self._thaws += 1
        return got

    def _begin(self) -> tuple:
        """Opens the record of a computation: what _end needs to close it."""
        outer = self._reading
        self._reading = []
        return self._thaws, outer

    def _end(self, start: tuple) -> tuple:
        """Closes the record opened at start: its reads, as a tuple
        (CPython shares the empty one)."""
        reads = tuple(self._reading)
        self._reading = start[1]
        return reads

    def _replay(self, reads: tuple) -> None:
        """Records reads again, for a cache hit that stands for them."""
        if self._reading is not None:
            self._reading.extend(reads)

    def _keep(self, key: tuple, result: FrozenSet, start: tuple) -> FrozenSet:
        """Memoize result under key, (node, k), as the depth k-1 object if
        equal, with the reads recorded since start. Freeze the node from k
        if none thawed since; else count a thaw."""
        node, k = key
        prev = self._memo.get((node, k - 1))
        if prev is not result and prev == result:
            result = prev
        self._memo[key] = result
        self._record[key] = self._end(start)
        if self._thaws == start[0]:
            self._frozen.setdefault(node, (k, result))
        else:
            self._thaws += 1
        return result

    def _settled(self, node) -> bool:
        return node.symbols.isdisjoint(self._fnames)

    def _at(self, node, k: int) -> FrozenSet:
        return self.values(node, k)

    def confirm_fixpoint(self, depth: int) -> bool:
        """Whether values(self.root, depth + n) equals values(self.root,
        depth) for every n, by a breadth-first walk over the recorded
        read-closure (module docstring)."""
        seen = {self.root}
        todo = deque(seen)
        while todo:
            node = todo.popleft()
            frozen = self._frozen.get(node)
            if self._settled(node) or (frozen is not None and frozen[0] < depth):
                continue
            before, now = self._at(node, depth - 1), self._at(node, depth)
            if now is not before and now != before:
                return False
            for y in self._record[node, depth]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return True
