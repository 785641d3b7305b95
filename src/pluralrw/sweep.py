"""The sweep protocol both enumerators speak, and its fixpoint proof.

A DenotationStream drives an enumerator: begin_sweep, then values(root,
d) for d = 0, 1, ...; where that repeats the depth d-1 set,
confirm_fixpoint(d) with self.root the root. The memo keeps a set per
node and depth, the depth k-1 object where the set did not change, so
that unchanged sets compare by identity at the next depth.

A node's set at depth k is computed from the nodes it reads: nodes at
k-1, and strictly smaller nodes at k; what it finds at k-1 decides what
it reads. A function-free node is settled: its set never changes. The
proof is a stability check over the reads, as in chaotic iteration
(Bourdoncle, "Efficient chaotic iteration strategies with widenings",
1993), and needs no monotonicity in depth. The read-closure of the root
at d holds the root and, with each unsettled node x, the nodes x reads
at d. If each unsettled x of the closure has the same set at d as at
d-1, then it has at d+n too, for every n, by induction on n and then on
the size of x: at d+n+1, x finds at d+n what it found at d-1, so it reads
the same nodes and computes the same set, and the smaller nodes it reads
at its own depth keep theirs by the induction on size. Each engine's
docstring lists its reads and its own step.

The walk is breadth first and stops at the first changed set, since each
step forces entries at depth d. Nothing outside the closure reaches the
root, so neither the whole support nor a sweep that changed no entry is
needed. A check over the whole support passes only when the support is
closed under reads at d and kept its sets; the closure lies inside it,
so that check proves no later.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Optional

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
    """The memo, the budget and the fixpoint proof of one program's
    enumerator (module docstring). A subclass provides values(expr, k)
    and _reads(node, k); a node is an expression unless the subclass
    overrides _node, _settled and _at."""

    def __init__(self, program: Program, value_budget: Optional[int] = None):
        self.program = program
        self.root: Optional[Term] = None
        self._budget = value_budget
        self._fnames = frozenset(program.signature.functions)
        self._memo: Dict[tuple, FrozenSet] = {}

    # does nothing here; perfbench/layers.py counts sweeps by it, and
    # tests/oracles.SupportWideEnumerator marks its sweeps clean in it
    def begin_sweep(self):
        pass

    @property
    def memo_entries(self) -> int:
        return len(self._memo)

    def _fit(self, size: int) -> None:
        if self._budget is not None and size > self._budget:
            raise BudgetExceeded(
                "value set of size %d exceeds the budget %d" % (size, self._budget)
            )

    def _keep(self, key: tuple, prev_key: tuple, result: FrozenSet) -> FrozenSet:
        """Memoize result under key, as the object under prev_key, the
        node's depth k-1 entry, where the two are equal."""
        prev = self._memo.get(prev_key)
        if prev is not result and prev == result:
            result = prev
        self._memo[key] = result
        return result

    def _node(self, expr: Term):
        """The node of expr's own set."""
        return expr

    def _settled(self, node) -> bool:
        return node.symbols.isdisjoint(self._fnames)

    def _at(self, node, k: int) -> FrozenSet:
        return self.values(node, k)

    def confirm_fixpoint(self, depth: int) -> bool:
        """Whether values(self.root, depth + n) equals values(self.root,
        depth) for every n, by a breadth-first walk over the read-closure
        (module docstring)."""
        seen = {self._node(self.root)}
        todo = deque(seen)
        while todo:
            node = todo.popleft()
            if self._settled(node):
                continue
            before, now = self._at(node, depth - 1), self._at(node, depth)
            if now is not before and now != before:
                return False
            for y in self._reads(node, depth):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        return True
