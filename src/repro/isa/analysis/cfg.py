"""Basic blocks and the control-flow graph over disassembled routines.

Kernel routines here are leaf procedures with structured control flow
(conditional branches, backward loops, ``ret``/``panic`` exits), so the
CFG is small and exact: every branch target is a label recovered by the
disassembler, ``jsr`` falls through (the callee returns), and
``ret``/``panic``/``halt`` terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.analysis.disasm import Disassembly
from repro.isa.encoding import BRANCH_OPS, Op

#: Opcodes after which control does not continue to the next instruction.
TERMINATORS = frozenset({Op.RET, Op.PANIC, Op.HALT})


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``start``/``end`` are word indices into the routine (``end`` is
    exclusive).  ``succs``/``preds`` hold the *start* indices of
    neighbouring blocks.
    """

    start: int
    end: int
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    #: True when the block ends in ret/panic/halt (leaves the routine).
    terminates: bool = False

    @property
    def indices(self) -> range:
        return range(self.start, self.end)


@dataclass
class CFG:
    """The control-flow graph of one disassembled routine."""

    dis: Disassembly
    blocks: dict[int, BasicBlock]
    entry: int = 0
    #: True when the last instruction can fall through past the end of the
    #: routine (into whatever follows in the text image).
    falls_off_end: bool = False

    def reachable(self) -> set[int]:
        """Start indices of blocks reachable from the entry."""
        seen: set[int] = set()
        work = [self.entry]
        while work:
            start = work.pop()
            if start in seen or start not in self.blocks:
                continue
            seen.add(start)
            work.extend(self.blocks[start].succs)
        return seen

    def sccs(self) -> list[list[int]]:
        """Strongly connected components (Tarjan), as lists of block starts."""
        index_of: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        out: list[list[int]] = []
        counter = [0]

        def strongconnect(v: int) -> None:
            # Iterative Tarjan: (node, iterator position) frames.
            frames = [(v, 0)]
            while frames:
                node, pos = frames.pop()
                if pos == 0:
                    index_of[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                succs = self.blocks[node].succs
                advanced = False
                for i in range(pos, len(succs)):
                    succ = succs[i]
                    if succ not in index_of:
                        frames.append((node, i + 1))
                        frames.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        component.append(w)
                        if w == node:
                            break
                    out.append(component)
                if frames:
                    parent = frames[-1][0]
                    low[parent] = min(low[parent], low[node])

        for start in self.blocks:
            if start not in index_of:
                strongconnect(start)
        return out

    def loops_without_exit(self) -> list[list[int]]:
        """SCCs forming loops from which control can never leave.

        A component is inescapable when it is a real loop (more than one
        block, or one block with a self edge) and no block in it either
        terminates or branches outside the component.
        """
        bad: list[list[int]] = []
        for component in self.sccs():
            members = set(component)
            is_loop = len(component) > 1 or any(
                s in members for s in self.blocks[component[0]].succs
            )
            if not is_loop:
                continue
            escapes = any(
                self.blocks[start].terminates
                or any(succ not in members for succ in self.blocks[start].succs)
                for start in component
            )
            if not escapes:
                bad.append(sorted(component))
        return bad


def build_cfg(dis: Disassembly) -> CFG:
    """Construct the CFG of a disassembled routine."""
    n = dis.num_words
    leaders: set[int] = {0} if n else set()
    for line in dis.lines:
        op = line.inst.op
        if op in BRANCH_OPS:
            leaders.add(line.target)
            if line.index + 1 < n:
                leaders.add(line.index + 1)
        elif op in TERMINATORS or op is Op.JSR:
            if line.index + 1 < n:
                leaders.add(line.index + 1)

    starts = sorted(leaders)
    blocks: dict[int, BasicBlock] = {}
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        blocks[start] = BasicBlock(start=start, end=end)

    falls_off_end = False
    for block in blocks.values():
        last = dis.lines[block.end - 1]
        op = last.inst.op
        if op in TERMINATORS:
            block.terminates = True
        elif op is Op.BR:  # unconditional (the link register is just written)
            block.succs.append(last.target)
        elif op in BRANCH_OPS:  # conditional: may fall through
            block.succs.append(last.target)
            if block.end < n:
                block.succs.append(block.end)
            else:
                falls_off_end = True
        else:  # straight-line fall-through (incl. jsr: the callee returns)
            if block.end < n:
                block.succs.append(block.end)
            else:
                falls_off_end = True

    for block in blocks.values():
        for succ in block.succs:
            blocks[succ].preds.append(block.start)
    return CFG(dis=dis, blocks=blocks, falls_off_end=falls_off_end)
