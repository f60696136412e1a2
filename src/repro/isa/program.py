"""Program container: an ordered list of HISQ instructions plus metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .instructions import Instruction


@dataclass
class Program:
    """An assembled HISQ binary for one controller.

    Attributes
    ----------
    name:
        Human-readable identifier (typically the controller name).
    instructions:
        Decoded instructions in program order.
    labels:
        Label name -> instruction index (informational).
    """

    name: str = "program"
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)

    def __len__(self):
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def append(self, instruction: Instruction) -> None:
        """Append one instruction."""
        self.instructions.append(instruction)

    def extend(self, instructions) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)

    def listing(self) -> str:
        """Return a human-readable listing with indices and labels."""
        index_to_label = {v: k for k, v in self.labels.items()}
        lines = ["# {} ({} instructions)".format(self.name, len(self))]
        for i, instr in enumerate(self.instructions):
            if i in index_to_label:
                lines.append("{}:".format(index_to_label[i]))
            lines.append("  {:4d}  {}".format(i, instr.text()))
        return "\n".join(lines)

    def count(self, mnemonic: str) -> int:
        """Number of instructions with the given mnemonic."""
        return sum(1 for i in self.instructions if i.mnemonic == mnemonic)

    def static_timeline_cycles(self) -> int:
        """Sum of immediate wait durations (lower bound on timeline length).

        Register waits and sync stalls are unknown statically and excluded.
        """
        return sum(i.imm for i in self.instructions if i.mnemonic == "waiti")
