"""Modules, functions and basic blocks."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.compiler.ir.instructions import Instruction, Phi
from repro.compiler.ir.types import FunctionType, Type
from repro.compiler.ir.values import Argument, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions ending in a terminator."""

    def __init__(self, name: str, parent: Optional["Function"] = None):
        # Blocks are values only so that branches can reference them uniformly.
        from repro.compiler.ir.types import VOID
        super().__init__(VOID, name)
        self.parent = parent
        self.instructions: List[Instruction] = []

    # -- instruction management ----------------------------------------------------

    def append(self, instruction: Instruction) -> Instruction:
        if self.terminator is not None:
            raise ValueError(
                f"block {self.name} already has a terminator; cannot append "
                f"{instruction.opcode}"
            )
        instruction.parent = self
        self.instructions.append(instruction)
        return instruction

    def insert(self, index: int, instruction: Instruction) -> Instruction:
        instruction.parent = self
        self.instructions.insert(index, instruction)
        return instruction

    def remove(self, instruction: Instruction) -> None:
        self.instructions.remove(instruction)
        instruction.parent = None

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def phis(self) -> List[Phi]:
        return [i for i in self.instructions if isinstance(i, Phi)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def short_name(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"BasicBlock({self.name}, {len(self.instructions)} instructions)"


class Function(Value):
    """A function: a signature plus a list of basic blocks.

    A function with no blocks is a *declaration* -- used for the runtime
    entry points (``mperf_roofline_internal_*``) the instrumentation pass
    inserts calls to.
    """

    def __init__(self, name: str, ftype: FunctionType,
                 arg_names: Optional[Sequence[str]] = None,
                 parent: Optional["Module"] = None):
        super().__init__(ftype, name)
        self.ftype = ftype
        self.parent = parent
        self.blocks: List[BasicBlock] = []
        self.metadata: Dict[str, object] = {}
        self.source_file: str = ""
        names = list(arg_names) if arg_names else [
            f"arg{i}" for i in range(len(ftype.param_types))
        ]
        if len(names) != len(ftype.param_types):
            raise ValueError("argument name count does not match signature")
        self.args: List[Argument] = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(ftype.param_types, names))
        ]
        self._next_value_id = 0
        self._next_block_id = 0

    # -- naming helpers --------------------------------------------------------------

    def next_value_name(self, hint: str = "") -> str:
        name = f"{hint}{self._next_value_id}" if hint else f"v{self._next_value_id}"
        self._next_value_id += 1
        return name

    def next_block_name(self, hint: str = "bb") -> str:
        name = f"{hint}{self._next_block_id}"
        self._next_block_id += 1
        return name

    # -- structure --------------------------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self) -> Type:
        return self.ftype.return_type

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "") -> BasicBlock:
        block = BasicBlock(name or self.next_block_name(), parent=self)
        self.blocks.append(block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def block_by_name(self, name: str) -> Optional[BasicBlock]:
        for block in self.blocks:
            if block.name == name:
                return block
        return None

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.blocks)

    def short_name(self) -> str:
        return f"@{self.name}"

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"Function({kind} {self.ftype.return_type} @{self.name}, {len(self.blocks)} blocks)"


class Module:
    """A compilation unit: an ordered collection of functions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.metadata: Dict[str, object] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"function {function.name!r} already exists in module")
        function.parent = self
        self.functions[function.name] = function
        return function

    def create_function(self, name: str, ftype: FunctionType,
                        arg_names: Optional[Sequence[str]] = None) -> Function:
        return self.add_function(Function(name, ftype, arg_names, parent=self))

    def declare_function(self, name: str, ftype: FunctionType) -> Function:
        """Get-or-create a declaration (no body) for an external function."""
        existing = self.functions.get(name)
        if existing is not None:
            return existing
        return self.add_function(Function(name, ftype, parent=self))

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"module {self.name!r} has no function {name!r}")

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __len__(self) -> int:
        return len(self.functions)

    def __repr__(self) -> str:
        return f"Module({self.name!r}, {len(self.functions)} functions)"
