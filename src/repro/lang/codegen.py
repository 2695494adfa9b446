"""Code generation: typed AST -> RV32 assembly + CFG/loop metadata.

The generator targets the repository's own assembler (:mod:`repro.isa`) and
upholds one central contract: **the basic-block leaders and natural loops of
the emitted binary are known at emission time**, without running the
verifier-side analysis.  Every label it emits becomes a block leader, every
control-flow instruction makes its follower a leader, and the only backward
transfers it ever emits are the ``while`` back-jumps (and ``continue``), so
the natural-loop headers and nesting depths equal the lexical ``while``
structure.  :meth:`CompiledProgram.verify_against_analysis` checks the
contract against :mod:`repro.cfg` on the assembled binary; the golden-corpus
tests pin it for every shipped program.

Calling convention (a conventional RV32 frame, compatible with the CPU
model's ``sp`` initialisation):

* arguments in ``a0``..``a7``; result in ``a0``;
* prologue pushes ``ra``/``s0`` and establishes ``s0`` as the frame pointer;
  parameters and locals live at negative ``s0`` offsets, arrays as in-frame
  word buffers;
* expressions evaluate on the temporary stack ``t0``..``t6`` (depth > 7
  raises :class:`CodegenError`); live temporaries are spilled to the stack
  around calls; ``s1`` is the addressing scratch register.

Builtins map to the CPU's syscall ABI: ``read()`` (a7=5), ``print(v)``
(a7=1), ``printc(v)`` (a7=11); program exit is ``main``'s return value
(a7=93).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.isa.assembler import Program, assemble
from repro.lang.astnodes import (
    ArrayDecl, Assign, Binary, Break, Call, Continue, Expr, ExprStmt,
    Function, If, Index, IndexAssign, IntLiteral, Name, ProgramAst, Return,
    Stmt, Unary, VarDecl, While,
)
from repro.lang.errors import CodegenError, SemanticError
from repro.lang.parser import parse

#: Expression evaluation registers, in stack order.
TEMPS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6")

#: Scratch register for wide-offset frame addressing (never live across
#: statements; deliberately outside the temporary pool).
SCRATCH = "s1"

#: Builtin callees and their arities.
BUILTINS = {"read": 0, "print": 1, "printc": 1}

#: Maximum parameters per function (bounded by the ``a0``..``a7`` registers).
MAX_PARAMS = 8

#: Maximum elements per local array declaration.
MAX_ARRAY_ELEMS = 4096

_BINARY_OPS = {
    "+": "add", "-": "sub", "*": "mul", "/": "div", "%": "rem",
    "&": "and", "|": "or", "^": "xor", "<<": "sll", ">>": "srl",
}


@dataclass
class LoopInfo:
    """One compiled ``while`` loop, as the verifier's analysis will see it.

    Attributes:
        header_label: assembly label of the loop header block.
        header: resolved header address in the assembled binary.
        depth: natural-loop nesting depth (1 = outermost), equal to the
            lexical ``while`` nesting by construction.
        function: name of the containing function.
    """

    header_label: str
    header: int
    depth: int
    function: str


@dataclass
class CompiledProgram:
    """The result of compiling one workload-language program.

    Carries the assembled :class:`Program` image plus the CFG facts the code
    generator knows by construction: the block-leader addresses, the natural
    loops with nesting depths, and the function entry points.
    """

    name: str
    source: str
    assembly: str
    program: Program
    functions: Dict[str, int]
    loops: List[LoopInfo]
    block_leaders: List[int]

    def loops_by_header(self) -> Dict[int, int]:
        """Mapping of loop header address -> nesting depth."""
        return {loop.header: loop.depth for loop in self.loops}

    def verify_against_analysis(self) -> Dict[str, int]:
        """Check the emitted metadata against the verifier's own analysis.

        Splits the assembled binary into basic blocks and natural loops with
        :mod:`repro.cfg` and requires exact agreement with what compilation
        predicted.  Returns summary statistics; raises :class:`CodegenError`
        on any mismatch (a compiler bug by definition).
        """
        from repro.cfg.basic_blocks import split_basic_blocks
        from repro.cfg.builder import build_cfg
        from repro.cfg.loops import find_natural_loops

        analysed_leaders = [b.start for b in split_basic_blocks(self.program)]
        if analysed_leaders != self.block_leaders:
            predicted, got = set(self.block_leaders), set(analysed_leaders)
            raise CodegenError(
                "%s: block leaders diverge from repro.cfg analysis "
                "(missing %s, extra %s)" % (
                    self.name,
                    sorted(hex(a) for a in got - predicted),
                    sorted(hex(a) for a in predicted - got),
                )
            )
        cfg = build_cfg(self.program)
        analysed_loops = {
            loop.header: loop.depth for loop in find_natural_loops(cfg)
        }
        predicted_loops = self.loops_by_header()
        if analysed_loops != predicted_loops:
            raise CodegenError(
                "%s: natural loops diverge from repro.cfg analysis "
                "(predicted %s, analysed %s)" % (
                    self.name,
                    sorted((hex(h), d) for h, d in predicted_loops.items()),
                    sorted((hex(h), d) for h, d in analysed_loops.items()),
                )
            )
        for name, address in self.functions.items():
            if self.program.symbols.get(name) != address:
                raise CodegenError(
                    "%s: function %r not at predicted address %#x"
                    % (self.name, name, address)
                )
        return {
            "blocks": len(self.block_leaders),
            "loops": len(self.loops),
            "max_loop_depth": max(
                (loop.depth for loop in self.loops), default=0),
            "functions": len(self.functions),
            "instructions": len(self.program.instructions),
        }


class _Emitter:
    """Assembly text accumulator that tracks word offsets and labels.

    The emitter mirrors the assembler's layout rules (``li`` expands to one
    word in the 12-bit immediate range, two otherwise) so that every label's
    final address, and every control-flow follower, is known without a
    second pass.
    """

    def __init__(self) -> None:
        self.lines: List[str] = [".text"]
        self.words = 0
        self.labels: Dict[str, int] = {}  # label -> word offset
        self.cf_offsets: List[int] = []   # word offsets of CF instructions

    def label(self, name: str) -> None:
        if name in self.labels:
            raise CodegenError("internal: label %r emitted twice" % name)
        self.labels[name] = self.words
        self.lines.append("%s:" % name)

    def insn(self, text: str) -> None:
        """Emit one single-word, non-control-flow instruction."""
        self.lines.append("    %s" % text)
        self.words += 1

    def cf(self, text: str) -> None:
        """Emit one single-word control-flow instruction."""
        self.lines.append("    %s" % text)
        self.cf_offsets.append(self.words)
        self.words += 1

    def li(self, reg: str, value: int) -> None:
        """Emit ``li`` tracking its 1- or 2-word expansion."""
        self.lines.append("    li   %s, %d" % (reg, value))
        self.words += 1 if -2048 <= value <= 2047 else 2

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def predicted_leaders(self) -> List[int]:
        """Block-leader byte addresses implied by what was emitted."""
        leaders: Set[int] = {0}
        leaders.update(4 * offset for offset in self.labels.values())
        for offset in self.cf_offsets:
            follower = offset + 1
            if follower < self.words:
                leaders.add(4 * follower)
        return sorted(leaders)


@dataclass
class _Local:
    """A frame slot: a scalar (one word) or an array (``size`` words)."""

    kind: str          # "scalar" | "array"
    offset: int        # positive; address = s0 - offset (array: lowest word)
    size: int = 1      # elements, for arrays
    line: int = 0


class _FunctionCodegen:
    """Per-function emission state: frame layout, labels, loop stack."""

    def __init__(self, generator: "CodeGenerator", function: Function) -> None:
        self.generator = generator
        self.emitter = generator.emitter
        self.function = function
        self.locals: Dict[str, _Local] = {}
        self.visible: Set[str] = set()
        self.frame_bytes = 16  # ra/s0 save area
        self.label_counter = 0
        # Stack of (head_label, end_label, continue_count_list) per while.
        self.loop_stack: List[Tuple[str, str, List[int]]] = []
        self.ret_label = "%s__ret" % function.name

    # ------------------------------------------------------------ frame layout
    def layout(self) -> None:
        if len(self.function.params) > MAX_PARAMS:
            raise SemanticError(
                "function %r takes %d parameters (max %d)"
                % (self.function.name, len(self.function.params), MAX_PARAMS),
                self.function.line,
            )
        for param in self.function.params:
            self._declare(param, "scalar", 1, self.function.line)
        self._collect_declarations(self.function.body)

    def _collect_declarations(self, statements: List[Stmt]) -> None:
        for stmt in statements:
            if isinstance(stmt, VarDecl):
                self._declare(stmt.name, "scalar", 1, stmt.line)
            elif isinstance(stmt, ArrayDecl):
                if not 1 <= stmt.size <= MAX_ARRAY_ELEMS:
                    raise SemanticError(
                        "array %r size %d out of range 1..%d"
                        % (stmt.name, stmt.size, MAX_ARRAY_ELEMS),
                        stmt.line,
                    )
                self._declare(stmt.name, "array", stmt.size, stmt.line)
            elif isinstance(stmt, If):
                self._collect_declarations(stmt.then_body)
                if stmt.else_body is not None:
                    self._collect_declarations(stmt.else_body)
            elif isinstance(stmt, While):
                self._collect_declarations(stmt.body)

    def _declare(self, name: str, kind: str, size: int, line: int) -> None:
        self.generator.check_name(name, line)
        if name in self.locals:
            raise SemanticError(
                "%r redeclared in function %r" % (name, self.function.name),
                line,
            )
        if name in self.generator.functions or name in BUILTINS:
            raise SemanticError(
                "%r shadows a function name" % name, line)
        self.frame_bytes += 4 * size
        self.locals[name] = _Local(kind=kind, offset=self.frame_bytes,
                                   size=size, line=line)

    # ---------------------------------------------------------------- helpers
    def new_label(self, suffix: str) -> str:
        label = "%s__%s%d" % (self.function.name, suffix, self.label_counter)
        self.label_counter += 1
        return label

    def _slot(self, name: str, line: int) -> _Local:
        if name not in self.locals or name not in self.visible:
            raise SemanticError(
                "%r used before declaration in function %r"
                % (name, self.function.name), line)
        return self.locals[name]

    def load_scalar(self, reg: str, offset: int) -> None:
        """Load the scalar at ``s0 - offset`` into ``reg``."""
        if offset <= 2048:
            self.emitter.insn("lw   %s, %d(s0)" % (reg, -offset))
        else:
            self.emitter.li(reg, -offset)
            self.emitter.insn("add  %s, %s, s0" % (reg, reg))
            self.emitter.insn("lw   %s, 0(%s)" % (reg, reg))

    def store_scalar(self, reg: str, offset: int) -> None:
        """Store ``reg`` to the scalar at ``s0 - offset`` (scratches s1)."""
        if offset <= 2048:
            self.emitter.insn("sw   %s, %d(s0)" % (reg, -offset))
        else:
            self.emitter.li(SCRATCH, -offset)
            self.emitter.insn("add  %s, %s, s0" % (SCRATCH, SCRATCH))
            self.emitter.insn("sw   %s, 0(%s)" % (reg, SCRATCH))

    def frame_address(self, reg: str, offset: int) -> None:
        """Materialise ``s0 - offset`` into ``reg``."""
        if offset <= 2048:
            self.emitter.insn("addi %s, s0, %d" % (reg, -offset))
        else:
            self.emitter.li(reg, -offset)
            self.emitter.insn("add  %s, %s, s0" % (reg, reg))

    # ---------------------------------------------------------------- emission
    def emit(self) -> None:
        emitter = self.emitter
        emitter.label(self.function.name)
        emitter.insn("addi sp, sp, -16")
        emitter.insn("sw   ra, 12(sp)")
        emitter.insn("sw   s0, 8(sp)")
        emitter.insn("addi s0, sp, 16")
        local_bytes = self.frame_bytes - 16
        if local_bytes > 0:
            if local_bytes <= 2048:
                emitter.insn("addi sp, sp, %d" % -local_bytes)
            else:
                emitter.li(SCRATCH, local_bytes)
                emitter.insn("sub  sp, sp, %s" % SCRATCH)
        for index, param in enumerate(self.function.params):
            self.visible.add(param)
            self.store_scalar("a%d" % index, self.locals[param].offset)

        reachable = self.emit_block(self.function.body)
        if reachable:
            emitter.insn("li   a0, 0")
        emitter.label(self.ret_label)
        emitter.insn("mv   sp, s0")
        emitter.insn("lw   ra, -4(sp)")
        emitter.insn("lw   s0, -8(sp)")
        emitter.cf("ret")

    def emit_block(self, statements: List[Stmt]) -> bool:
        """Emit a statement list; returns whether its end is reachable.

        Statements after an unconditional transfer (``return``, ``break``,
        ``continue``) are dead and are not emitted -- keeping the emitted
        binary free of unreachable blocks is part of the metadata contract.
        """
        for stmt in statements:
            if not self.emit_statement(stmt):
                return False
        return True

    def emit_statement(self, stmt: Stmt) -> bool:
        """Emit one statement; returns whether control continues after it."""
        emitter = self.emitter
        if isinstance(stmt, VarDecl):
            self.eval_expr(stmt.value, 0)
            self.visible.add(stmt.name)
            self.store_scalar(TEMPS[0], self.locals[stmt.name].offset)
            return True
        if isinstance(stmt, ArrayDecl):
            self.visible.add(stmt.name)
            self._emit_array_clear(self.locals[stmt.name])
            return True
        if isinstance(stmt, Assign):
            slot = self._slot(stmt.name, stmt.line)
            if slot.kind != "scalar":
                raise SemanticError(
                    "cannot assign to array %r (assign to its elements)"
                    % stmt.name, stmt.line)
            self.eval_expr(stmt.value, 0)
            self.store_scalar(TEMPS[0], slot.offset)
            return True
        if isinstance(stmt, IndexAssign):
            self.eval_expr(stmt.value, 0)
            self.eval_address(stmt.base, stmt.index, 1, stmt.line)
            emitter.insn("sw   %s, 0(%s)" % (TEMPS[0], TEMPS[1]))
            return True
        if isinstance(stmt, If):
            return self.emit_if(stmt)
        if isinstance(stmt, While):
            return self.emit_while(stmt)
        if isinstance(stmt, Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value, 0)
                emitter.insn("mv   a0, %s" % TEMPS[0])
            else:
                emitter.insn("li   a0, 0")
            emitter.cf("j    %s" % self.ret_label)
            return False
        if isinstance(stmt, Break):
            if not self.loop_stack:
                raise SemanticError("break outside of a loop", stmt.line)
            emitter.cf("j    %s" % self.loop_stack[-1][1])
            return False
        if isinstance(stmt, Continue):
            if not self.loop_stack:
                raise SemanticError("continue outside of a loop", stmt.line)
            head, _end, continues = self.loop_stack[-1]
            continues[0] += 1
            emitter.cf("j    %s" % head)
            return False
        if isinstance(stmt, ExprStmt):
            self.eval_expr(stmt.value, 0)
            return True
        raise CodegenError("internal: unknown statement %r" % stmt)

    def _emit_array_clear(self, slot: _Local) -> None:
        """Zero-initialise an array with a compact store loop.

        The loop is emitted through the same label/cf bookkeeping as source
        loops, so it is (correctly) predicted -- and analysed -- as one more
        depth-aware natural loop.
        """
        emitter = self.emitter
        head = self.new_label("zero")
        end = self.new_label("endzero")
        self.frame_address(TEMPS[0], slot.offset)
        self.frame_address(TEMPS[1], slot.offset - 4 * slot.size)
        self._register_loop(head)
        emitter.label(head)
        emitter.cf("bge  %s, %s, %s" % (TEMPS[0], TEMPS[1], end))
        emitter.insn("sw   zero, 0(%s)" % TEMPS[0])
        emitter.insn("addi %s, %s, 4" % (TEMPS[0], TEMPS[0]))
        emitter.cf("j    %s" % head)
        emitter.label(end)

    def emit_if(self, stmt: If) -> bool:
        emitter = self.emitter
        self.eval_expr(stmt.cond, 0)
        end = self.new_label("endif")
        if stmt.else_body is None:
            emitter.cf("beqz %s, %s" % (TEMPS[0], end))
            then_reachable = self.emit_block(stmt.then_body)
            emitter.label(end)
            return True  # the branch-not-taken path always reaches end
        else_label = self.new_label("else")
        emitter.cf("beqz %s, %s" % (TEMPS[0], else_label))
        then_reachable = self.emit_block(stmt.then_body)
        if then_reachable:
            emitter.cf("j    %s" % end)
        emitter.label(else_label)
        else_reachable = self.emit_block(stmt.else_body)
        emitter.label(end)
        return then_reachable or else_reachable

    def emit_while(self, stmt: While) -> bool:
        emitter = self.emitter
        head = self.new_label("loop")
        end = self.new_label("endloop")
        continues = [0]
        emitter.label(head)
        self.eval_expr(stmt.cond, 0)
        emitter.cf("beqz %s, %s" % (TEMPS[0], end))
        self.loop_stack.append((head, end, continues))
        body_reachable = self.emit_block(stmt.body)
        self.loop_stack.pop()
        if body_reachable:
            emitter.cf("j    %s" % head)
        if body_reachable or continues[0] > 0:
            # At least one back edge exists: the analysis will see a natural
            # loop with this header, nested at the lexical depth.
            self._register_loop(head)
        emitter.label(end)
        return True  # the header's exit branch always reaches end

    def _register_loop(self, head_label: str) -> None:
        self.generator.predicted_loops.append(LoopInfo(
            header_label=head_label,
            header=0,  # resolved after assembly
            depth=len(self.loop_stack) + 1,
            function=self.function.name,
        ))

    # ------------------------------------------------------------ expressions
    def eval_expr(self, expr: Expr, depth: int) -> None:
        """Evaluate ``expr`` into ``TEMPS[depth]``.

        ``TEMPS[:depth]`` hold live intermediate values; anything above is
        free.  Exceeding the register file is a compile-time error, never a
        silent spill -- generated programs must stay depth-bounded.
        """
        if depth >= len(TEMPS):
            raise CodegenError(
                "expression too deep: needs more than %d temporaries "
                "(flatten it with intermediate variables)" % len(TEMPS),
                expr.line,
            )
        emitter = self.emitter
        dest = TEMPS[depth]

        if isinstance(expr, IntLiteral):
            value = expr.value
            if value >= 0x80000000:  # store as its signed two's complement
                value -= 0x100000000
            emitter.li(dest, value)
            return
        if isinstance(expr, Name):
            if expr.name in self.generator.functions or expr.name in BUILTINS:
                raise SemanticError(
                    "function %r used as a value" % expr.name, expr.line)
            slot = self._slot(expr.name, expr.line)
            if slot.kind == "array":
                expr.type = "array"
                self.frame_address(dest, slot.offset)
            else:
                self.load_scalar(dest, slot.offset)
            return
        if isinstance(expr, Unary):
            self.eval_expr(expr.operand, depth)
            if expr.op == "-":
                emitter.insn("neg  %s, %s" % (dest, dest))
            elif expr.op == "!":
                emitter.insn("seqz %s, %s" % (dest, dest))
            else:  # "~"
                emitter.insn("not  %s, %s" % (dest, dest))
            return
        if isinstance(expr, Binary):
            self.eval_binary(expr, depth)
            return
        if isinstance(expr, Index):
            self.eval_address(expr.base, expr.index, depth, expr.line)
            emitter.insn("lw   %s, 0(%s)" % (dest, dest))
            return
        if isinstance(expr, Call):
            self.eval_call(expr, depth)
            return
        raise CodegenError("internal: unknown expression %r" % expr)

    def eval_binary(self, expr: Binary, depth: int) -> None:
        emitter = self.emitter
        dest = TEMPS[depth]
        if expr.op in ("&&", "||"):
            # Short-circuit evaluation, normalised to 0/1.
            self.eval_expr(expr.left, depth)
            skip = self.new_label("sc")
            done = self.new_label("endsc")
            branch = "beqz" if expr.op == "&&" else "bnez"
            emitter.cf("%s %s, %s" % (branch, dest, skip))
            self.eval_expr(expr.right, depth)
            emitter.insn("snez %s, %s" % (dest, dest))
            emitter.cf("j    %s" % done)
            emitter.label(skip)
            emitter.li(dest, 0 if expr.op == "&&" else 1)
            emitter.label(done)
            return
        self.eval_expr(expr.left, depth)
        self.eval_expr(expr.right, depth + 1)
        rhs = TEMPS[depth + 1]
        if expr.op in _BINARY_OPS:
            emitter.insn("%-4s %s, %s, %s"
                         % (_BINARY_OPS[expr.op], dest, dest, rhs))
            return
        if expr.op == "<":
            emitter.insn("slt  %s, %s, %s" % (dest, dest, rhs))
        elif expr.op == ">":
            emitter.insn("slt  %s, %s, %s" % (dest, rhs, dest))
        elif expr.op == "<=":
            emitter.insn("slt  %s, %s, %s" % (dest, rhs, dest))
            emitter.insn("xori %s, %s, 1" % (dest, dest))
        elif expr.op == ">=":
            emitter.insn("slt  %s, %s, %s" % (dest, dest, rhs))
            emitter.insn("xori %s, %s, 1" % (dest, dest))
        elif expr.op == "==":
            emitter.insn("sub  %s, %s, %s" % (dest, dest, rhs))
            emitter.insn("seqz %s, %s" % (dest, dest))
        elif expr.op == "!=":
            emitter.insn("sub  %s, %s, %s" % (dest, dest, rhs))
            emitter.insn("snez %s, %s" % (dest, dest))
        else:
            raise CodegenError(
                "internal: unknown operator %r" % expr.op, expr.line)

    def eval_address(self, base: Expr, index: Expr, depth: int,
                     line: int) -> None:
        """Materialise the address ``base + 4*index`` into ``TEMPS[depth]``.

        A direct local-array base uses frame addressing; any other base
        expression is treated as a word pointer (which is how arrays are
        passed to functions).
        """
        if depth + 1 >= len(TEMPS):
            raise CodegenError(
                "expression too deep: needs more than %d temporaries "
                "(flatten it with intermediate variables)" % len(TEMPS),
                line,
            )
        emitter = self.emitter
        dest, offset_reg = TEMPS[depth], TEMPS[depth + 1]
        self.eval_expr(base, depth)
        self.eval_expr(index, depth + 1)
        emitter.insn("slli %s, %s, 2" % (offset_reg, offset_reg))
        emitter.insn("add  %s, %s, %s" % (dest, dest, offset_reg))

    def eval_call(self, expr: Call, depth: int) -> None:
        emitter = self.emitter
        dest = TEMPS[depth]
        if expr.callee in BUILTINS:
            arity = BUILTINS[expr.callee]
            if len(expr.args) != arity:
                raise SemanticError(
                    "%s() takes %d argument(s), got %d"
                    % (expr.callee, arity, len(expr.args)), expr.line)
            if expr.callee == "read":
                emitter.insn("li   a7, 5")
                emitter.insn("ecall")
                emitter.insn("mv   %s, a0" % dest)
            else:
                self.eval_expr(expr.args[0], depth)
                emitter.insn("mv   a0, %s" % dest)
                emitter.insn("li   a7, %d"
                             % (1 if expr.callee == "print" else 11))
                emitter.insn("ecall")
                emitter.insn("li   %s, 0" % dest)
            return
        arity = self.generator.functions.get(expr.callee)
        if arity is None:
            raise SemanticError(
                "call to undefined function %r" % expr.callee, expr.line)
        if len(expr.args) != arity:
            raise SemanticError(
                "%s() takes %d argument(s), got %d"
                % (expr.callee, arity, len(expr.args)), expr.line)
        if depth + len(expr.args) > len(TEMPS):
            raise CodegenError(
                "expression too deep: needs more than %d temporaries "
                "(flatten it with intermediate variables)" % len(TEMPS),
                expr.line,
            )
        for position, arg in enumerate(expr.args):
            self.eval_expr(arg, depth + position)
        # Spill the live temporaries below the arguments; the arguments
        # themselves move to a0.. and die with the call.
        if depth > 0:
            emitter.insn("addi sp, sp, %d" % (-4 * depth))
            for position in range(depth):
                emitter.insn("sw   %s, %d(sp)"
                             % (TEMPS[position], 4 * position))
        for position in range(len(expr.args)):
            emitter.insn("mv   a%d, %s" % (position, TEMPS[depth + position]))
        emitter.cf("call %s" % expr.callee)
        if depth > 0:
            for position in range(depth):
                emitter.insn("lw   %s, %d(sp)"
                             % (TEMPS[position], 4 * position))
            emitter.insn("addi sp, sp, %d" % (4 * depth))
        emitter.insn("mv   %s, a0" % dest)


class CodeGenerator:
    """Whole-program code generation over a parsed AST."""

    def __init__(self, ast: ProgramAst, name: str = "<lang>") -> None:
        self.ast = ast
        self.name = name
        self.emitter = _Emitter()
        self.functions: Dict[str, int] = {}  # name -> arity
        self.predicted_loops: List[LoopInfo] = []

    def _check_reachability(self) -> None:
        """Reject functions that are never called.

        The loop-metadata contract requires every emitted function to be a
        dominator-tree root (or reachable from one) in the verifier's
        analysis; a function no call path from ``main`` reaches would leave
        its loops predicted but never analysed.
        """
        callees: Dict[str, Set[str]] = {}
        for function in self.ast.functions:
            names: Set[str] = set()
            self._collect_callees(function.body, names)
            callees[function.name] = names
        reachable: Set[str] = set()
        worklist = ["main"]
        while worklist:
            name = worklist.pop()
            if name in reachable:
                continue
            reachable.add(name)
            worklist.extend(callees.get(name, ()))
        for function in self.ast.functions:
            if function.name not in reachable:
                raise SemanticError(
                    "function %r is never called (unreachable from main)"
                    % function.name, function.line)

    def _collect_callees(self, statements: List[Stmt], names: Set[str]) -> None:
        for stmt in statements:
            for child in (getattr(stmt, "value", None),
                          getattr(stmt, "cond", None),
                          getattr(stmt, "base", None),
                          getattr(stmt, "index", None)):
                if child is not None:
                    self._collect_expr_callees(child, names)
            if isinstance(stmt, If):
                self._collect_callees(stmt.then_body, names)
                if stmt.else_body is not None:
                    self._collect_callees(stmt.else_body, names)
            elif isinstance(stmt, While):
                self._collect_callees(stmt.body, names)

    def _collect_expr_callees(self, expr: Expr, names: Set[str]) -> None:
        if isinstance(expr, Call):
            names.add(expr.callee)
            for arg in expr.args:
                self._collect_expr_callees(arg, names)
        elif isinstance(expr, Unary):
            self._collect_expr_callees(expr.operand, names)
        elif isinstance(expr, Binary):
            self._collect_expr_callees(expr.left, names)
            self._collect_expr_callees(expr.right, names)
        elif isinstance(expr, Index):
            self._collect_expr_callees(expr.base, names)
            self._collect_expr_callees(expr.index, names)

    def check_name(self, name: str, line: int) -> None:
        """Reject identifiers that could collide with generated labels."""
        if "__" in name or name == "_start":
            raise SemanticError(
                "identifier %r is reserved (no '__', no '_start')" % name,
                line,
            )

    def generate(self) -> CompiledProgram:
        for function in self.ast.functions:
            self.check_name(function.name, function.line)
            if function.name in BUILTINS:
                raise SemanticError(
                    "cannot redefine builtin %r" % function.name,
                    function.line)
            if function.name in self.functions:
                raise SemanticError(
                    "function %r defined twice" % function.name,
                    function.line)
            if len(set(function.params)) != len(function.params):
                raise SemanticError(
                    "function %r has duplicate parameters" % function.name,
                    function.line)
            self.functions[function.name] = len(function.params)
        if self.functions.get("main") is None:
            raise SemanticError("program defines no 'main' function", 1)
        if self.functions["main"] != 0:
            raise SemanticError("'main' must take no parameters", 1)
        self._check_reachability()

        # Emit the entry stub, then every function in source order.
        emitter = self.emitter
        emitter.label("_start")
        emitter.cf("call main")
        emitter.insn("li   a7, 93")
        emitter.insn("ecall")

        for function in self.ast.functions:
            codegen = _FunctionCodegen(self, function)
            codegen.layout()
            codegen.emit()

        assembly = emitter.text()
        try:
            program = assemble(assembly)
        except ValueError as error:  # pragma: no cover - contract violation
            raise CodegenError(
                "%s: generated assembly rejected by the assembler: %s"
                % (self.name, error))

        # Cross-check the emitter's layout mirror against the assembler.
        if len(program.code) != 4 * emitter.words:
            raise CodegenError(
                "%s: emitter word tracking diverged from the assembler "
                "(%d words tracked, %d assembled)"
                % (self.name, emitter.words, len(program.code) // 4))
        for label, offset in emitter.labels.items():
            if program.symbols.get(label) != 4 * offset:
                raise CodegenError(
                    "%s: label %r tracked at %#x but assembled at %s"
                    % (self.name, label, 4 * offset,
                       hex(program.symbols[label])
                       if label in program.symbols else "nowhere"))

        loops = [
            LoopInfo(
                header_label=loop.header_label,
                header=4 * emitter.labels[loop.header_label],
                depth=loop.depth,
                function=loop.function,
            )
            for loop in self.predicted_loops
        ]
        loops.sort(key=lambda loop: loop.header)
        return CompiledProgram(
            name=self.name,
            source="",
            assembly=assembly,
            program=program,
            functions={
                fn: 4 * emitter.labels[fn] for fn in self.functions
            },
            loops=loops,
            block_leaders=emitter.predicted_leaders(),
        )


def compile_source(
    source: str, name: str = "<lang>", verify: bool = False,
) -> CompiledProgram:
    """Compile workload-language ``source`` into a :class:`CompiledProgram`.

    With ``verify=True`` the emitted CFG/loop metadata is cross-checked
    against the :mod:`repro.cfg` analysis of the assembled binary before
    returning (the golden-corpus and CLI default; family generation skips
    it for speed and relies on the corpus pin).
    """
    compiled = CodeGenerator(parse(source), name=name).generate()
    compiled.source = source
    if verify:
        compiled.verify_against_analysis()
    return compiled
