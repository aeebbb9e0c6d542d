"""Recursive-descent parser for the Verilog-2001 subset.

The parser turns a token stream into the AST defined in
:mod:`repro.verilog.ast_nodes`.  It accepts both ANSI-style and non-ANSI-style
port declarations, procedural blocks with the usual statement forms, continuous
assignments, parameters, functions and module instantiations — the constructs
exercised by the HaVen datasets and benchmarks.

Example:
    >>> from repro.verilog.parser import parse_source
    >>> design = parse_source("module inv(input a, output y); assign y = ~a; endmodule")
    >>> design.modules[0].name
    'inv'
"""

from __future__ import annotations

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

# Binary operator precedence, lowest first.  Every level, ``**`` included, is
# left-associative.
_BINARY_PRECEDENCE: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|", "~|"),
    ("^", "~^", "^~"),
    ("&", "~&"),
    ("==", "!=", "===", "!=="),
    ("<", "<=", ">", ">="),
    ("<<", ">>", "<<<", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
    ("**",),
]

_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_PRECEDENCE) for op in ops}

_UNARY_OPERATORS = {"+", "-", "!", "~", "&", "|", "^", "~&", "~|", "~^", "^~"}


class Parser:
    """Parse a token list into a :class:`~repro.verilog.ast_nodes.SourceFile`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.index = 0

    # ------------------------------------------------------------------ token helpers
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self.current
        return ParseError(f"{message}, found {token.text!r}", token.line, token.column)

    def _expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise self._error(f"expected keyword {word!r}")
        return self._advance()

    def _expect_punct(self, punct: str) -> Token:
        if not self.current.is_punct(punct):
            raise self._error(f"expected {punct!r}")
        return self._advance()

    def _expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise self._error(f"expected operator {op!r}")
        return self._advance()

    def _expect_identifier(self) -> str:
        if self.current.kind is not TokenKind.IDENTIFIER:
            raise self._error("expected identifier")
        return self._advance().text

    def _accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_punct(self, punct: str) -> bool:
        if self.current.is_punct(punct):
            self._advance()
            return True
        return False

    def _accept_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self._advance()
            return True
        return False

    # ------------------------------------------------------------------ top level
    def parse(self) -> ast.SourceFile:
        """Parse the whole token stream into a source file."""
        source = ast.SourceFile()
        while self.current.kind is not TokenKind.EOF:
            if self.current.is_keyword("module"):
                source.modules.append(self._parse_module())
            else:
                raise self._error("expected 'module' at top level")
        return source

    def _parse_module(self) -> ast.Module:
        self._expect_keyword("module")
        name = self._expect_identifier()
        module = ast.Module(name=name)

        if self.current.is_punct("#"):
            self._parse_module_parameter_port_list(module)

        if self.current.is_punct("("):
            self._parse_port_list(module)

        self._expect_punct(";")

        while not self.current.is_keyword("endmodule"):
            if self.current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside module")
            item = self._parse_module_item()
            if item is not None:
                module.items.append(item)
        self._expect_keyword("endmodule")
        self._merge_non_ansi_ports(module)
        return module

    def _parse_module_parameter_port_list(self, module: ast.Module) -> None:
        self._expect_punct("#")
        self._expect_punct("(")
        while True:
            self._accept_keyword("parameter")
            if self.current.is_punct("["):
                self._parse_range()
            pname = self._expect_identifier()
            self._expect_op("=")
            module.parameters[pname] = self._parse_expression()
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port_list(self, module: ast.Module) -> None:
        self._expect_punct("(")
        if self._accept_punct(")"):
            return
        while True:
            module.ports.append(self._parse_port())
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

    def _parse_port(self) -> ast.Port:
        direction: ast.PortDirection | None = None
        net_type: ast.NetType | None = None
        signed = False
        vector_range: ast.Range | None = None

        if self.current.is_keyword("input"):
            direction = ast.PortDirection.INPUT
            self._advance()
        elif self.current.is_keyword("output"):
            direction = ast.PortDirection.OUTPUT
            self._advance()
        elif self.current.is_keyword("inout"):
            direction = ast.PortDirection.INOUT
            self._advance()

        if self.current.is_keyword("wire"):
            net_type = ast.NetType.WIRE
            self._advance()
        elif self.current.is_keyword("reg"):
            net_type = ast.NetType.REG
            self._advance()

        if self._accept_keyword("signed"):
            signed = True
        if self.current.is_punct("["):
            vector_range = self._parse_range()

        name = self._expect_identifier()
        return ast.Port(
            name=name,
            direction=direction,
            net_type=net_type,
            range=vector_range,
            signed=signed,
        )

    def _merge_non_ansi_ports(self, module: ast.Module) -> None:
        """Fill in directions for non-ANSI ports from body port declarations."""
        declarations: dict[str, ast.PortDeclaration] = {}
        net_decls: dict[str, ast.NetDeclaration] = {}
        for item in module.items:
            if isinstance(item, ast.PortDeclaration):
                for port_name in item.names:
                    declarations[port_name] = item
            elif isinstance(item, ast.NetDeclaration):
                for net_name in item.names:
                    net_decls[net_name] = item
        for port in module.ports:
            if port.direction is None and port.name in declarations:
                decl = declarations[port.name]
                port.direction = decl.direction
                port.range = decl.range if port.range is None else port.range
                port.net_type = decl.net_type if port.net_type is None else port.net_type
                port.signed = port.signed or decl.signed
            if port.net_type is None and port.name in net_decls:
                port.net_type = net_decls[port.name].net_type
                if port.range is None:
                    port.range = net_decls[port.name].range

    # ------------------------------------------------------------------ module items
    def _parse_module_item(self) -> ast.ModuleItem | None:
        token = self.current
        if token.is_punct(";"):
            self._advance()
            return None
        if token.is_keyword("input") or token.is_keyword("output") or token.is_keyword("inout"):
            return self._parse_port_declaration()
        if token.is_keyword("wire") or token.is_keyword("reg") or token.is_keyword("integer"):
            return self._parse_net_declaration()
        if token.is_keyword("parameter") or token.is_keyword("localparam"):
            return self._parse_parameter_declaration()
        if token.is_keyword("assign"):
            return self._parse_continuous_assign()
        if token.is_keyword("always"):
            return self._parse_always_block()
        if token.is_keyword("initial"):
            return self._parse_initial_block()
        if token.is_keyword("genvar"):
            return self._parse_genvar_declaration()
        if token.is_keyword("function"):
            return self._parse_function_declaration()
        if token.kind is TokenKind.IDENTIFIER:
            return self._parse_module_instance()
        raise self._error("unexpected token in module body")

    def _parse_direction(self) -> ast.PortDirection:
        if self._accept_keyword("input"):
            return ast.PortDirection.INPUT
        if self._accept_keyword("output"):
            return ast.PortDirection.OUTPUT
        if self._accept_keyword("inout"):
            return ast.PortDirection.INOUT
        raise self._error("expected port direction")

    def _parse_port_declaration(self) -> ast.PortDeclaration:
        direction = self._parse_direction()
        net_type: ast.NetType | None = None
        if self._accept_keyword("wire"):
            net_type = ast.NetType.WIRE
        elif self._accept_keyword("reg"):
            net_type = ast.NetType.REG
        signed = self._accept_keyword("signed")
        vector_range = self._parse_range() if self.current.is_punct("[") else None
        names = [self._expect_identifier()]
        while self._accept_punct(","):
            names.append(self._expect_identifier())
        self._expect_punct(";")
        return ast.PortDeclaration(
            direction=direction,
            names=names,
            net_type=net_type,
            range=vector_range,
            signed=signed,
        )

    def _parse_net_declaration(self) -> ast.NetDeclaration:
        if self._accept_keyword("wire"):
            net_type = ast.NetType.WIRE
        elif self._accept_keyword("reg"):
            net_type = ast.NetType.REG
        elif self._accept_keyword("integer"):
            net_type = ast.NetType.INTEGER
        else:
            raise self._error("expected net type")
        signed = self._accept_keyword("signed")
        vector_range = self._parse_range() if self.current.is_punct("[") else None

        names: list[str] = []
        initial_values: dict[str, ast.Expression] = {}
        array_range: ast.Range | None = None
        while True:
            name = self._expect_identifier()
            names.append(name)
            if self.current.is_punct("["):
                array_range = self._parse_range()
            if self._accept_op("="):
                initial_values[name] = self._parse_expression()
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return ast.NetDeclaration(
            net_type=net_type,
            names=names,
            range=vector_range,
            signed=signed,
            array_range=array_range,
            initial_values=initial_values,
        )

    def _parse_parameter_declaration(self) -> ast.ParameterDeclaration:
        local = self.current.is_keyword("localparam")
        self._advance()
        signed = self._accept_keyword("signed")
        vector_range = self._parse_range() if self.current.is_punct("[") else None
        names: dict[str, ast.Expression] = {}
        while True:
            name = self._expect_identifier()
            self._expect_op("=")
            names[name] = self._parse_expression()
            if not self._accept_punct(","):
                break
        self._expect_punct(";")
        return ast.ParameterDeclaration(names=names, local=local, range=vector_range, signed=signed)

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        self._expect_keyword("assign")
        target = self._parse_lvalue()
        self._expect_op("=")
        value = self._parse_expression()
        self._expect_punct(";")
        return ast.ContinuousAssign(target=target, value=value)

    def _parse_always_block(self) -> ast.AlwaysBlock:
        self._expect_keyword("always")
        sensitivity: list[ast.SensitivityItem] = []
        if self._accept_punct("@"):
            sensitivity = self._parse_sensitivity_list()
        body = self._parse_statement()
        return ast.AlwaysBlock(sensitivity=sensitivity, body=body)

    def _parse_initial_block(self) -> ast.InitialBlock:
        self._expect_keyword("initial")
        body = self._parse_statement()
        return ast.InitialBlock(body=body)

    def _parse_genvar_declaration(self) -> ast.GenvarDeclaration:
        self._expect_keyword("genvar")
        names = [self._expect_identifier()]
        while self._accept_punct(","):
            names.append(self._expect_identifier())
        self._expect_punct(";")
        return ast.GenvarDeclaration(names=names)

    def _parse_function_declaration(self) -> ast.FunctionDeclaration:
        self._expect_keyword("function")
        self._accept_keyword("signed")
        vector_range = self._parse_range() if self.current.is_punct("[") else None
        name = self._expect_identifier()
        self._expect_punct(";")
        inputs: list[ast.PortDeclaration] = []
        locals_: list[ast.NetDeclaration] = []
        while self.current.is_keyword("input") or self.current.is_keyword("reg") or self.current.is_keyword("integer"):
            if self.current.is_keyword("input"):
                inputs.append(self._parse_port_declaration())
            else:
                locals_.append(self._parse_net_declaration())
        body = self._parse_statement()
        self._expect_keyword("endfunction")
        return ast.FunctionDeclaration(name=name, range=vector_range, inputs=inputs, locals=locals_, body=body)

    def _parse_module_instance(self) -> ast.ModuleInstance:
        module_name = self._expect_identifier()
        parameter_overrides: list[ast.PortConnection] = []
        if self._accept_punct("#"):
            self._expect_punct("(")
            parameter_overrides = self._parse_connection_list()
            self._expect_punct(")")
        instance_name = self._expect_identifier()
        self._expect_punct("(")
        connections = self._parse_connection_list() if not self.current.is_punct(")") else []
        self._expect_punct(")")
        self._expect_punct(";")
        return ast.ModuleInstance(
            module_name=module_name,
            instance_name=instance_name,
            connections=connections,
            parameter_overrides=parameter_overrides,
        )

    def _parse_connection_list(self) -> list[ast.PortConnection]:
        connections: list[ast.PortConnection] = []
        while True:
            if self._accept_punct("."):
                port = self._expect_identifier()
                self._expect_punct("(")
                expression = None if self.current.is_punct(")") else self._parse_expression()
                self._expect_punct(")")
                connections.append(ast.PortConnection(port=port, expression=expression))
            else:
                connections.append(ast.PortConnection(port=None, expression=self._parse_expression()))
            if not self._accept_punct(","):
                break
        return connections

    def _parse_range(self) -> ast.Range:
        """Parse a packed range ``[msb:lsb]``."""
        self._expect_punct("[")
        msb = self._parse_expression()
        self._expect_punct(":")
        lsb = self._parse_expression()
        self._expect_punct("]")
        return ast.Range(msb=msb, lsb=lsb)

    # ------------------------------------------------------------------ statements
    def _parse_sensitivity_list(self) -> list[ast.SensitivityItem]:
        items: list[ast.SensitivityItem] = []
        if self._accept_op("*"):
            return [ast.SensitivityItem(edge=ast.EdgeKind.ANY, signal=None)]
        self._expect_punct("(")
        if self._accept_op("*"):
            self._expect_punct(")")
            return [ast.SensitivityItem(edge=ast.EdgeKind.ANY, signal=None)]
        while True:
            edge = ast.EdgeKind.LEVEL
            if self._accept_keyword("posedge"):
                edge = ast.EdgeKind.POSEDGE
            elif self._accept_keyword("negedge"):
                edge = ast.EdgeKind.NEGEDGE
            signal = self._parse_expression()
            items.append(ast.SensitivityItem(edge=edge, signal=signal))
            if self._accept_keyword("or") or self._accept_punct(","):
                continue
            break
        self._expect_punct(")")
        return items

    def _parse_statement(self) -> ast.Statement | None:
        token = self.current
        if token.is_punct(";"):
            self._advance()
            return ast.NullStatement()
        if token.is_keyword("begin"):
            return self._parse_block()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("case") or token.is_keyword("casez") or token.is_keyword("casex"):
            return self._parse_case()
        if token.is_keyword("for"):
            return self._parse_for()
        if token.is_keyword("while"):
            return self._parse_while()
        if token.is_keyword("repeat"):
            return self._parse_repeat()
        if token.is_keyword("forever"):
            self._advance()
            body = self._parse_statement()
            return ast.WhileLoop(condition=ast.Number(value=1), body=body)
        if token.is_punct("#"):
            return self._parse_delay_statement()
        if token.is_punct("@"):
            return self._parse_event_wait()
        if token.kind is TokenKind.SYSTEM_IDENTIFIER:
            return self._parse_system_task()
        if token.kind is TokenKind.IDENTIFIER or token.is_punct("{"):
            return self._parse_assignment_statement()
        if token.is_keyword("integer") or token.is_keyword("reg"):
            # Local declarations inside named blocks are rare in the subset; treat
            # them as a parse error with a clear message.
            raise self._error("declarations are only allowed at module scope in this subset")
        raise self._error("expected statement")

    def _parse_block(self) -> ast.Block:
        self._expect_keyword("begin")
        name: str | None = None
        if self._accept_punct(":"):
            name = self._expect_identifier()
        statements: list[ast.Statement] = []
        while not self.current.is_keyword("end"):
            if self.current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside begin/end block")
            statement = self._parse_statement()
            if statement is not None:
                statements.append(statement)
        self._expect_keyword("end")
        return ast.Block(statements=statements, name=name)

    def _parse_if(self) -> ast.IfStatement:
        self._expect_keyword("if")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        then_branch = self._parse_statement()
        else_branch: ast.Statement | None = None
        if self._accept_keyword("else"):
            else_branch = self._parse_statement()
        return ast.IfStatement(condition=condition, then_branch=then_branch, else_branch=else_branch)

    def _parse_case(self) -> ast.CaseStatement:
        kind = self._advance().text
        self._expect_punct("(")
        subject = self._parse_expression()
        self._expect_punct(")")
        items: list[ast.CaseItem] = []
        while not self.current.is_keyword("endcase"):
            if self.current.kind is TokenKind.EOF:
                raise self._error("unexpected end of file inside case statement")
            if self._accept_keyword("default"):
                self._accept_punct(":")
                body = self._parse_statement()
                items.append(ast.CaseItem(expressions=[], body=body, is_default=True))
                continue
            expressions = [self._parse_expression()]
            while self._accept_punct(","):
                expressions.append(self._parse_expression())
            self._expect_punct(":")
            body = self._parse_statement()
            items.append(ast.CaseItem(expressions=expressions, body=body))
        self._expect_keyword("endcase")
        return ast.CaseStatement(kind=kind, subject=subject, items=items)

    def _parse_for(self) -> ast.ForLoop:
        self._expect_keyword("for")
        self._expect_punct("(")
        init_target = self._parse_lvalue()
        self._expect_op("=")
        init_value = self._parse_expression()
        self._expect_punct(";")
        condition = self._parse_expression()
        self._expect_punct(";")
        step_target = self._parse_lvalue()
        self._expect_op("=")
        step_value = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.ForLoop(
            init=ast.BlockingAssign(target=init_target, value=init_value),
            condition=condition,
            step=ast.BlockingAssign(target=step_target, value=step_value),
            body=body,
        )

    def _parse_while(self) -> ast.WhileLoop:
        self._expect_keyword("while")
        self._expect_punct("(")
        condition = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.WhileLoop(condition=condition, body=body)

    def _parse_repeat(self) -> ast.RepeatLoop:
        self._expect_keyword("repeat")
        self._expect_punct("(")
        count = self._parse_expression()
        self._expect_punct(")")
        body = self._parse_statement()
        return ast.RepeatLoop(count=count, body=body)

    def _parse_delay_statement(self) -> ast.DelayStatement:
        self._expect_punct("#")
        delay = self._parse_primary()
        body: ast.Statement | None = None
        if not self.current.is_punct(";"):
            body = self._parse_statement()
        else:
            self._advance()
        return ast.DelayStatement(delay=delay, body=body)

    def _parse_event_wait(self) -> ast.EventWait:
        self._expect_punct("@")
        events = self._parse_sensitivity_list()
        body: ast.Statement | None = None
        if not self.current.is_punct(";"):
            body = self._parse_statement()
        else:
            self._advance()
        return ast.EventWait(events=events, body=body)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        name = self._advance().text
        args: list[ast.Expression] = []
        if self._accept_punct("("):
            if not self.current.is_punct(")"):
                args.append(self._parse_expression())
                while self._accept_punct(","):
                    args.append(self._parse_expression())
            self._expect_punct(")")
        self._expect_punct(";")
        return ast.SystemTaskCall(name=name, args=args)

    def _parse_assignment_statement(self) -> ast.Statement:
        target = self._parse_lvalue()
        if self._accept_op("<="):
            value = self._parse_expression()
            self._expect_punct(";")
            return ast.NonBlockingAssign(target=target, value=value)
        if self._accept_op("="):
            # Allow an intra-assignment delay (``a = #5 b;``), ignored functionally.
            if self._accept_punct("#"):
                self._parse_primary()
            value = self._parse_expression()
            self._expect_punct(";")
            return ast.BlockingAssign(target=target, value=value)
        raise self._error("expected '=' or '<=' in assignment")

    def _parse_lvalue(self) -> ast.Expression:
        if self.current.is_punct("{"):
            return self._parse_concat()
        name = self._expect_identifier()
        expr: ast.Expression = ast.Identifier(name=name)
        while self.current.is_punct("["):
            expr = self._parse_select(expr)
        return expr

    # ------------------------------------------------------------------ expressions
    def _parse_expression(self) -> ast.Expression:
        return self._parse_ternary()

    def _parse_ternary(self) -> ast.Expression:
        condition = self._parse_binary(0)
        if self._accept_op("?"):
            if_true = self._parse_expression()
            self._expect_punct(":")
            if_false = self._parse_expression()
            return ast.Ternary(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_binary(self, min_level: int) -> ast.Expression:
        """Precedence climbing over ``_BINARY_PRECEDENCE``: the operand chain of
        every operator at ``min_level`` or above, grouped to the left."""
        left = self._parse_unary()
        while self.current.kind is TokenKind.OPERATOR:
            level = _BINARY_LEVEL.get(self.current.text)
            if level is None or level < min_level:
                break
            op = self._advance().text
            right = self._parse_binary(level + 1)
            left = ast.BinaryOp(op=op, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expression:
        if self.current.kind is TokenKind.OPERATOR and self.current.text in _UNARY_OPERATORS:
            op = self._advance().text
            operand = self._parse_unary()
            return ast.UnaryOp(op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            # Sized literal split across tokens: ``4`` then ``'b1010`` is lexed as one
            # token by our lexer, so only a single token needs decoding here.
            return _decode_number(token.text)
        if token.kind is TokenKind.STRING:
            self._advance()
            return ast.StringLiteral(value=token.text)
        if token.kind is TokenKind.SYSTEM_IDENTIFIER:
            name = self._advance().text
            args: list[ast.Expression] = []
            if self._accept_punct("("):
                if not self.current.is_punct(")"):
                    args.append(self._parse_expression())
                    while self._accept_punct(","):
                        args.append(self._parse_expression())
                self._expect_punct(")")
            return ast.FunctionCall(name=name, args=args)
        if token.kind is TokenKind.IDENTIFIER:
            name = self._advance().text
            if self._accept_punct("("):
                args: list[ast.Expression] = []
                if not self.current.is_punct(")"):
                    args.append(self._parse_expression())
                    while self._accept_punct(","):
                        args.append(self._parse_expression())
                self._expect_punct(")")
                return ast.FunctionCall(name=name, args=args)
            expr: ast.Expression = ast.Identifier(name=name)
            while self.current.is_punct("["):
                expr = self._parse_select(expr)
            return expr
        if token.is_punct("("):
            self._advance()
            expr = self._parse_expression()
            self._expect_punct(")")
            return expr
        if token.is_punct("{"):
            return self._parse_concat()
        raise self._error("expected expression")

    def _parse_select(self, target: ast.Expression) -> ast.Expression:
        self._expect_punct("[")
        first = self._parse_expression()
        if self._accept_punct(":"):
            second = self._parse_expression()
            self._expect_punct("]")
            return ast.PartSelect(target=target, msb=first, lsb=second, mode=":")
        if self.current.is_op("+:") or self.current.is_op("-:"):
            mode = self._advance().text
            width = self._parse_expression()
            self._expect_punct("]")
            return ast.PartSelect(target=target, msb=first, lsb=width, mode=mode)
        self._expect_punct("]")
        return ast.BitSelect(target=target, index=first)

    def _parse_concat(self) -> ast.Expression:
        self._expect_punct("{")
        first = self._parse_expression()
        if self.current.is_punct("{"):
            # Replication: {count{value}}
            self._expect_punct("{")
            value = self._parse_expression()
            parts = [value]
            while self._accept_punct(","):
                parts.append(self._parse_expression())
            self._expect_punct("}")
            self._expect_punct("}")
            inner: ast.Expression = parts[0] if len(parts) == 1 else ast.Concat(parts=parts)
            return ast.Replication(count=first, value=inner)
        parts = [first]
        while self._accept_punct(","):
            parts.append(self._parse_expression())
        self._expect_punct("}")
        return ast.Concat(parts=parts)


def _decode_number(text: str) -> ast.Number:
    """Decode a Verilog numeric literal into a :class:`~repro.verilog.ast_nodes.Number`."""
    original = text
    text = text.replace("_", "")
    if "'" not in text:
        if "." in text:
            # Real literals are only used for delays; store the integer part.
            return ast.Number(value=int(float(text)), text=original)
        return ast.Number(value=int(text), text=original)
    size_text, rest = text.split("'", 1)
    width = int(size_text) if size_text else None
    signed = False
    if rest and rest[0] in "sS":
        signed = True
        rest = rest[1:]
    base = rest[0].lower()
    digits = rest[1:]
    base_radix = {"b": 2, "o": 8, "d": 10, "h": 16}[base]
    value = 0
    xz_mask = 0
    bits_per_digit = {"b": 1, "o": 3, "d": 0, "h": 4}[base]
    for digit in digits:
        if digit in "xXzZ?":
            value = value * base_radix
            if bits_per_digit:
                xz_mask = (xz_mask << bits_per_digit) | ((1 << bits_per_digit) - 1)
            continue
        value = value * base_radix + int(digit, base_radix)
        if bits_per_digit:
            xz_mask <<= bits_per_digit
    if width is not None:
        value &= (1 << width) - 1
        xz_mask &= (1 << width) - 1
    return ast.Number(value=value, width=width, base=base, signed=signed, xz_mask=xz_mask, text=original)


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`~repro.verilog.ast_nodes.SourceFile`."""
    return Parser(tokenize(source)).parse()


def select_module(design: ast.SourceFile, name: str | None = None) -> ast.Module:
    """Return the module named ``name`` (or the first one) of a parsed source.

    Raises:
        ParseError: if the source has no module, or the named module is missing.
    """
    if not design.modules:
        raise ParseError("source contains no module definition")
    if name is None:
        return design.modules[0]
    module = design.find_module(name)
    if module is None:
        raise ParseError(f"module {name!r} not found in source")
    return module


def parse_module(source: str, name: str | None = None) -> ast.Module:
    """Parse source text and return a single module.

    Args:
        source: Verilog source containing at least one module.
        name: if given, the module with this name is returned; otherwise the first.

    Raises:
        ParseError: if the source has no module, or the named module is missing.
    """
    return select_module(parse_source(source), name)
