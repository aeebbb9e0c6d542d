"""Tests for the Verilog parser and AST construction."""

from __future__ import annotations

import pytest

from repro.verilog import ast_nodes as ast
from repro.verilog.errors import ParseError
from repro.verilog.parser import parse_module, parse_source


class TestModuleParsing:
    def test_empty_module(self):
        design = parse_source("module empty(); endmodule")
        assert len(design.modules) == 1
        assert design.modules[0].name == "empty"
        assert design.modules[0].ports == []

    def test_module_without_port_list(self):
        module = parse_module("module m; wire w; endmodule")
        assert module.name == "m"

    def test_ansi_ports(self, counter_source):
        module = parse_module(counter_source)
        assert module.port_names() == ["clk", "rst", "en", "count"]
        count = module.ports[-1]
        assert count.direction is ast.PortDirection.OUTPUT
        assert count.net_type is ast.NetType.REG
        assert count.range is not None

    def test_module_parameters(self, counter_source):
        module = parse_module(counter_source)
        assert "WIDTH" in module.parameters
        assert isinstance(module.parameters["WIDTH"], ast.Number)
        assert module.parameters["WIDTH"].value == 4

    def test_non_ansi_ports_merge_direction(self):
        source = """
        module nonansi(a, b, y);
            input a;
            input b;
            output y;
            assign y = a & b;
        endmodule
        """
        module = parse_module(source)
        directions = {port.name: port.direction for port in module.ports}
        assert directions == {
            "a": ast.PortDirection.INPUT,
            "b": ast.PortDirection.INPUT,
            "y": ast.PortDirection.OUTPUT,
        }

    def test_multiple_modules(self):
        design = parse_source("module a(); endmodule\nmodule b(); endmodule")
        assert [m.name for m in design.modules] == ["a", "b"]
        assert design.find_module("b") is not None
        assert design.find_module("missing") is None

    def test_parse_module_by_name(self):
        source = "module a(); endmodule module b(); endmodule"
        assert parse_module(source, "b").name == "b"

    def test_missing_module_raises(self):
        with pytest.raises(ParseError):
            parse_module("module a(); endmodule", "zzz")

    def test_no_module_raises(self):
        with pytest.raises(ParseError):
            parse_module("   ")

    def test_garbage_raises(self, broken_source):
        with pytest.raises(ParseError):
            parse_source(broken_source)

    def test_unclosed_module_raises(self):
        with pytest.raises(ParseError):
            parse_source("module m(); wire a;")


class TestModuleItems:
    def test_net_declarations(self):
        module = parse_module("module m(); wire [7:0] a, b; reg c = 1'b0; integer i; endmodule")
        declarations = module.find_items(ast.NetDeclaration)
        assert len(declarations) == 3
        assert declarations[0].names == ["a", "b"]
        assert declarations[1].initial_values["c"].value == 0
        assert declarations[2].net_type is ast.NetType.INTEGER

    def test_localparam_and_parameter(self):
        module = parse_module(
            "module m(); parameter W = 8; localparam IDLE = 2'd0, RUN = 2'd1; endmodule"
        )
        declarations = module.find_items(ast.ParameterDeclaration)
        assert declarations[0].local is False
        assert declarations[1].local is True
        assert set(declarations[1].names) == {"IDLE", "RUN"}

    def test_continuous_assign(self, adder_source):
        module = parse_module(adder_source)
        assigns = module.find_items(ast.ContinuousAssign)
        assert len(assigns) == 1
        assert isinstance(assigns[0].target, ast.Concat)
        assert isinstance(assigns[0].value, ast.BinaryOp)

    def test_always_block_sensitivity(self, fsm_source):
        module = parse_module(fsm_source)
        always_blocks = module.find_items(ast.AlwaysBlock)
        assert len(always_blocks) == 3
        first = always_blocks[0]
        assert first.sensitivity[0].edge is ast.EdgeKind.POSEDGE
        assert first.sensitivity[1].edge is ast.EdgeKind.POSEDGE
        star = always_blocks[1]
        assert star.sensitivity[0].edge is ast.EdgeKind.ANY

    def test_always_star_without_parentheses(self):
        module = parse_module("module m(input a, output reg y); always @* y = a; endmodule")
        block = module.find_items(ast.AlwaysBlock)[0]
        assert block.sensitivity[0].edge is ast.EdgeKind.ANY

    def test_level_sensitive_list(self):
        module = parse_module(
            "module m(input a, input b, output reg y); always @(a or b) y = a & b; endmodule"
        )
        block = module.find_items(ast.AlwaysBlock)[0]
        assert len(block.sensitivity) == 2
        assert all(item.edge is ast.EdgeKind.LEVEL for item in block.sensitivity)

    def test_initial_block(self):
        module = parse_module("module m(); reg r; initial r = 1'b1; endmodule")
        assert len(module.find_items(ast.InitialBlock)) == 1

    def test_module_instance_named_connections(self):
        source = """
        module top(input a, input b, output y);
            and_gate u1 (.x(a), .y(b), .z(y));
        endmodule
        """
        module = parse_module(source)
        instance = module.find_items(ast.ModuleInstance)[0]
        assert instance.module_name == "and_gate"
        assert instance.instance_name == "u1"
        assert [c.port for c in instance.connections] == ["x", "y", "z"]

    def test_module_instance_with_parameters(self):
        source = """
        module top(input clk, output [7:0] q);
            counter #(.WIDTH(8)) c0 (clk, q);
        endmodule
        """
        instance = parse_module(source).find_items(ast.ModuleInstance)[0]
        assert instance.parameter_overrides[0].port == "WIDTH"
        assert instance.connections[0].port is None

    def test_function_declaration(self):
        source = """
        module m(input [3:0] a, output [3:0] y);
            function [3:0] double;
                input [3:0] value;
                double = value << 1;
            endfunction
            assign y = double(a);
        endmodule
        """
        module = parse_module(source)
        functions = module.find_items(ast.FunctionDeclaration)
        assert len(functions) == 1
        assert functions[0].name == "double"
        assert len(functions[0].inputs) == 1


class TestStatements:
    def _body(self, text: str) -> ast.Statement:
        module = parse_module(
            f"module m(input a, input b, input clk, output reg y); always @(posedge clk) {text} endmodule"
        )
        return module.find_items(ast.AlwaysBlock)[0].body

    def test_if_else_chain(self):
        body = self._body("if (a) y <= 1'b1; else if (b) y <= 1'b0; else y <= a & b;")
        assert isinstance(body, ast.IfStatement)
        assert isinstance(body.else_branch, ast.IfStatement)

    def test_case_with_default(self):
        body = self._body(
            "case ({a, b}) 2'b00: y <= 1'b0; 2'b01, 2'b10: y <= 1'b1; default: y <= 1'b0; endcase"
        )
        assert isinstance(body, ast.CaseStatement)
        assert len(body.items) == 3
        assert body.items[1].expressions and len(body.items[1].expressions) == 2
        assert body.items[2].is_default

    def test_casez(self):
        body = self._body("casez (a) 1'b?: y <= 1'b1; endcase")
        assert isinstance(body, ast.CaseStatement)
        assert body.kind == "casez"

    def test_for_loop(self):
        source = """
        module m(input clk, output reg [7:0] y);
            integer i;
            always @(posedge clk) begin
                for (i = 0; i < 8; i = i + 1)
                    y[i] <= 1'b0;
            end
        endmodule
        """
        block = parse_module(source).find_items(ast.AlwaysBlock)[0].body
        assert isinstance(block.statements[0], ast.ForLoop)

    def test_named_block(self):
        body = self._body("begin : blk y <= a; end")
        assert isinstance(body, ast.Block)
        assert body.name == "blk"

    def test_nonblocking_vs_blocking(self):
        nonblocking = self._body("y <= a;")
        assert isinstance(nonblocking, ast.NonBlockingAssign)
        module = parse_module("module m(input a, output reg y); always @(*) y = a; endmodule")
        blocking = module.find_items(ast.AlwaysBlock)[0].body
        assert isinstance(blocking, ast.BlockingAssign)

    def test_system_task_statement(self):
        body = self._body('begin $display("value %d", y); end')
        assert isinstance(body.statements[0], ast.SystemTaskCall)

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_module("module m(input a, output y); assign y = a endmodule")


class TestExpressions:
    def _expr(self, text: str) -> ast.Expression:
        module = parse_module(f"module m(input [7:0] a, input [7:0] b, input c, output [7:0] y); assign y = {text}; endmodule")
        return module.find_items(ast.ContinuousAssign)[0].value

    def test_precedence_of_and_over_or(self):
        expression = self._expr("a | b & c")
        assert isinstance(expression, ast.BinaryOp)
        assert expression.op == "|"
        assert isinstance(expression.right, ast.BinaryOp)
        assert expression.right.op == "&"

    def test_precedence_of_mul_over_add(self):
        expression = self._expr("a + b * c")
        assert expression.op == "+"
        assert expression.right.op == "*"

    @staticmethod
    def _grouping(expression: ast.Expression) -> str:
        """The binary-operator tree written with every group parenthesised."""
        if isinstance(expression, ast.BinaryOp):
            left = TestExpressions._grouping(expression.left)
            right = TestExpressions._grouping(expression.right)
            return f"({left} {expression.op} {right})"
        if isinstance(expression, ast.UnaryOp):
            return f"{expression.op}{TestExpressions._grouping(expression.operand)}"
        if isinstance(expression, ast.Identifier):
            return expression.name
        return "?"

    @pytest.mark.parametrize(
        "text, grouping",
        [
            ("a - b - c", "((a - b) - c)"),
            ("a ** b ** c", "((a ** b) ** c)"),
            ("a < b <= c", "((a < b) <= c)"),
            ("a ^~ b ~^ c ^ a", "(((a ^~ b) ~^ c) ^ a)"),
            (
                "a || b && c | a ^ b & c == a < b << c + a * b ** c",
                "(a || (b && (c | (a ^ (b & (c == (a < (b << (c + (a * (b ** c)))))))))))",
            ),
            (
                "a ** b * c + a << b < c == a & b ^ c | a && b || c",
                "(((((((((((a ** b) * c) + a) << b) < c) == a) & b) ^ c) | a) && b) || c)",
            ),
            ("-a + ~b * !c", "(-a + (~b * !c))"),
        ],
    )
    def test_binary_operator_grouping(self, text, grouping):
        assert self._grouping(self._expr(text)) == grouping

    def test_parentheses_override(self):
        expression = self._expr("(a + b) * c")
        assert expression.op == "*"
        assert expression.left.op == "+"

    def test_ternary(self):
        expression = self._expr("c ? a : b")
        assert isinstance(expression, ast.Ternary)

    def test_unary_reduction(self):
        expression = self._expr("{8{&a}}")
        assert isinstance(expression, ast.Replication)
        assert isinstance(expression.value, ast.UnaryOp)
        assert expression.value.op == "&"

    def test_concat_and_replication(self):
        expression = self._expr("{a[3:0], {4{c}}}")
        assert isinstance(expression, ast.Concat)
        assert isinstance(expression.parts[0], ast.PartSelect)
        assert isinstance(expression.parts[1], ast.Replication)

    def test_bit_select_and_part_select(self):
        assert isinstance(self._expr("a[3]"), ast.BitSelect)
        part = self._expr("a[7:4]")
        assert isinstance(part, ast.PartSelect)
        assert part.mode == ":"

    def test_indexed_part_select(self):
        part = self._expr("a[c +: 4]")
        assert isinstance(part, ast.PartSelect)
        assert part.mode == "+:"

    def test_sized_number_decoding(self):
        number = self._expr("8'hA5")
        assert isinstance(number, ast.Number)
        assert number.value == 0xA5
        assert number.width == 8
        assert number.base == "h"

    def test_number_with_x_bits(self):
        number = self._expr("4'b1x0z")
        assert isinstance(number, ast.Number)
        assert number.xz_mask != 0

    def test_signed_system_call(self):
        expression = self._expr("$signed(a)")
        assert isinstance(expression, ast.FunctionCall)
        assert expression.name == "$signed"

    def test_equality_operators(self):
        assert self._expr("a == b").op == "=="
        assert self._expr("a === b").op == "==="
