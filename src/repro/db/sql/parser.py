"""Recursive-descent SQL parser.

Grammar (simplified)::

    statement   := select | insert | create_table | create_index
    select      := select_core (UNION [ALL] select_core)*
                   [ORDER BY order_item (',' order_item)*]
                   [LIMIT number [OFFSET number]]
    select_core := SELECT [DISTINCT] item (',' item)*
                   [FROM from_item] [WHERE expr]
                   [GROUP BY expr (',' expr)*] [HAVING expr]
    from_item   := table_or_sub ([INNER|LEFT [OUTER]] JOIN
                   table_or_sub ON expr)*

Expression precedence (loosest first): OR, AND, NOT, comparison /
IN / BETWEEN / LIKE / IS, concatenation (``||``), additive,
multiplicative, unary, primary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.db.sql import ast
from repro.db.sql.tokenizer import (
    EOF,
    IDENT,
    KW,
    NUMBER,
    OP,
    STRING,
    Token,
    tokenize,
)
from repro.errors import SQLParseError

_COMPARISONS = {"=", "<>", "!=", "<", "<=", ">", ">="}
#: Binding level of each binary operator below the comparisons
#: (higher binds tighter): concatenation, additive, multiplicative.
_BINARY_LEVELS = {"||": 1, "+": 2, "-": 2, "*": 3, "/": 3, "%": 3}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, kind: str, value: object = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind == kind and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            actual = self.peek()
            raise SQLParseError(
                f"expected {value or kind}, got {actual.value!r} "
                f"at offset {actual.position}"
            )
        return token

    def expect_ident(self) -> str:
        token = self.tokens[self.pos]
        if token.kind == IDENT:
            self.pos += 1
            return str(token.value)
        raise SQLParseError(
            f"expected identifier, got {token.value!r} "
            f"at offset {token.position}"
        )

    # -- statements ------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.matches(KW, "SELECT"):
            stmt: ast.Statement = self.parse_select()
        elif token.matches(KW, "INSERT"):
            stmt = self.parse_insert()
        elif token.matches(KW, "CREATE"):
            stmt = self.parse_create()
        elif token.matches(KW, "UPDATE"):
            stmt = self.parse_update()
        elif token.matches(KW, "DELETE"):
            stmt = self.parse_delete()
        else:
            raise SQLParseError(f"unsupported statement start {token.value!r}")
        self.accept(OP, ";")
        self.expect(EOF)
        return stmt

    def parse_select(self) -> ast.Select:
        first = self.parse_select_core()
        compounds: List[Tuple[str, ast.Select]] = []
        while self.accept(KW, "UNION"):
            op = "UNION ALL" if self.accept(KW, "ALL") else "UNION"
            compounds.append((op, self.parse_select_core()))
        order_by: List[ast.OrderItem] = []
        if self.accept(KW, "ORDER"):
            self.expect(KW, "BY")
            order_by.append(self.parse_order_item())
            while self.accept(OP, ","):
                order_by.append(self.parse_order_item())
        limit = offset = None
        if self.accept(KW, "LIMIT"):
            limit = int(self.expect(NUMBER).value)
            if self.accept(KW, "OFFSET"):
                offset = int(self.expect(NUMBER).value)
        return ast.Select(
            items=first.items,
            from_item=first.from_item,
            where=first.where,
            group_by=first.group_by,
            having=first.having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=first.distinct,
            compounds=tuple(compounds),
        )

    def parse_select_core(self) -> ast.Select:
        self.expect(KW, "SELECT")
        distinct = bool(self.accept(KW, "DISTINCT"))
        if self.accept(KW, "ALL"):
            distinct = False
        items = [self.parse_select_item()]
        while self.accept(OP, ","):
            items.append(self.parse_select_item())
        from_item = None
        if self.accept(KW, "FROM"):
            from_item = self.parse_from()
        where = None
        if self.accept(KW, "WHERE"):
            where = self.parse_expr()
        group_by: List[ast.Expr] = []
        if self.accept(KW, "GROUP"):
            self.expect(KW, "BY")
            group_by.append(self.parse_expr())
            while self.accept(OP, ","):
                group_by.append(self.parse_expr())
        having = None
        if self.accept(KW, "HAVING"):
            having = self.parse_expr()
        return ast.Select(
            items=tuple(items),
            from_item=from_item,
            where=where,
            group_by=tuple(group_by),
            having=having,
            distinct=distinct,
        )

    def parse_select_item(self) -> ast.SelectItem:
        if self.accept(OP, "*"):
            return ast.SelectItem(ast.Star())
        # alias.* form
        if (
            self.peek().kind == IDENT
            and self.tokens[self.pos + 1].matches(OP, ".")
            and self.tokens[self.pos + 2].matches(OP, "*")
        ):
            table = self.expect_ident()
            self.advance()  # '.'
            self.advance()  # '*'
            return ast.SelectItem(ast.Star(table))
        expr = self.parse_expr()
        alias = None
        if self.accept(KW, "AS"):
            alias = self.expect_ident()
        elif self.peek().kind == IDENT:
            alias = self.expect_ident()
        return ast.SelectItem(expr, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        descending = False
        if self.accept(KW, "DESC"):
            descending = True
        else:
            self.accept(KW, "ASC")
        return ast.OrderItem(expr, descending)

    def parse_from(self) -> ast.FromItem:
        item: ast.FromItem = self.parse_table_or_subquery()
        while True:
            left_outer = False
            if self.accept(KW, "INNER"):
                self.expect(KW, "JOIN")
            elif self.accept(KW, "JOIN"):
                pass
            elif self.accept(KW, "LEFT"):
                self.accept(KW, "OUTER")
                self.expect(KW, "JOIN")
                left_outer = True
            elif self.accept(OP, ","):
                raise SQLParseError(
                    "comma joins are not supported; use explicit JOIN ... ON"
                )
            else:
                break
            right = self.parse_table_or_subquery()
            self.expect(KW, "ON")
            condition = self.parse_expr()
            item = ast.Join(item, right, condition, left_outer)
        return item

    def parse_table_or_subquery(self) -> Union[ast.TableRef, ast.SubqueryRef]:
        if self.accept(OP, "("):
            select = self.parse_select()
            self.expect(OP, ")")
            self.accept(KW, "AS")
            alias = self.expect_ident()
            return ast.SubqueryRef(select, alias)
        name = self.expect_ident()
        alias = None
        if self.accept(KW, "AS"):
            alias = self.expect_ident()
        elif self.peek().kind == IDENT:
            alias = self.expect_ident()
        return ast.TableRef(name, alias)

    def parse_insert(self) -> ast.Insert:
        self.expect(KW, "INSERT")
        self.expect(KW, "INTO")
        table = self.expect_ident()
        columns: List[str] = []
        if self.accept(OP, "("):
            columns.append(self.expect_ident())
            while self.accept(OP, ","):
                columns.append(self.expect_ident())
            self.expect(OP, ")")
        self.expect(KW, "VALUES")
        rows: List[Tuple[ast.Expr, ...]] = []
        while True:
            self.expect(OP, "(")
            row = [self.parse_expr()]
            while self.accept(OP, ","):
                row.append(self.parse_expr())
            self.expect(OP, ")")
            rows.append(tuple(row))
            if not self.accept(OP, ","):
                break
        return ast.Insert(table, tuple(columns), tuple(rows))

    def parse_update(self) -> ast.Update:
        self.expect(KW, "UPDATE")
        table = self.expect_ident()
        self.expect(KW, "SET")
        assignments = [self.parse_assignment()]
        while self.accept(OP, ","):
            assignments.append(self.parse_assignment())
        where = None
        if self.accept(KW, "WHERE"):
            where = self.parse_expr()
        return ast.Update(table, tuple(assignments), where)

    def parse_assignment(self):
        column = self.expect_ident()
        self.expect(OP, "=")
        return (column, self.parse_expr())

    def parse_delete(self) -> ast.Delete:
        self.expect(KW, "DELETE")
        self.expect(KW, "FROM")
        table = self.expect_ident()
        where = None
        if self.accept(KW, "WHERE"):
            where = self.parse_expr()
        return ast.Delete(table, where)

    def parse_create(self) -> ast.Statement:
        self.expect(KW, "CREATE")
        if self.accept(KW, "TABLE"):
            name = self.expect_ident()
            self.expect(OP, "(")
            columns: List[Tuple[str, str]] = []
            while True:
                col = self.expect_ident()
                type_name = self.expect_ident()
                columns.append((col, type_name))
                if not self.accept(OP, ","):
                    break
            self.expect(OP, ")")
            return ast.CreateTable(name, tuple(columns))
        if self.accept(KW, "INDEX"):
            name = self.expect_ident()
            self.expect(KW, "ON")
            table = self.expect_ident()
            self.expect(OP, "(")
            column = self.expect_ident()
            self.expect(OP, ")")
            return ast.CreateIndex(name, table, column)
        raise SQLParseError("expected TABLE or INDEX after CREATE")

    # -- expressions -------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept(KW, "OR"):
            left = ast.Binary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept(KW, "AND"):
            left = ast.Binary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept(KW, "NOT"):
            return ast.Unary("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_binary()
        token = self.peek()
        if token.kind == OP and token.value in _COMPARISONS:
            self.advance()
            op = "<>" if token.value == "!=" else str(token.value)
            return ast.Binary(op, left, self.parse_binary())
        negated = False
        if self.peek().matches(KW, "NOT"):
            follows = self.tokens[self.pos + 1]
            if follows.kind == KW and follows.value in ("IN", "BETWEEN",
                                                        "LIKE"):
                self.advance()
                negated = True
        if self.accept(KW, "IN"):
            self.expect(OP, "(")
            if self.peek().matches(KW, "SELECT"):
                subquery = self.parse_select()
                self.expect(OP, ")")
                return ast.InSubquery(left, subquery, negated)
            items = [self.parse_expr()]
            while self.accept(OP, ","):
                items.append(self.parse_expr())
            self.expect(OP, ")")
            return ast.InList(left, tuple(items), negated)
        if self.accept(KW, "BETWEEN"):
            low = self.parse_binary()
            self.expect(KW, "AND")
            high = self.parse_binary()
            return ast.Between(left, low, high, negated)
        if self.accept(KW, "LIKE"):
            return ast.Like(left, self.parse_binary(), negated)
        if self.accept(KW, "IS"):
            is_negated = bool(self.accept(KW, "NOT"))
            self.expect(KW, "NULL")
            return ast.IsNull(left, is_negated)
        return left

    def parse_binary(self, min_level: int = 1) -> ast.Expr:
        """The ``||``, additive and multiplicative levels, by
        precedence climbing over :data:`_BINARY_LEVELS`: each operator
        takes as its right operand everything that binds tighter, so
        every level stays left-associative."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            level = (_BINARY_LEVELS.get(token.value)
                     if token.kind == OP else None)
            if level is None or level < min_level:
                return left
            self.pos += 1
            left = ast.Binary(token.value, left,
                              self.parse_binary(level + 1))

    def parse_unary(self) -> ast.Expr:
        if self.accept(OP, "-"):
            return ast.Unary("-", self.parse_unary())
        if self.accept(OP, "+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        kind, value = token.kind, token.value
        if kind == IDENT:
            name = self.expect_ident()
            if self.accept(OP, "("):
                return self.parse_func_call(name)
            if self.accept(OP, "."):
                column = self.expect_ident()
                return ast.Column(name, column)
            return ast.Column(None, name)
        if kind == NUMBER or kind == STRING:
            self.pos += 1
            return ast.Literal(value)
        if kind == KW:
            if value == "NULL":
                self.pos += 1
                return ast.Literal(None)
            if value == "CASE":
                return self.parse_case()
            if value == "CAST":
                return self.parse_cast()
        elif kind == OP and value == "(":
            self.pos += 1
            if self.peek().matches(KW, "SELECT"):
                subquery = self.parse_select()
                self.expect(OP, ")")
                return ast.ScalarSubquery(subquery)
            expr = self.parse_expr()
            self.expect(OP, ")")
            return expr
        raise SQLParseError(
            f"unexpected token {value!r} at offset {token.position}"
        )

    def parse_func_call(self, name: str) -> ast.Expr:
        upper = name.upper()
        if self.accept(OP, ")"):
            return ast.FuncCall(upper, ())
        if self.accept(OP, "*"):
            self.expect(OP, ")")
            return ast.FuncCall(upper, (ast.Star(),))
        distinct = bool(self.accept(KW, "DISTINCT"))
        args = [self.parse_expr()]
        while self.accept(OP, ","):
            args.append(self.parse_expr())
        self.expect(OP, ")")
        return ast.FuncCall(upper, tuple(args), distinct)

    def parse_case(self) -> ast.Expr:
        self.expect(KW, "CASE")
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.accept(KW, "WHEN"):
            condition = self.parse_expr()
            self.expect(KW, "THEN")
            whens.append((condition, self.parse_expr()))
        default = None
        if self.accept(KW, "ELSE"):
            default = self.parse_expr()
        self.expect(KW, "END")
        if not whens:
            raise SQLParseError("CASE requires at least one WHEN")
        return ast.Case(tuple(whens), default)

    def parse_cast(self) -> ast.Expr:
        self.expect(KW, "CAST")
        self.expect(OP, "(")
        operand = self.parse_expr()
        self.expect(KW, "AS")
        type_name = self.expect_ident()
        self.expect(OP, ")")
        return ast.FuncCall("CAST_" + type_name.upper(), (operand,))


def parse_statement(sql: str) -> ast.Statement:
    """Parse one SQL statement; raises
    :class:`~repro.errors.SQLParseError` on malformed input."""
    return _Parser(tokenize(sql)).parse_statement()
