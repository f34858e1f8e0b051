"""Small expression language for user-defined profile curves.

A profile source has one statement per line or per ``;``, and ``#`` starts a
comment: ``param NAME = expr``, ``f = expr``, ``g = expr`` and
``domain = (expr, expr)``, for the profile (f(s), 0, g(s)) on (lo, hi).

Python's own parser (``ast``) reads each expression, with ``^`` as ``**``, and
accepts only: ``+ - * /``; ``^``, which binds like ``**`` (right-associative
and tighter than unary minus: ``2^3^2`` is ``2^9``, ``-s^2`` is ``-(s^2)``)
and whose exponent must not depend on ``s``; unary ``-``; the names ``s``,
``pi`` and the declared parameters; one-argument calls of sin cos tan sqrt exp
log abs atan; decimal literals ``12``, ``007``, ``1.5``, ``1.``, ``.5`` with
an optional exponent as in ``2e-3``. Anything else Python reads is a
ParseError: ``**`` as written, ``+s``, ``//``, ``1_000``, ``0x10``, ``1j``,
``True``, comparisons, attributes, keyword arguments, and Python keywords as
names. Positions in errors and in the returned trees index the user's text;
an error in a profile source gives the line and column of the file.
"""

from __future__ import annotations

import ast
import contextlib
import math
import re
import warnings

import numpy as np

from . import autodiff as ad


class ParseError(ValueError):
    """``pos`` indexes the parsed text, or with ``line`` (from 1) the line of a file."""

    def __init__(self, message: str, pos: int, line: int | None = None):
        where = f"position {pos}" if line is None else f"line {line}, column {pos + 1}"
        super().__init__(f"{message} (at {where})")
        self.message, self.pos, self.line = message, pos, line


def _has_s(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id == "s" for n in ast.walk(node))


def _parse(text: str, domain: bool = False):
    """Checked tree of one expression, or of a (lo, hi) pair if ``domain``."""
    src = "".join(" " if c.isspace() else c for c in text)
    bad = re.search(r"(?<=\*)\*|[^\w .+\-*/^()%s]" % ("," * domain), src, re.ASCII)
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", bad.start())
    # Python reads 007 as an error; blanking the leading zeros keeps columns
    src = re.sub(r"(?<![\w.])(?<![\d.][eE][+-])0+(?=\d)", lambda m: " " * len(m[0]), src)
    # column of src -> position in text; ^ is read as **, leading blanks (an indent) dropped
    skip = len(src) - len(src.lstrip())
    cols = [i for i, c in enumerate(text) for _ in range(1 + (c == "^"))][skip:] + [len(text)]
    src = src.lstrip().replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "1or s" only warns before it parses
            tree = ast.parse(src, mode="eval").body
    except SyntaxError as err:
        raise ParseError(err.msg, cols[min((err.offset or 0) - 1, len(cols) - 1)]) from None
    comma = text.find(",")
    if domain and not (isinstance(tree, ast.Tuple) and len(tree.elts) == 2 and text.count(",") == 1
                       and text[:comma].count("(") - text[:comma].count(")") == 1):
        raise ParseError(f"domain must be of the form (lo, hi): {text.strip()!r}", cols[0])
    for node in ast.walk(tree):
        if not isinstance(node, ast.expr) or domain and node is tree:
            continue
        i, j = node.col_offset, node.end_col_offset
        match node:
            case ast.BinOp(op=ast.Pow(), right=p) if _has_s(p):
                raise ParseError("exponent must not depend on s", cols[p.col_offset])
            case (ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() | ast.Pow())
                  | ast.UnaryOp(op=ast.USub()) | ast.Name()):
                pass
            case ast.Call(func=ast.Name(id=name) as func, args=[_], keywords=[]) if (
                    func.col_offset == i):  # a call of sin, not of (sin)
                if name not in ad.FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", cols[i])
            case ast.Constant() if re.fullmatch(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", src[i:j]):
                node.value = float(src[i:j])
            case _:
                raise ParseError(f"unexpected {src[i:j]!r}", cols[i])
        node.col_offset, node.end_col_offset = cols[i], cols[j]
    return tree


def parse_expression(text: str):
    """The checked ``ast`` tree of one expression; positions index ``text``."""
    return _parse(text)


def evaluate(node, env: dict):
    """Evaluate a parsed tree; env maps names to Dual2 or floats."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        try:
            return env[node.id]
        except KeyError:
            raise ParseError(f"unknown identifier {node.id!r}", node.col_offset) from None
    if isinstance(node, ast.UnaryOp):
        return -evaluate(node.operand, env)
    if isinstance(node, ast.Call):
        arg, fn = evaluate(node.args[0], env), ad.FUNCTIONS[node.func.id]
        return fn(arg) if isinstance(arg, ad.Dual2) else fn(ad.Dual2(arg)).val
    op = type(node.op)
    if op is ast.Pow:
        p, base = evaluate(node.right, env), evaluate(node.left, env)
        p = float(p.val if isinstance(p, ad.Dual2) else p)
        return base.pow_const(p) if isinstance(base, ad.Dual2) else base ** p
    left, right = evaluate(node.left, env), evaluate(node.right, env)
    if op is ast.Add:
        return left + right
    if op is ast.Sub:
        return left - right
    if op is ast.Mult:
        return left * right
    return left / right


def _constant(node, params: dict, statement: str, rhs: str) -> float:
    """Value of the s-free tree ``node`` of ``rhs``, the right-hand side of
    ``statement``; a ParseError naming both unless it is a finite number."""
    try:
        with np.errstate(all="ignore"):
            value = evaluate(node, dict(params))
    except (OverflowError, ZeroDivisionError):  # Python float arithmetic raises
        value = math.nan
    if isinstance(value, complex) or not math.isfinite(value):  # (-8)^(1/3) is complex
        raise ParseError(f"{rhs[node.col_offset:node.end_col_offset]!r} in statement "
                         f"{statement!r} is not a finite real number", node.col_offset)
    return float(value)


def _check_constants(node, params: dict, statement: str, rhs: str):
    """Evaluate every largest s-free subtree of ``node`` with _constant."""
    if not _has_s(node):
        _constant(node, params, statement, rhs)
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.expr) and child is not getattr(node, "func", None):
            _check_constants(child, params, statement, rhs)


@contextlib.contextmanager
def _located(line: int, column: int):
    """Give a ParseError raised inside a statement that starts at ``column`` of
    ``line`` the position of its fault in the file."""
    try:
        yield
    except ParseError as err:
        raise ParseError(err.message, column + err.pos, line) from None


def parse_profile_source(text: str):
    """Parse a profile definition file.

    Returns (f_ast, g_ast, (lo, hi), params). Raises ParseError, at the line
    and column of the fault, on syntax errors, missing statements, a malformed
    domain, or a constant (a parameter, a domain end or an s-free part of f or
    g) that is not a finite number; the last names its statement.
    """
    params: dict[str, float] = {"pi": math.pi}
    found = {}  # "f" and "g": (tree, where); "domain": (lo, hi)
    lines = text.splitlines() or [""]
    for number, raw in enumerate(lines, 1):
        for m in re.finditer(r"[^;\s][^;]*", raw.partition("#")[0]):
            line, column = m[0].rstrip(), m.start()
            head, eq, rhs = line.partition("=")
            rhs = " " * len(head + eq) + rhs  # positions in rhs index the statement
            with _located(number, column):
                if line.startswith("param "):
                    name = head[6:].strip()
                    if not name.isidentifier() or not rhs.strip():
                        raise ParseError(f"bad param statement {line!r}", 0)
                    params[name] = _constant(parse_expression(rhs), params, line, rhs)
                    continue
                name = head.strip()
                if not eq or not rhs.strip():
                    raise ParseError(f"bad statement {line!r}", 0)
                if name == "domain":
                    lo, hi = (_constant(e, params, line, rhs)
                              for e in _parse(rhs, domain=True).elts)
                    if not lo < hi:
                        raise ParseError(f"empty domain ({lo}, {hi})", 0)
                    found[name] = (lo, hi)
                elif name in ("f", "g"):
                    found[name] = parse_expression(rhs), (number, column, line, rhs)
                else:
                    raise ParseError(f"unknown statement {name!r}", 0)
    missing = [n for n in ("f", "g", "domain") if n not in found]
    if missing:
        raise ParseError(f"missing statements: {', '.join(missing)}", len(lines[-1]), len(lines))
    for tree, (number, column, line, rhs) in (found["f"], found["g"]):
        with _located(number, column):  # parameters may follow f and g
            _check_constants(tree, params, line, rhs)
    return found["f"][0], found["g"][0], found["domain"], params
