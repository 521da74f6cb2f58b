"""Count the code lines and settable values of the ``tffilter`` package, per module and in total.

A code line is a source line that holds at least one token of code: blank
lines, comment-only lines and the lines of docstrings (a string literal that
opens a module, class or function body) are not counted.  A settable value is
a parameter of a function (``self`` and ``cls`` excluded, ``*args`` and
``**kwargs`` counted) or a field of a dataclass; the last column counts those
that have a default.  Only the standard library's ``ast`` and ``tokenize`` are
used.

Run from a checkout:

    python tools/code_lines.py            # src/tffilter
    python tools/code_lines.py some/dir   # any package directory
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and of every class and function."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of ``path`` that carry a code token and are not part of a docstring."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def settable_values(path: Path) -> tuple[int, int]:
    """(settable values, those with a default) of the module at ``path``."""
    count = defaults = 0
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            named = args.posonlyargs + args.args + args.kwonlyargs
            count += sum(a.arg not in ("self", "cls") for a in named)
            count += (args.vararg is not None) + (args.kwarg is not None)
            defaults += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            count += len(fields)
            defaults += sum(f.value is not None for f in fields)
    return count, defaults


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "tffilter"
    rows = {p.name: (code_lines(p), *settable_values(p)) for p in sorted(root.glob("*.py"))}
    width = max(map(len, rows), default=5)
    print(f"{'module':<{width}}  {'code':>5}  {'settable':>8}  {'defaults':>8}")
    totals = [sum(col) for col in zip(*rows.values())] or [0, 0, 0]
    for name, (code, settable, defaults) in [*rows.items(), ("total", totals)]:
        print(f"{name:<{width}}  {code:5d}  {settable:8d}  {defaults:8d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
