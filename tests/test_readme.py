"""The Python snippets of README.md run, and show the values they claim.

A statement whose trailing comment is a Python literal is evaluated and
compared with it: numbers to the 4 decimals the README prints, anything
else exactly.  Other statements just run, so a public name that goes
away fails here instead of leaving the README stale.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SNIPPETS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def _comments(src: str) -> dict:
    """Line number -> text of the comment on that line."""
    tokens = tokenize.generate_tokens(io.StringIO(src).readline)
    return {t.start[0]: t.string[1:].strip() for t in tokens if t.type == tokenize.COMMENT}


def _literal(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None


def _matches(got, want) -> bool:
    if isinstance(want, tuple):
        return (isinstance(got, tuple) and len(got) == len(want)
                and all(map(_matches, got, want)))
    if isinstance(want, (float, complex)):
        return abs(got - want) <= 1e-4
    return type(got) is type(want) and got == want


def test_there_are_two_snippets():
    assert len(SNIPPETS) == 2


@pytest.mark.parametrize("src", SNIPPETS, ids=[f"snippet{i}" for i in range(len(SNIPPETS))])
def test_snippet_runs_and_shows_its_values(src):
    comments = _comments(src)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(src).body:
        want = _literal(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and want is not None:
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert _matches(got, want), (ast.unparse(stmt), got, want)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked >= 2
