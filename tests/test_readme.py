import ast
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_block():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)
    assert m, "README.md has no python block under '## Library'"
    return m.group(1)


def test_readme_library_block_runs():
    # every statement runs; an expression's value has the repr its comment gives
    block = _library_block()
    lines = block.splitlines()
    scope: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        _, hash_, want = lines[stmt.end_lineno - 1].partition("#")
        assert hash_, f"README line {stmt.end_lineno}: no '# value' comment"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        assert repr(got) == want.strip(), ast.get_source_segment(block, stmt)
        checked += 1
    assert checked
