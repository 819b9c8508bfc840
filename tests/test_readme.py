import ast
import os
import re
import shlex

import pytest

from stacksort.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme():
    with open(README, encoding="utf-8") as fh:
        return fh.read()


def _library_block():
    m = re.search(r"^## Library\n+```python\n(.*?)^```", _readme(), re.S | re.M)
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


def _transcripts():
    """(command, output lines) for each ``$ stacksort`` line in a fenced
    block of the README with output below it, up to the next ``$`` line."""
    found, fenced, command = [], False, None
    for line in _readme().splitlines():
        if line.startswith("```"):
            fenced, command = not fenced, None
        elif fenced and line.startswith("$ "):
            command = line[2:] if line.startswith("$ stacksort ") else None
            if command:
                found.append((command, []))
        elif command:
            found[-1][1].append(line)
    return [pytest.param(command, lines, id=command) for command, lines in found if lines]


@pytest.mark.parametrize("command, want", _transcripts())
def test_readme_transcript(command, want, capsys):
    # stdout equals the lines shown: "..." stands for any run of lines, and
    # "| head -N" keeps the first N
    argv = shlex.split(command)[1:]
    head = None
    if "|" in argv:
        argv, pipe = argv[:argv.index("|")], argv[argv.index("|") + 1:]
        assert pipe[0] == "head" and len(pipe) == 2, command
        head = int(pipe[1].lstrip("-"))
    main(argv)
    got = capsys.readouterr().out.splitlines()[:head]
    shown = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line + "\n")
                    for line in want)
    assert re.fullmatch(shown, "".join(line + "\n" for line in got)), (
        "\n".join(got))
