"""README's examples, run as written.

Each call in the Library block is evaluated after the block's imports,
and the groups it returns must render to exactly its `# [...]` comment;
a call without one fails.  Each `$ tilecohom ...` example that shows
output is run through `cli.main`, and it must print exactly those lines.
CI compares the installed console script against `cli_examples()` too.
"""
import ast
import re
import shlex
from pathlib import Path

import pytest

from tilecohom import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang):
    """The first fenced `lang` block after the line `heading`."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{heading}\n")
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(
        text, start)
    return match.group(1)


def library_examples():
    """(the block's other statements, [(call, result comment)]) of README's
    Library block; a call without a result comment has None."""
    source = _block("## Library", "python")
    lines = source.splitlines()
    setup, calls = [], []
    for node in ast.parse(source).body:
        segment = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            setup.append(segment)
            continue
        rest = lines[node.end_lineno - 1][node.end_col_offset:]
        calls.append((segment, rest.partition("#")[2].strip() or None))
    return "\n".join(setup), calls


def cli_examples():
    """[(argv, expected stdout lines)] of README's `$ tilecohom` examples
    that show their output."""
    out = []
    for example in _block("Examples:", "text").split("\n\n"):
        command, *output = example.strip().splitlines()
        if output:
            assert command.startswith("$ tilecohom "), command
            out.append((shlex.split(command)[2:], output))
    return out


def test_library_block_has_examples():
    assert len(library_examples()[1]) == 3


@pytest.mark.parametrize("call,comment", library_examples()[1])
def test_library_results(call, comment):
    namespace = {}
    exec(library_examples()[0], namespace)
    groups = eval(call, namespace)
    assert "[" + ", ".join(map(str, groups)) + "]" == comment


def test_cli_examples_found():
    assert [argv[0] for argv, _ in cli_examples()] == \
        ["space", "quotient", "path"]


@pytest.mark.parametrize("argv,output", cli_examples())
def test_cli_examples(argv, output, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == output
