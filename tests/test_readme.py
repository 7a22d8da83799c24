"""The README's Library and CLI examples, run as written."""
import inspect
import re
import shlex
import sys
from pathlib import Path

import causal_sep

from conftest import run_cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def _expected_prints(code: str) -> dict[int, str]:
    """Line number of each ``print`` with a ``# value`` comment, on its line
    or on the line after it, mapped to that comment; a comment's
    `` == ...`` gloss is dropped."""
    lines = code.splitlines()
    expected = {}
    for number, line in enumerate(lines, start=1):
        if not line.startswith("print("):
            continue
        comment = "#" + line.split("#", 1)[1] if "#" in line else lines[number].strip()
        if comment.startswith("# "):
            expected[number] = comment[2:].split("  ==")[0].strip()
    return expected


def test_library_block_prints_its_comments():
    code = _block("Library", "python")
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(map(str, args))

    exec(compile(code, "README-library", "exec"), {"print": record})
    expected = _expected_prints(code)
    assert len(expected) == 6
    assert {n: printed[n] for n in expected} == expected


def test_top_level_exports_exactly_the_library_imports():
    imports = re.search(r"from causal_sep import \((.*?)\)", _block("Library", "python"), re.S)
    documented = set(imports.group(1).replace(",", " ").split())
    documented |= set(re.findall(r"from causal_sep import (\w+)\n", _block("Library", "python")))
    exported = {
        name for name, value in vars(causal_sep).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(documented) == 11
    assert exported == documented


def _commands(block: str) -> list[tuple[list[str], str | None]]:
    """Each ``causal-sep`` command of a shell block, as arguments, with the
    ``# {...}`` payload comment that follows it, if any."""
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("causal-sep "):
            commands.append((shlex.split(line)[1:], None))
        elif line.startswith("# {"):
            commands[-1] = (commands[-1][0], line[2:])
    return commands


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_block("CLI", "sh"))
    assert len(commands) == 10
    shown = 0
    for argv, payload in commands:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
        if payload is not None:
            pattern = ".*".join(map(re.escape, payload.split("...")))
            assert re.fullmatch(pattern + "\n", out), (argv, out)
            shown += 1
    assert shown == 1
