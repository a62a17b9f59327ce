"""The documented surface matches the package: README commands and exports."""

import json
import re
import shlex
from pathlib import Path

import morphic
from morphic.cli import main
from morphic.suite import ALL_CHECK_NAMES

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[list[str]]:
    """Argument lists of the ``morphic ...`` lines in the Command line section."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("morphic ")]


def test_readme_commands_run(tmp_path, capsys):
    commands = readme_commands()
    assert commands
    for i, argv in enumerate(commands):
        if "--out" in argv:
            argv = argv[: argv.index("--out")] + argv[argv.index("--out") + 2 :]
        out = tmp_path / f"out{i}"
        code = main([*argv, "--out", str(out)])
        assert code == (1 if argv[0] == "ivp" else 0), argv
        assert out.stat().st_size > 0, argv
        if argv[:2] == ["verify", "all"]:
            reports = json.loads(out.read_text())
            assert [r["check"] for r in reports] == list(ALL_CHECK_NAMES)
            assert [r["failures"] for r in reports] == [[]] * 13


def test_exports_resolve():
    missing = [name for name in morphic.__all__ if not hasattr(morphic, name)]
    assert missing == []
