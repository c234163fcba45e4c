"""The README's library example and config-key table match the current code."""

import re
from pathlib import Path

from paracheb import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme_example"})


def test_config_key_table_names_every_key():
    # Each key with exactly the commands that read it ("all" for every command).
    text = README.read_text(encoding="utf-8")
    table = text.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
    documented = {}
    for row in rows:
        commands = row[2].strip()
        commands = set(cli.COMMAND_KEYS) if commands == "all" else set(commands.split(", "))
        for key in re.findall(r"`([^`]+)`", row[1]):
            documented[key] = commands
    read_by = {}
    for command, keys in cli.COMMAND_KEYS.items():
        for key in keys:
            read_by.setdefault(key, set()).add(command)
    assert documented == read_by
