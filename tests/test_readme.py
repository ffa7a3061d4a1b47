"""README.md agrees with the code: every Python block runs as written against
the library source, and the command-line flag table lists each command's flags.

Each block runs alone in a fresh interpreter with ``src`` on the path, so a
block cannot lean on names another block defined.  The blocks take under
1 s together.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from spotalign.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.S | re.M)


def test_readme_python_blocks_run(tmp_path):
    assert BLOCKS, "README.md has no Python block"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for block in BLOCKS:
        proc = subprocess.run(
            [sys.executable, "-c", block], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, f"README block failed:\n{block}\n{proc.stderr}"


def test_readme_flag_table_matches_parser():
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z]+)` +\| (.*) \|$", section, flags=re.M)
    table = {command: {*re.findall(r"--[a-z-]+", flags), "--out-dir"} for command, flags in rows}
    subparsers = next(a for a in _build_parser()._actions if isinstance(a.choices, dict))
    parser = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert table == parser
