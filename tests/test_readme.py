"""Every Python block in README.md runs as written against the library source.

Each block runs alone in a fresh interpreter with ``src`` on the path, so a
block cannot lean on names another block defined.  The blocks take under
1 s together.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), flags=re.S | re.M)


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
