"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    assert scope["traj"].termination == "completed"
    assert len(scope["records"]) == scope["traj"].n_records
