import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # the suite's own warning policy: an unguarded inf or nan is an error
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.strip()


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    degree, zeros = capsys.readouterr().out.split(" ", 1)
    assert degree == "2"
    got = sorted(ast.literal_eval(zeros), key=lambda a: a.real)
    assert abs(got[0] - (-0.45j)) < 1e-10 and abs(got[1] - 0.3) < 1e-10
