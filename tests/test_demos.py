"""Every script in demos/ and the README's Library snippet run to completion
and print their report."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_library_snippet_runs(capsys):
    # the first python block of the README, which imports only from srbflow.__all__
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    first, second = map(float, capsys.readouterr().out.split())
    assert first == second
    assert first == pytest.approx(0.62850904, abs=1e-8)
