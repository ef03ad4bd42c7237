"""Every demo script, and the README's quick tour, runs to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_readme_quick_tour_runs():
    """Run the README's python block, keeping the value of each expression."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append((ast.get_source_segment(block, node), eval(code, namespace)))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    gap = next(v for src, v in values if "povm_classical_angle" in src)
    assert abs(gap) <= 1e-9  # the optimal measurement attains the Bures angle
    assert next(v for src, v in values if '["matched"]' in src) is True
