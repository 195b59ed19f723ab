"""README's Python example runs, and names only the package's public surface."""

import re
from pathlib import Path

import edgeteleport as et

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_runs():
    exec(compile(_python_block(), str(README), "exec"), {})


def test_readme_names_only_exported_names():
    named = set(re.findall(r"\bet\.(\w+)", _python_block()))
    assert named and named <= set(et.__all__), sorted(named - set(et.__all__))


def test_every_exported_name_resolves():
    assert len(et.__all__) == len(set(et.__all__)) <= 38
    for name in et.__all__:
        assert getattr(et, name) is not None
