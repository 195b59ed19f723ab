"""README's examples run: the Python example names only the package's public
surface, and the report example is what its documented command writes."""

import json
import re
import shlex
from pathlib import Path

import edgeteleport as et
from edgeteleport.cli import main

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


def test_readme_report_example_is_the_documented_commands_report(tmp_path):
    shell = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)[1]
    command = re.search(r"^edgeteleport teleport .*$", shell.replace("\\\n", " "),
                        flags=re.M).group(0)
    argv = shlex.split(command)[1:]
    assert argv[-2:] == ["--out", "report.json"]
    out = tmp_path / "report.json"
    assert main([*argv[:-1], str(out)]) == 0
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)
    # key order counts too
    assert json.dumps(json.loads(block)) == json.dumps(json.loads(out.read_text()))
    text = out.read_text()  # what json.dumps writes: float reprs read back exactly
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
