"""The demos and the README's quick start use public names only through
imports, and every line of README's command-line block parses, so a removed
or renamed name or option fails here and not in a reader's hands."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conceptspace import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = "README quick start"


def source_of(doc) -> str:
    if doc == QUICK_START:
        readme = (ROOT / "README.md").read_text()
        return re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    return doc.read_text()


def conceptspace_imports(source: str):
    """(module, name) of every conceptspace import in `source`; name is None
    for a plain `import`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "conceptspace":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "conceptspace")


def test_every_demo_is_checked():
    assert [d.name for d in DEMOS] == ["01_dataset.py", "02_training.py",
                                       "03_explanations.py", "04_missing_modality.py",
                                       "05_model_comparison.py"]


@pytest.mark.parametrize("doc", [*DEMOS, QUICK_START], ids=lambda d: getattr(d, "name", d))
def test_every_imported_name_resolves(doc):
    imports = list(conceptspace_imports(source_of(doc)))
    assert imports
    for module, name in imports:
        found = importlib.import_module(module)
        assert name is None or hasattr(found, name), f"{doc}: {module}.{name} is gone"


def test_dataset_demo_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / "01_dataset.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "generated 1000 paired samples" in run.stdout


def readme_commands():
    """The command lines of README's "Command line" block, each joined over
    its backslash continuations, without the leading `conceptspace`."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n.*?```\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def test_readme_command_lines_parse():
    """Every line of the block parses, and every command is shown."""
    parser, commands = cli.build_parser(), set()
    for argv in readme_commands():
        try:
            commands.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README line does not parse: conceptspace {shlex.join(argv)}")
    assert commands == {"generate", "train", "eval", "explain", "reproduce"}
