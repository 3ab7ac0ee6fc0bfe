"""The README's code stays runnable: its Library block runs as written, every
config example of its Command line section passes the schema, and the backend
defaults it spells out are the schema's."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from phi4vqe.cli import CONFIG_SCHEMAS, check_config

ROOT = Path(__file__).resolve().parents[1]


def section(title: str) -> str:
    return (ROOT / "README.md").read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_examples():
    """(command, config) for every ```json block of the README's Command line section."""
    examples = []
    for part in section("Command line").split("\n### ")[1:]:
        command = part.split("\n", 1)[0].strip()
        examples += [(command, json.loads(block))
                     for block in re.findall(r"```json\n(.*?)```", part, re.S)]
    return examples


def test_readme_library_example_runs(tmp_path):
    (code,) = re.findall(r"```python\n(.*?)```", section("Library"), re.S)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert done.returncode == 0, done.stderr
    # one line per print call of the block
    assert len(done.stdout.splitlines()) == code.count("print(")


def test_readme_config_examples_pass_the_schema():
    examples = readme_examples()
    assert {command for command, _ in examples} == set(CONFIG_SCHEMAS)
    for command, cfg in examples:
        assert check_config(command, cfg)[1] == [], command


def test_readme_spelled_out_backend_defaults_are_the_defaults():
    # the config after "Defaults:" runs the same as one whose backend is only its kind
    block = section("Command line").split("\n### vqe\n", 1)[1].split("\nDefaults:", 1)[1]
    cfg = json.loads(re.findall(r"```json\n(.*?)```", block, re.S)[0])
    bare = dict(cfg, backend={"kind": cfg["backend"]["kind"]})
    assert check_config("vqe", cfg)[0]["backend"] == check_config("vqe", bare)[0]["backend"]
