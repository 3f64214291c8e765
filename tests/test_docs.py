"""The README stays in step with the package."""
import re
from pathlib import Path

from bjda import gradcheck
from bjda.cli import emit_config
from bjda.train import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "bjda").glob("*.py")
               if p.name != "__init__.py"}
    assert listed == modules


def test_readme_gradcheck_count_matches_the_audit():
    readme = (ROOT / "README.md").read_text()
    counts = re.findall(r"all (\d+) tape gradients", readme)
    assert counts == [str(len(gradcheck.build_cases()))]


def test_readme_config_table_lists_exactly_the_emitted_keys_and_defaults():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for keys, default in re.findall(r"^\| (`[^|]+`) \| `([^`]*)` \|", table,
                                    flags=re.MULTILINE):
        for key in re.findall(r"`(\w+)`", keys):   # one row may name two keys
            documented[key] = default
    emitted = dict(line.split(" = ", 1) for line in emit_config(TrainConfig()).splitlines())
    assert documented == emitted
