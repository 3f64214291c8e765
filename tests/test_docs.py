"""The README stays in step with the package."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "bjda").glob("*.py")
               if p.name != "__init__.py"}
    assert listed == modules
