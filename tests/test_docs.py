"""The README stays in step with the package."""
import importlib
import inspect
import json
import re
from dataclasses import fields
from pathlib import Path

from bjda import autodiff as ad
from bjda import gradcheck
from bjda.cli import emit_config, main
from bjda.data import SynthSpec, gen_rotated_blobs, save_csv
from bjda.train import IterationRecord, TrainConfig, train

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


def test_readme_supported_ops_are_exactly_the_autodiff_ops_with_an_adjoint():
    readme = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.search(r"Supported ops are (.*?)\. ", readme).group(1)
    held = {name for name, f in vars(ad).items()
            if inspect.isfunction(f) and f.__module__ == ad.__name__
            and any(getattr(c, "co_name", None) == "backward" for c in f.__code__.co_consts)}
    assert set(re.findall(r"`(\w+)`", sentence)) == held


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


def test_readme_names_exactly_the_summary_keys_bjda_train_writes(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    bullets = readme.split("`summary.json`, one\nJSON object with these keys:", 1)[1]
    bullets = bullets.split("\n\n", 2)[1]
    documented = [key for line in re.findall(r"^- (.*?):", bullets, flags=re.MULTILINE)
                  for key in re.findall(r"`(\w+)`", line)]
    paths = [tmp_path / name for name in ("source.csv", "target.csv")]
    for dataset, path in zip(gen_rotated_blobs(SynthSpec(classes=2, dim=3, per_class=8)), paths):
        save_csv(dataset, path)
    assert main(["train", "--source", str(paths[0]), "--target", str(paths[1]),
                 "--out", str(tmp_path / "run"), "--set", "t_max=2", "--set", "hidden_dim=4",
                 "--set", "feat_dim=2", "--set", "batch_source=4",
                 "--set", "batch_target=4"]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert len(documented) == len(set(documented))
    assert set(documented) == set(written)


# README names files (`model.bin`) and other libraries (`os.fork`) the same way
FILE_SUFFIXES = {"bin", "csv", "json", "jsonl", "md", "py", "toml"}
OTHER_ROOTS = {"np", "os"}


def test_readme_names_only_package_attributes_that_exist():
    readme = (ROOT / "README.md").read_text()
    refs = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", readme))
    checked, missing = 0, []
    for ref in sorted(refs):
        parts = ref.split(".")
        if parts[0] in OTHER_ROOTS or (len(parts) == 2 and parts[1] in FILE_SUFFIXES):
            continue
        path = parts[1:] if parts[0] == "bjda" else parts
        try:
            obj = importlib.import_module(f"bjda.{path[0]}")
            for name in path[1:]:
                obj = getattr(obj, name)
        except (ImportError, AttributeError):
            missing.append(ref)
        checked += 1
    assert checked >= 10 and missing == []


def test_readme_metrics_jsonl_keys_are_the_record_fields_in_order():
    readme = " ".join((ROOT / "README.md").read_text().split())
    listed = re.search(r"\*\*`metrics\.jsonl`\*\*: per iteration `\{(.*?)\}`", readme).group(1)
    documented = re.findall(r'"(\w+)"', listed)
    source, target = gen_rotated_blobs(SynthSpec(classes=2, dim=3, per_class=8))
    _, metrics = train(source, target, TrainConfig(t_max=1, hidden_dim=4, feat_dim=2,
                                                   batch_source=4, batch_target=4))
    line = metrics.to_jsonl().splitlines()[0]
    assert documented == [f.name for f in fields(IterationRecord)] == list(json.loads(line))
