import re
from pathlib import Path

import fedbilevel
from fedbilevel.config import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_once():
    names = fedbilevel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedbilevel, n)] == []


def test_exports_are_the_names_library_use_documents():
    # "Library use" is the package's one list of supported names: each
    # exported name appears in its code (a python block or an inline span),
    # and each fb.<name> it uses is exported.
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    block = re.compile(r"^```python\n(.*?)^```$", flags=re.DOTALL | re.MULTILINE)
    code = block.findall(section) + re.findall(r"`([^`]+)`", block.sub("", section))
    named = set(re.findall(r"\w+", " ".join(code)))
    assert [n for n in fedbilevel.__all__ if n not in named] == []
    assert sorted(set(re.findall(r"\bfb\.(\w+)", section)) - set(fedbilevel.__all__)) == []


def test_readme_python_blocks_run():
    # The README's library examples build on each other, so they run in
    # order in one namespace.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_configuration_table_names_every_key():
    text = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    table = text.split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    named = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(named) == sorted(ExperimentConfig().echo_dict())
