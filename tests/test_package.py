import re
from pathlib import Path

import fedbilevel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve_once():
    names = fedbilevel.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(fedbilevel, n)] == []


def test_readme_python_blocks_run():
    # The README's library examples build on each other, so they run in
    # order in one namespace.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 4
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
