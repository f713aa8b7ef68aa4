"""The README's quick-use example runs and prints what it promises."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_use_block_prints_documented_values(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "dropping 0.15355000000000002",
        "0.18181818181818182 0.9545454545454546",
    ]
