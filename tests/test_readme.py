"""README's Python example runs as written, so it cannot name a deleted function."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})  # noqa: S102
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) > 0.0
    assert [line.split()[0] for line in lines[2:]] == ["vn", "tn"]
