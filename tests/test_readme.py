"""README's Python example runs as written, so it cannot name a deleted
function, and its module table names exactly the package's modules."""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})  # noqa: S102
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) > 0.0
    assert [line.split()[0] for line in lines[2:]] == ["vn", "tn"]


def test_module_table_names_every_module():
    table = README.read_text().split("## Library overview", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"^\| `levygof\.(\w+)` \|", table, re.M)
    modules = {p.stem for p in (ROOT / "src" / "levygof").glob("*.py")} - {"__init__"}
    assert sorted(listed) == sorted(modules)
