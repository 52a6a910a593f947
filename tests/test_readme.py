import re
import shlex
from pathlib import Path

from prism25d.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart_lines():
    """The README quickstart's bash block, with each `\\` continuation joined to its line."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Quickstart\n.*?```bash\n(.*?)```", text, re.S).group(1)
    return block.replace("\\\n", " ").splitlines()


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """Every line of the quickstart is the `worlds.json` heredoc, a `prism25d` command that exits
    0, or blank; so the README cannot name a command or flag that no longer exists."""
    monkeypatch.chdir(tmp_path)
    lines = iter(_quickstart_lines())
    commands = 0
    for line in lines:
        if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
            body = "".join(next_line + "\n" for next_line in iter(lines.__next__, "EOF"))
            Path(heredoc.group(1)).write_text(body, encoding="utf-8")
        elif line.startswith("prism25d "):
            assert main(shlex.split(line)[1:]) == 0, line
            commands += 1
        else:
            assert not line.strip(), f"quickstart line this test cannot run: {line!r}"
    assert commands
