"""The README's library tour runs as written and prints what it says,
and its config runs as written."""

import ast
import contextlib
import io
import json
import re
import warnings
from pathlib import Path

from carpetq.cli import load_config, main

ROOT = Path(__file__).resolve().parents[1]

# A comment states a value when its text before any colon, after its
# last comma, is a literal such as ``True``, ``1/9`` or ``1701 7 8``.
_LITERAL = re.compile(r"True|False|[\d./ ]+")


def stated_value(comment: str):
    value = comment.split(":")[0].split(",")[-1].strip()
    return value if _LITERAL.fullmatch(value) else None


def test_readme_tour_prints_what_it_states():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    namespace: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
            call = getattr(stmt, "value", None)
            if not (isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "print"):
                continue
            _, _, comment = lines[stmt.end_lineno - 1].partition("#")
            value = stated_value(comment)
            if value is not None:
                assert out.getvalue().strip() == value, comment
                checked.append(value)
    assert checked == ["0.9127134976190282", "1/9", "1701 7 8", "1", "True",
                       "True", "1701 1458", "True", "True", "True", "0"]


def test_readme_config_runs_without_notes(tmp_path, capsys):
    # The README's config block loads as written, with no key that is
    # ignored, and validate and quantize run it (on a small cloud)
    # with exit 0 and no note.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    path = tmp_path / "carpet.json"
    path.write_text(block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = load_config(path)
    assert cfg.cloud_size == json.loads(block)["cloud_size"]
    path.write_text(json.dumps({**json.loads(block), "cloud_size": 2000}))
    for command in ("validate", "quantize"):
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "note:" not in captured.out
