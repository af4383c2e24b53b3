"""The bundled data files are ``tools/make_fixtures.py``'s output, byte for byte.

A change to a file under ``src/situnet/data/`` must come from the tool,
so the tool writes its tree to a temporary directory and every file is
compared with the bundled one.
"""

from pathlib import Path

from situnet import data_path

from test_digest import load_tool


def files_under(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())


def test_bundled_data_equals_tool_output(tmp_path, capsys):
    load_tool("make_fixtures").main(tmp_path)
    capsys.readouterr()
    bundled = Path(str(data_path()))
    assert files_under(tmp_path) == files_under(bundled)
    differing = [name for name in files_under(bundled)
                 if (tmp_path / name).read_bytes() != (bundled / name).read_bytes()]
    assert differing == []
