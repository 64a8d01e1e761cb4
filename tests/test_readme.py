"""The README's library example runs as written."""

from pathlib import Path

from conftest import expression_csv


def test_library_example_runs(tmp_path, expression_collection, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    for ds in expression_collection:
        (tmp_path / f"{ds.name}.csv").write_text(expression_csv(ds), encoding="utf-8")
    paths = sorted(tmp_path.glob("*.csv"))
    exec(compile(block, "README.md", "exec"), {"paths": paths})
    assert "NetworkReport(" in capsys.readouterr().out
