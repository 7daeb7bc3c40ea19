"""The demo scripts must keep running as the library evolves."""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
SCRIPTS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # narrative output, not a silent no-op


def test_shipped_configs_parse():
    from freqlab.config import parse_problem_spec, parse_run_config

    for path in sorted((DEMO_DIR / "configs").glob("*.ini")):
        spec = parse_problem_spec(path)
        assert spec.outer_radius > 0
        parse_run_config(path).validate()
