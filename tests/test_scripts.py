"""The experiment scripts import and run against the installed package."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_number_sweep_runs(capsys):
    assert load_script("split_number_sweep").main(["--counts", "1", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["N", "1", "3"]


def test_split_number_sweep_with_runs(capsys):
    script = load_script("split_number_sweep")
    assert script.main(["--counts", "1", "3", "--with-runs"]) == 0
    rows = [line.split(":")[0].strip()
            for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("N=")]
    assert rows == ["N= 1", "N= 3"]


def test_fitted_split_table_matches_fresh_fit(capsys):
    # re-fits all 19 libraries (a few seconds): the shipped table must be
    # what the fit gives, within 1e-9 relative
    status = load_script("fit_split_libraries").main(["--check"])
    assert status == 0, capsys.readouterr().out


def test_output_digests_list_every_csv(capsys, monkeypatch):
    # desk scenario 3 only: three run directories of moments and five
    # snapshots' joint and two marginals, and compare's moments and errors
    script = load_script("output_digests")
    monkeypatch.setattr(script, "SCENARIOS", (3,))
    assert script.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests, paths = zip(*(line.split("  ") for line in lines))
    assert len(set(paths)) == len(paths) == 3 * (1 + 3 * 5) + 2
    assert list(paths) == sorted(paths) and all(p.endswith(".csv") for p in paths)
    assert all(len(d) == 64 for d in digests)
