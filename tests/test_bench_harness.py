"""The experiment system: harness units, the CLI, and the replay of every record.

A full-size ``python -m repro.bench <id>`` leaves one record,
``benchmarks/records/<id>.json``.  The replay test reruns every
experiment's quick form and requires its deterministic numbers to
equal the record's exactly and every claim to hold: the quick run's,
the recorded quick run's and the recorded full run's.  The full forms
that take a second or two are replayed the same way, so a record
cannot drift from its code unseen.
"""

import inspect
import json
from pathlib import Path

import pytest

from repro.bench import REGISTRY, harness
from repro.bench.__main__ import main
from repro.bench.harness import ExperimentRegistry, ExperimentResult, Table, format_rate

RECORDS = Path(__file__).resolve().parents[1] / "benchmarks" / "records"
EXPERIMENTS = sorted(REGISTRY.available(), key=lambda key: int(key[1:]))


def check_schema(record: dict, experiment_id: str, directory: Path) -> None:
    """One schema for every record, as ``python -m repro.bench`` writes it."""
    assert set(record) == {"experiment_id", "description", "full", "quick"}
    assert record["experiment_id"] == experiment_id.upper()
    full, quick = record["full"], record["quick"]
    assert set(full) == {"numbers", "wall", "claims", "figures", "notes", "tables"}
    assert set(quick) == {"numbers", "claims"}
    for form in (full, quick):
        assert form["claims"], "every experiment states at least one claim"
        assert all(isinstance(v, bool) for v in form["claims"].values())
        assert all(isinstance(v, float) for v in form["numbers"].values())
    assert all(isinstance(v, float) for v in full["wall"].values())
    assert not set(full["numbers"]) & set(full["wall"])
    assert set(full["claims"]) == set(quick["claims"])
    for table in full["tables"]:
        assert all(len(row) == len(table["headers"]) for row in table["rows"])
    for name in full["figures"]:
        assert (directory / name).read_text().startswith("<svg")


def replay(experiment_id: str, directory: Path, form: str = "quick") -> None:
    """Rerun one form (``"quick"`` or ``"full"``) against ``directory``'s
    record of it."""
    record = json.loads((directory / f"{experiment_id}.json").read_text())
    check_schema(record, experiment_id, directory)
    result = REGISTRY.run(experiment_id, quick=form == "quick")
    recorded = record[form]["numbers"]
    changed = {
        key: (recorded.get(key), result.numbers.get(key))
        for key in set(recorded) | set(result.numbers)
        if recorded.get(key) != result.numbers.get(key)
    }
    assert not changed, f"{form} numbers differ from the record (recorded, now): {changed}"
    assert set(result.claims) == set(record[form]["claims"])
    false = {
        f"{form} run": result.failed_claims(),
        "recorded quick run": [k for k, v in record["quick"]["claims"].items() if not v],
        "recorded full run": [k for k, v in record["full"]["claims"].items() if not v],
    }
    assert not any(false.values()), f"false claims: {false}"


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_quick_form_replays_its_record(experiment_id, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    replay(experiment_id, RECORDS)
    assert not any(tmp_path.iterdir()), "an experiment wrote into the working directory"


#: Experiments whose full form runs in under 2 s (timed in the docstring below).
CHEAP_FULL_FORMS = ["e3", "e5", "e8", "e10", "e12", "e14", "e15", "e16", "e17"]


@pytest.mark.parametrize("experiment_id", CHEAP_FULL_FORMS)
def test_cheap_full_form_replays_its_record(experiment_id, tmp_path, monkeypatch):
    """The full forms that run in under 2 s replay their records exactly.

    Full-form wall time, the slowest of up to three runs on an idle
    2-CPU host: E3 0.07 s, E5 0.32 s, E8 1.07 s, E10 1.50 s, E12
    0.46 s, E14 0.64 s, E15 0.31 s, E16 0.41 s, E17 0.26 s.  Left out,
    as slower: E13 2.1 s, E11 2.9 s, E9 3.8 s, E4 4.6 s, E6 14 s, E7
    26 s, E18 32 s, E2 49 s, E1 60 s.
    """
    monkeypatch.chdir(tmp_path)
    replay(experiment_id, RECORDS, form="full")
    assert not any(tmp_path.iterdir()), "an experiment wrote into the working directory"


def test_replay_fails_when_one_quick_number_differs(tmp_path):
    record = json.loads((RECORDS / "e3.json").read_text())
    record["quick"]["numbers"]["empirical_10"] += 1e-12
    (tmp_path / "e3.json").write_text(json.dumps(record))
    with pytest.raises(AssertionError, match="empirical_10"):
        replay("e3", tmp_path)


class TestTable:
    def test_render_alignment(self):
        table = Table("Demo", ["col", "value"])
        table.add_row("a", 1)
        table.add_row("longer-name", 22)
        out = table.render()
        assert "Demo" in out
        lines = out.splitlines()
        assert len({len(line) for line in lines[2:]}) <= 2  # header+rows aligned

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_accessor(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == ["2", "4"]
        with pytest.raises(KeyError):
            table.column("c")

    def test_needs_columns(self):
        with pytest.raises(ValueError):
            Table("T", [])


class TestFormatRate:
    def test_scales(self):
        assert format_rate(500) == "500/s"
        assert format_rate(399_000) == "399.0k/s"
        assert format_rate(1_250_000) == "1.25M/s"


def _result(claims, **kwargs) -> ExperimentResult:
    return ExperimentResult("T1", "demo", [Table("t", ["x"])], {"n": 1.0}, claims, **kwargs)


class TestRegistry:
    def test_register_and_run(self):
        reg = ExperimentRegistry()

        @reg.register("T1", "demo")
        def t1(quick=False):
            return _result({"holds": True})

        result = reg.run("t1")
        assert result.experiment_id == "T1"
        assert "T1" in result.render()

    def test_duplicate_rejected(self):
        reg = ExperimentRegistry()
        reg.register("a", "x")(lambda **kw: None)
        with pytest.raises(ValueError):
            reg.register("A", "y")(lambda **kw: None)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            ExperimentRegistry().run("nope")

    def test_available(self):
        reg = ExperimentRegistry()
        reg.register("e", "desc")(lambda **kw: None)
        assert reg.available() == {"e": "desc"}


class TestBuiltinRegistry:
    def test_all_experiments_registered(self):
        assert EXPERIMENTS == [f"e{i}" for i in range(1, 19)]
        for key in EXPERIMENTS:
            params = inspect.signature(REGISTRY._experiments[key]).parameters
            assert list(params) == ["quick"], key


class TestFastExperiments:
    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E9" in out and "E11" in out and "E18" in out

    def test_cli_unknown_experiment(self, capsys):
        assert main(["e99"]) == 2

    def test_cli_runs_quick_e3(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RECORDS_DIR", tmp_path / "records")
        assert main(["e3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "false alarm" in out.lower()
        assert not (tmp_path / "records").exists(), "a quick run writes no record"

    def test_cli_exits_1_on_a_false_claim(self, capsys, tmp_path, monkeypatch):
        failing = _result({"holds": True, "breaks": False}, figures={"f.svg": "<svg/>"})
        monkeypatch.setattr(REGISTRY, "run", lambda experiment_id, quick=False: failing)
        monkeypatch.setattr(harness, "RECORDS_DIR", tmp_path)
        assert main(["e3"]) == 1
        assert "breaks" in capsys.readouterr().err
        record = json.loads((tmp_path / "t1.json").read_text())
        assert record["full"]["claims"] == {"holds": True, "breaks": False}
        assert (tmp_path / "f.svg").read_text() == "<svg/>"

    def test_full_run_writes_a_record_the_replay_accepts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "RECORDS_DIR", tmp_path)
        assert main(["e3"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["e3.json"]
        replay("e3", tmp_path)
