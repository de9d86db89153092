import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", SCRIPT)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def write_report(directory: Path, payload: dict) -> None:
    directory.mkdir(exist_ok=True)
    (directory / "bench.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def records(**extra) -> dict:
    """A bench-shaped report of four records with one method each."""
    entries = ({"temperature": 1.5 + seed, **extra} for seed in range(4))
    return {"records": [{"seed": seed, "methods": {"temp": entry}} for seed, entry in enumerate(entries)]}


@pytest.fixture
def dirs(tmp_path):
    return tmp_path / "a", tmp_path / "b"


def compare(dirs, capsys) -> tuple[int, list[str]]:
    code = compare_reports.main([str(d) for d in dirs])
    return code, capsys.readouterr().out.splitlines()


def test_identical_directories_exit_zero_and_print_nothing(dirs, capsys):
    for d in dirs:
        write_report(d, records())
    assert compare(dirs, capsys) == (0, [])


def test_a_moved_number_prints_its_max_relative_difference(dirs, capsys):
    a, b = records(), records()
    b["records"][1]["methods"]["temp"]["temperature"] = 2.5 * 1.01
    b["records"][3]["methods"]["temp"]["temperature"] = 4.5 * 1.1
    write_report(dirs[0], a)
    write_report(dirs[1], b)
    code, lines = compare(dirs, capsys)
    assert code == 1
    assert lines == [
        "bench.json:",
        f"  records[*].methods.temp.temperature: max rel {0.45 / 4.95:.3g} (2 of 4 moved)",
    ]


def test_a_field_on_one_side_prints_once_folded_with_its_count(dirs, capsys):
    write_report(dirs[0], records())
    write_report(dirs[1], records(degenerate=False, flags=["constant_variate"]))
    code, lines = compare(dirs, capsys)
    assert code == 1
    assert lines == [
        "bench.json:",
        "  records[*].methods.temp.degenerate: only in B (4 entries)",
        "  records[*].methods.temp.flags[*]: only in B (4 entries)",
    ]


def test_a_changed_flag_prints_once_per_change_with_its_count(dirs, capsys):
    write_report(dirs[0], records(mode="cv_serial"))
    changed = records(mode="cv_serial")
    for record in changed["records"][:3]:
        record["methods"]["temp"]["mode"] = "plain_iwece"
    write_report(dirs[1], changed)
    code, lines = compare(dirs, capsys)
    assert code == 1
    assert lines == ["bench.json:", "  records[*].methods.temp.mode: 'cv_serial' -> 'plain_iwece' (3 entries)"]
