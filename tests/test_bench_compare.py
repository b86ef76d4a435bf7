"""``benchmarks/compare.py``: before/after/ratio over two history records."""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )


def _history(tmp_path) -> pathlib.Path:
    records = [
        {
            "benchmark": "decomp",
            "git_sha": "aaaa1111",
            "generated_at": 1.0,
            "smoke": False,
            "federal": {"elapsed_seconds": 4.0, "gap": 0.01},
            "decomposition": [{"label": "synthetic-11k", "elapsed_seconds": 2.0}],
        },
        {
            "benchmark": "decomp",
            "git_sha": "bbbb2222",
            "generated_at": 2.0,
            "smoke": False,
            "federal": {"elapsed_seconds": 1.0, "gap": 0.01},
            "decomposition": [{"label": "synthetic-11k", "elapsed_seconds": 0.5}],
        },
    ]
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _rows(stdout: str) -> dict[str, list[str]]:
    return {line.split()[0]: line.split()[1:] for line in stdout.splitlines()[2:]}


def test_default_compares_the_last_two_records(tmp_path):
    result = _run("decomp", "--history", str(_history(tmp_path)))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].startswith("decomp: aaaa1111")
    rows = _rows(result.stdout)
    assert rows["federal.elapsed_seconds"] == ["4", "1", "0.25"]
    assert rows["federal.gap"] == ["0.01", "0.01", "1"]
    assert rows["decomposition[synthetic-11k].elapsed_seconds"] == ["2", "0.5", "0.25"]
    assert "smoke" not in rows  # booleans are not numeric leaves


def test_records_pick_by_sha_prefix_or_position(tmp_path):
    history = str(_history(tmp_path))
    by_sha = _run("decomp", "bbbb", "aaaa", "--history", history)
    assert by_sha.returncode == 0, by_sha.stderr
    assert _rows(by_sha.stdout)["federal.elapsed_seconds"] == ["1", "4", "4"]
    by_position = _run("decomp", "1", "0", "--history", history)
    assert by_position.stdout == by_sha.stdout


def test_unknown_benchmark_reports_and_exits_nonzero(tmp_path):
    result = _run("dual", "--history", str(_history(tmp_path)))
    assert result.returncode == 1
    assert "need two" in result.stderr
