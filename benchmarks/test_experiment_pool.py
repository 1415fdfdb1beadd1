"""Every experiment through the process pool (``repro experiment --all
--workers 2``).

Each table that has a committed copy under ``benchmarks/results/`` must
equal it byte for byte.  E14 has none: its cache-hit and intern-hit
columns depend on broker thread scheduling (docs/MQO.md), so it is
checked against a serial run on every other column.
"""

import pathlib
import re

from repro.bench.experiments import e14_mqo_overlap
from repro.cli import main
from repro.parallel import shutdown_pools

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
THREAD_DEPENDENT = ("cache hits", "intern hits")


def _tables(text: str) -> dict[str, str]:
    """Printed tables keyed by experiment id, in the committed format."""
    tables = {}
    for block in text.split("\n\n"):
        if block.strip():
            ident = re.match(r"\[([^\]]+)\]", block).group(1)
            tables[ident] = block.strip("\n") + "\n"
    return tables


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.split("|")]


def test_experiment_pool(capsys):
    try:
        assert main(["experiment", "--all", "--workers", "2"]) == 0
    finally:
        shutdown_pools()
    captured = capsys.readouterr()
    assert captured.err == ""  # the pool ran; no serial fallback
    tables = _tables(captured.out)

    committed = {
        path.stem: path.read_text() for path in RESULTS_DIR.glob("*.txt")
    }
    assert set(tables) == set(committed) | {"E14"}
    for ident, text in committed.items():
        assert tables[ident] == text, ident

    serial = e14_mqo_overlap()
    lines = tables["E14"].splitlines()
    headers, rows = _cells(lines[2]), [_cells(line) for line in lines[4:]]
    assert headers == serial.headers
    keep = [i for i, h in enumerate(headers) if h not in THREAD_DEPENDENT]
    assert [[row[i] for i in keep] for row in rows] == [
        [str(row[i]) for i in keep] for row in serial.rows
    ]
