"""Every exported metric family is documented on its own row.

The metric tables of ``docs/observability.md`` and ``docs/monitoring.md``
give each family one row with its kind.  ``/metrics`` is rendered after
incremental monitor cycles with a history store and after a cycle under
the ``fs-error`` fault plan; between them the two export every family,
and their ``# TYPE`` lines must name exactly the documented families
and kinds.
"""

import re
from pathlib import Path

from repro.chaos.fabric import disarm
from repro.cli import main

DOCS = Path(__file__).resolve().parent.parent / "docs"
_ROW = re.compile(r"^\| `(repro_[a-z_]+)(?:\{[a-z_,]+\})?` \| (\w+) \|",
                  re.MULTILINE)
_TYPE = re.compile(r"^# TYPE (\S+) (\S+)$", re.MULTILINE)


def _documented() -> dict[str, str]:
    found: dict[str, str] = {}
    for name in ("observability.md", "monitoring.md"):
        for metric, kind in _ROW.findall((DOCS / name).read_text()):
            assert metric not in found, f"{metric} has two rows"
            found[metric] = kind
    return found


def _exported(workdir: Path, *args: str) -> dict[str, str]:
    workdir.mkdir()
    out = workdir / "metrics.prom"
    try:
        main(["monitor", "--scenario", "fleet", "--size", "2",
              "--interval", "0", "--history-db", str(workdir / "h.sqlite"),
              "--metrics-out", str(out), *args])
    finally:
        disarm()
    return dict(_TYPE.findall(out.read_text()))


def test_exported_families_are_the_documented_ones(tmp_path, capsys):
    incremental = _exported(tmp_path / "incremental", "--incremental",
                            "--max-cycles", "2")
    degraded = _exported(tmp_path / "degraded", "--chaos-plan", "fs-error",
                         "--max-cycles", "1")
    assert "repro_history_db_bytes" in incremental
    assert "repro_degraded_cycles_total" in degraded
    assert {**incremental, **degraded} == _documented()
