"""The dict-per-record ``write_log``, kept as a test oracle.

This is :func:`hwnas.search.write_log` as it was before step records were
formatted from one format string: every record is a dict written by
``json.dumps``. ``hwnas.search.write_log`` must write the same bytes for every
log whose floats are finite.
"""

from __future__ import annotations

import json
from pathlib import Path

from hwnas.search import SearchLog


def write_log(log: SearchLog, path: str | Path, meta: dict | None = None) -> None:
    """One meta record, one record per step, one final record."""
    record = vars(log)
    head = {"type": "meta", **{k: v for k, v in record.items()
                               if k != "steps" and not k.startswith("final_")}}
    if meta:
        head.update(meta)
    lines = [json.dumps(head)]
    for rec in log.steps:
        lines.append(json.dumps({"type": "step", **rec._asdict()}))
    final = {k.removeprefix("final_"): v for k, v in record.items() if k.startswith("final_")}
    lines.append(json.dumps({"type": "final", **final}))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
