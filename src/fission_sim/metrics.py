"""CSV metric emission plus a JSON run summary with a config fingerprint."""

from __future__ import annotations

import json
from pathlib import Path

from .crypto import sha3


class MetricsSink:
    """Writes rows in event order against a fixed column schema; closing emits
    a JSON summary echoing the config and a fingerprint of (config, seed)."""

    def __init__(self, csv_path: str | Path, columns: list[str]):
        self.csv_path = Path(csv_path)
        self.columns = list(columns)
        self.summary_path = self.csv_path.with_suffix(".summary.json")
        self.rows_written = 0
        self._fh = self.csv_path.open("w")
        self._fh.write(",".join(self.columns) + "\n")
        self._fh.flush()

    def write_row(self, **values) -> None:
        missing = [c for c in self.columns if c not in values]
        extra = [k for k in values if k not in self.columns]
        if missing or extra:
            raise ValueError(f"row does not match schema (missing={missing}, extra={extra})")
        self._fh.write(",".join(_format(values[c]) for c in self.columns) + "\n")
        self._fh.flush()
        self.rows_written += 1

    def close(self, config_echo: dict, extra_summary: dict | None = None) -> dict:
        self._fh.close()
        summary = {
            "config": config_echo,
            "fingerprint": run_fingerprint(config_echo),
            "rows": self.rows_written,
            "columns": self.columns,
        }
        if extra_summary:
            summary.update(extra_summary)
        self.summary_path.write_text(
            json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
        )
        return summary


def run_fingerprint(config_echo: dict) -> str:
    canonical = json.dumps(config_echo, sort_keys=True, separators=(",", ":"))
    return sha3(canonical.encode()).hex()[:16]


def _format(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)
