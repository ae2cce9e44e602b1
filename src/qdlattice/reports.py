"""Structured experiment reports with reproducible serialization.

Reports serialize to canonical JSON: keys sorted, floats rounded to 12
significant digits before encoding, no volatile fields (wall time is
printed, never written), so identical configuration and seed give byte
identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    experiment: str
    group: str = "z2"
    lattice: str = ""
    tol: float = 1e-9
    seed: int = 0
    out: Optional[str] = None

    def __post_init__(self):
        # the constraints report_schema.json states for the config block
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ValueError(f"tolerance must be a number, got {self.tol!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for name in ("experiment", "group", "lattice", "out"):
            value = getattr(self, name)
            if not isinstance(value, str) and not (name == "out" and value is None):
                raise ValueError(f"{name} must be a string, got {value!r}")


@dataclass
class Check:
    name: str
    law: str  # the verified law, or "plumbing"
    status: str  # "pass" | "fail"
    max_error: float
    details: str = ""

    @staticmethod
    def judged(name: str, law: str, passed: bool, max_error: float, details: str = "") -> "Check":
        return Check(name, law, "pass" if passed else "fail", float(max_error), details)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    experiment: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    tables: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def add(self, name: str, law: str, passed: bool, max_error: float, details: str = ""):
        self.checks.append(Check.judged(name, law, passed, max_error, details))

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        config = {k: v for k, v in self.config.items() if k != "out"}
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": config,
            "checks": [asdict(c) for c in self.checks],
            "tables": self.tables,
            "passed": self.all_passed,
        }


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return {"re": float(f"{obj.real:.12g}"), "im": float(f"{obj.imag:.12g}")}
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def report_json(report: Report, rounded: Optional[dict] = None) -> str:
    """The canonical JSON of `report`, from its rounded ``to_dict()`` when given."""
    return json.dumps(rounded or _round_floats(report.to_dict()), sort_keys=True, indent=1) + "\n"


def write_report(report: Report, path: str) -> None:
    """The row tables as CSV files next to `path`, then the JSON report at
    `path`, from one rounding: a write that fails removes every file this
    call wrote, so it leaves no report and no table."""
    base, _ = os.path.splitext(path)
    rounded = _round_floats(report.to_dict())
    written = []
    try:
        for name, table in rounded["tables"].items():
            if isinstance(table, dict) and "rows" in table and "columns" in table:
                with open(f"{base}.{name}.csv", "w") as fh:
                    written.append(fh.name)
                    fh.write(",".join(str(c) for c in table["columns"]) + "\n")
                    for row in table["rows"]:
                        fh.write(",".join(str(v) for v in row) + "\n")
        with open(path, "w") as fh:
            written.append(path)
            fh.write(report_json(report, rounded))
    except OSError:
        for name in written:
            os.remove(name)
        raise
