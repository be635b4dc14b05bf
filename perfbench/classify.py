"""Failure classifier shared by the three workloads.

Every operation ends either as a success or as exactly one failure of one
kind.  The first kind that applies wins, in the order of ``KINDS``.  Kinds
where the program reported the problem itself (an exception, a refusal,
``converged=False``, an exit code, a traceback) are *loud*.  A wrong value
or a wrong finiteness verdict returned as if correct is *silent*, and makes
the run's ``correct`` flag false.  A divergence witness that is missing or
samples no index is counted as a failure but is not silent: the value and
verdict it accompanies are right.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["KINDS", "SILENT", "Failure", "Failures", "from_exception", "from_process"]

KINDS = (
    "exception",  # any exception other than a documented refusal, by type
    "refusal",  # documented refusal: ValueError
    "unconverged",  # converged=False
    "exit_code",  # non-zero or unexpected exit code of a CLI call
    "traceback",  # a traceback on stderr of a CLI call
    "witness",  # infinite value whose divergence witness is missing or certifies nothing
    "verdict",  # wrong finiteness verdict
    "mismatch",  # value differs from the reference
)
SILENT = frozenset({"verdict", "mismatch"})


@dataclass(frozen=True)
class Failure:
    kind: str
    detail: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown failure kind {self.kind!r}")


def from_exception(exc: BaseException) -> Failure:
    """Classify an exception raised by a library call."""
    kind = "refusal" if isinstance(exc, ValueError) else "exception"
    return Failure(kind, f"{type(exc).__name__}: {exc}")


def from_process(expected_code: int, code: int, stderr: str) -> Optional[Failure]:
    """Classify how a CLI call ended, before its output is checked."""
    if "Traceback (most recent call last)" in stderr:
        tail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        return Failure("traceback", f"exit {code}: {tail}")
    if code != expected_code:
        return Failure("exit_code", f"exit {code}, expected {expected_code}")
    return None


@dataclass
class Failures:
    """Counts by kind plus the inputs of every failed operation."""

    workload: str
    attempted: int = 0
    counts: Counter = field(default_factory=Counter)
    by_type: Counter = field(default_factory=Counter)
    records: List[dict] = field(default_factory=list)

    def add(self, failure: Optional[Failure], inputs: dict) -> None:
        """Count one attempted operation, failed when ``failure`` is given."""
        self.attempted += 1
        if failure is None:
            return
        self.counts[failure.kind] += 1
        if failure.kind == "exception":
            self.by_type[failure.detail.split(":", 1)[0]] += 1
        self.records.append({"kind": failure.kind, "detail": failure.detail, "inputs": inputs})

    @property
    def failed(self) -> int:
        return sum(self.counts.values())

    @property
    def silent(self) -> int:
        return sum(self.counts[k] for k in SILENT)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "by_kind": {k: self.counts[k] for k in KINDS},
            "exceptions_by_type": dict(self.by_type),
        }

    def write(self, stream=None) -> None:
        """One JSON line per failed operation, so every failure can be replayed."""
        stream = stream or sys.stderr
        for rec in self.records:
            stream.write("failed " + json.dumps({"workload": self.workload, **rec}) + "\n")
