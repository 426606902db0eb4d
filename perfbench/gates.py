"""Correctness gates: each returns ``None`` when it holds, else a message.

Gates take plain values extracted from a run, so the benchmark's tests can
hand them tampered outputs and check that they trip.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

__all__ = [
    "gate_artifact",
    "gate_journal",
    "gate_repeatable",
    "gate_session_floor",
    "gate_zero_inconsistency",
]


def gate_repeatable(label: str, digests: Sequence[str]) -> str | None:
    """Every execution of one input produced the same modelled outcome."""
    if len(set(digests)) > 1:
        return (
            f"{label}: modelled outcome differs between repeats at one seed "
            f"({len(set(digests))} distinct digests over {len(digests)} runs)"
        )
    return None


def gate_zero_inconsistency(edge: str, inconsistent: int) -> str | None:
    """A protocol registered with ``zero_inconsistency`` committed none."""
    if inconsistent != 0:
        return (
            f"edge {edge!r} runs a zero-inconsistency protocol but committed "
            f"{inconsistent} inconsistent read-only transaction(s)"
        )
    return None


def gate_session_floor(edge: str, served_below_floor: int) -> str | None:
    """A causal edge never served a version below its session floor."""
    if served_below_floor != 0:
        return (
            f"causal edge {edge!r} served {served_below_floor} read(s) below "
            "the session floor"
        )
    return None


def gate_artifact(artifact: str, reference: str) -> str | None:
    """A fleet-served artifact equals the serial run's, both normalized."""
    if artifact != reference:
        return (
            "fleet artifact differs from run_sweep(jobs=1) after "
            "normalization"
        )
    return None


def gate_journal(lines: Sequence[str], points: int) -> str | None:
    """The journal holds one header and exactly one line per point.

    A second line for any index means a point was executed and journaled
    twice.
    """
    kinds: list[str] = []
    indices: list[object] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            record: Mapping[str, object] = json.loads(line)
        except json.JSONDecodeError:
            return "journal holds a line that is not JSON"
        kinds.append(str(record.get("kind")))
        if record.get("kind") == "point":
            indices.append(record.get("index"))
    headers = kinds.count("sweep")
    if headers != 1 or kinds[:1] != ["sweep"]:
        return f"journal should open with one header line, found {headers}"
    if len(kinds) != 1 + points or sorted(indices) != list(range(points)):
        return (
            f"journal holds {len(indices)} point line(s) for a sweep of "
            f"{points} point(s)"
        )
    return None
