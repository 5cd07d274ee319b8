"""Correctness checks of workload outputs.

Every JSONL record a workload prints is compared with the reference recorded
for its seed (at 1 worker) when there is one, and always with invariants
that hold for any seed. Floats compare with a relative tolerance, because an
exact rewrite of a kernel may move the last digits; integers, booleans and
strings compare exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-15


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def parse_lines(text: str) -> list[dict | None]:
    """One parsed record per nonblank line; None marks an unparsable line."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            rec = None
        out.append(rec if isinstance(rec, dict) else None)
    return out


def compare(ref, got, where: str) -> list[str]:
    """Differences between a reference value and an output value."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or isinstance(ref, str):
        return [] if type(ref) is type(got) and ref == got else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, int):
        return [] if type(got) is int and got == ref else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, float):
        if isinstance(got, float) and math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: shape differs from the reference"]
        return [p for i, (r, g) in enumerate(zip(ref, got)) for p in compare(r, g, f"{where}[{i}]")]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: fields {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(ref)}"]
        return [p for k in ref for p in compare(ref[k], got[k], f"{where}.{k}")]
    raise TypeError(f"unexpected reference value at {where}: {ref!r}")


def _close(a, b) -> bool:
    return isinstance(a, float) and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _battery_invariants(rec: dict, shape: dict, seed: int, b: int) -> list[str]:
    p, lo, hi, v = rec["p_value"], rec["lower"], rec["upper"], rec["value"]
    floor = 2.0 / (b + 1)
    bad = []
    if rec["replicates"] != b or rec["seed"] != seed:
        bad.append("replicates or seed differ from the command line")
    if not _close(v, shape["value"]):
        bad.append(f"fixture statistic {v!r} != {shape['value']!r}")
    if not floor * (1 - 1e-12) <= p <= 1.0:
        bad.append(f"p_value {p!r} outside [2/(B+1), 1]")
    if not lo <= hi:
        bad.append("lower > upper")
    if type(rec["reject"]) is not bool or rec["reject"] != (v < lo or v > hi):
        bad.append("reject disagrees with the thresholds")
    if rec["p_bound"] != (f"<{floor:.2g}" if p <= floor else None):
        bad.append(f"p_bound {rec['p_bound']!r} disagrees with p_value")
    return bad


def _power_invariants(rec: dict, shape: dict, seed: int, b: int) -> list[str]:
    power, failed = rec["power"], rec["failed_replicates"]
    bad = []
    if not (isinstance(power, float) and 0.0 <= power <= 1.0):
        bad.append(f"power {power!r} outside [0, 1]")
    elif abs(power * b - round(power * b)) > 1e-6:
        bad.append(f"power {power!r} is not a count over {b} replicates")
    elif not _close(rec["std_error"], math.sqrt(power * (1.0 - power) / b)):
        bad.append("std_error disagrees with power")
    if not (type(failed) is int and 0 <= failed <= b and failed <= round(power * b)):
        # A failed replicate counts as a rejection, so it is part of the power.
        bad.append(f"failed_replicates {failed!r} inconsistent with power")
    return bad


def _diagnose_invariants(rec: dict, shape: dict, seed: int, b: int) -> list[str]:
    counts, edges = rec["counts"], rec["bin_edges"]
    bad = []
    if rec["replicates"] != b or rec["seed"] != seed:
        bad.append("replicates or seed differ from the command line")
    if not (len(counts) == 50 and all(type(c) is int and c >= 0 for c in counts)
            and sum(counts) == b):
        bad.append("histogram counts do not sum to the replicates")
    if not (len(edges) == 51 and all(x < y for x, y in zip(edges, edges[1:]))):
        bad.append("bin edges are not 51 increasing values")
    elif not edges[0] <= rec["fitted_mean"] <= edges[-1]:
        bad.append("fitted mean outside the histogram range")
    if not rec["fitted_std"] > 0.0 or not 0.0 <= rec["ks_distance"] <= 1.0:
        bad.append("fitted_std or ks_distance out of range")
    return bad


# Fields that do not depend on the seed; they must match the reference of
# any recorded seed.
_SHAPE_FIELDS = {
    "battery": ("stat", "level"),
    "power-grid": ("stat", "alt", "n", "level"),
    "kernel-n250": ("stat", "n"),
}
_INVARIANTS = {
    "battery": _battery_invariants,
    "power-grid": _power_invariants,
    "kernel-n250": _diagnose_invariants,
}


def check_workload(name: str, seed: int, outputs: list[tuple[int, str]],
                   reference: dict) -> Verdict:
    """Check one execution of every command of a workload.

    `outputs` holds (exit status, stdout) per command. Each expected record
    counts as one attempted output; a nonzero exit, a missing or unparsable
    record, or a record that fails a check counts as a failed one.
    """
    wl = WORKLOADS[name]
    seeds = reference.get("seeds", {})
    if not seeds:
        raise RuntimeError(f"no reference recorded for workload {name}")
    shape = next(iter(seeds.values()))  # seed-independent fields
    exact = seeds.get(str(seed))
    v = Verdict()
    for i, ((status, text), expected) in enumerate(zip(outputs, wl.records_per_command)):
        records = parse_lines(text)
        v.attempted += max(expected, len(records))
        if status != 0:
            v.failed += max(expected, len(records))
            v.problems.append(f"{name} command {i} exited with {status}")
            continue
        if len(records) != expected:
            v.failed += abs(len(records) - expected)
            v.problems.append(f"{name} command {i}: {len(records)} records, expected {expected}")
        for k, rec in enumerate(records[:expected]):
            where = f"{name}[{i}][{k}]"
            if rec is None:
                bad = ["unparsable record"]
            else:
                ref_rec = shape[i][k]
                bad = compare({f: ref_rec[f] for f in _SHAPE_FIELDS[name]},
                              {f: rec.get(f) for f in _SHAPE_FIELDS[name]}, where)
                if set(rec) != set(ref_rec):
                    bad.append(f"{where}: fields {sorted(rec)} != {sorted(ref_rec)}")
                elif exact is not None:
                    bad += compare(exact[i][k], rec, where)
                if not bad:
                    try:
                        found = _INVARIANTS[name](rec, ref_rec, seed, wl.replicates)
                    except TypeError as e:
                        found = [f"field of the wrong type ({e})"]
                    bad = [f"{where}: {p}" for p in found]
            if bad:
                v.failed += 1
                v.problems += bad
    return v


def check_setup(status: int, text: str, reference: dict) -> Verdict:
    records = parse_lines(text)
    bad = [f"setup command exited with {status}"] if status != 0 else []
    if not bad:
        bad = compare(reference["records"], records, "setup")
    return Verdict(1, 1 if bad else 0, bad)
