#!/usr/bin/env python3
"""Record the reference outputs that the benchmark checks workloads against.

Runs every command of each workload at 1 worker for each seed and stores its
JSONL records in reference/<workload>.json; the seed-independent setup
command goes to reference/setup.json. Run it at the commit whose outputs are
taken as correct:

    python3 perfbench/record.py --seeds 0-11
"""
from __future__ import annotations

import argparse
import json
import sys

from outputs import REFERENCE_DIR, load_reference, parse_lines
from workloads import OUT_DIR, SETUP_COMMAND, WORKLOADS, provenance, spawn


def _run(cmd) -> list[dict]:
    done = spawn(cmd.argv(), OUT_DIR / "record.out")
    records = parse_lines(done.stdout)
    if done.status != 0 or any(r is None for r in records):
        sys.exit(f"{' '.join(cmd.shown())} failed with {done.status}:\n{done.stderr}")
    return records


def _write(name: str, data: dict):
    """Indented JSON with each seed's records on one compact line."""
    seeds = data.pop("seeds", None)
    text = json.dumps(data, indent=1, sort_keys=True)
    if seeds is not None:
        rows = ",\n".join(f'  "{seed}": {json.dumps(recs, separators=(",", ":"))}'
                          for seed, recs in sorted(seeds.items(), key=lambda kv: int(kv[0])))
        text = text[:-2] + ',\n "seeds": {\n' + rows + "\n }\n}"
    (REFERENCE_DIR / f"{name}.json").write_text(text + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-11", help="inclusive range a-b")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    OUT_DIR.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    prov = provenance()
    _write("setup", {"provenance": prov, "records": _run(SETUP_COMMAND)})
    for name in WORKLOADS:
        ref = load_reference(name)
        seeds = ref.get("seeds", {})
        for seed in range(lo, hi + 1):
            seeds[str(seed)] = [_run(c) for c in WORKLOADS[name].commands(seed, workers=1)]
            print(f"recorded {name} seed {seed}", file=sys.stderr, flush=True)
            _write(name, {"provenance": prov, "workers": 1, "seeds": dict(seeds)})


if __name__ == "__main__":
    main()
