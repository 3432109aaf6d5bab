#!/usr/bin/env python3
"""Regenerate the stored golden payloads from configs/golden/*.json.

Run from the repository root after an intentional numerical change:

    python3 scripts/regen_golden.py

or, to compare without writing anything:

    python3 scripts/regen_golden.py --check

which exits 1 and names every golden whose payload bytes differ (or whose
file is missing), and 0 when all match.

A golden is strict JSON: a payload holding NaN or Infinity is refused, in
either mode, with its golden named and exit 1, and nothing is written for it.

It runs the package in this checkout's ``src/``, installed or not, and
refuses to run a copy imported from anywhere else.  The regression test
compares campaign payload bytes against these files, so only regenerate when
the change in numbers is understood and wanted.
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import modbanach  # noqa: E402
from modbanach.cli import run_campaign  # noqa: E402

if Path(modbanach.__file__).resolve().parent != (SRC / "modbanach").resolve():
    sys.exit(f"imported modbanach from {modbanach.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any stored payload differs")
    args = parser.parse_args(argv)
    configs = sorted((ROOT / "configs" / "golden").glob("*.json"))
    if not configs:
        print("no golden configs found", file=sys.stderr)
        return 1
    out_dir = ROOT / "tests" / "golden"
    differ, refused = [], []
    for path in configs:
        config = json.loads(path.read_text())
        result = run_campaign(config)
        target = out_dir / f"{config['name']}.payload.json"
        try:
            payload = json.dumps(
                result.to_json_obj(include_meta=False)["payload"], sort_keys=True, allow_nan=False
            ).encode() + b"\n"
        except ValueError as exc:
            refused.append(target)
            print(f"refused: {target} ({exc})")
            continue
        if args.check:
            if not target.is_file() or target.read_bytes() != payload:
                differ.append(target)
            continue
        out_dir.mkdir(parents=True, exist_ok=True)
        target.write_bytes(payload)
        print(f"wrote {target} ({len(payload) - 1} bytes)")
    if args.check:
        for target in differ:
            print(f"differs: {target}")
        print(f"{len(configs) - len(differ) - len(refused)} of {len(configs)} golden payloads match")
        return 1 if differ or refused else 0
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
