"""CI gate: the source tree and the public surface may shrink, not grow.

Compares the `src` line count, the number of ``ExperimentConfig`` fields
and the ``__all__`` sizes of the packages below with the ceilings in
``tests/size_ceilings.json`` (the values measured when they were last
lowered).  Prints every number; exits non-zero when one exceeds its
ceiling.  A change that shrinks one lowers its ceiling in the same
commit; a change that must grow one raises it there, in the open.

Run from the repository root: ``PYTHONPATH=src python tests/check_size.py``.
"""

import importlib
import json
import pathlib
import sys
from dataclasses import fields

ROOT = pathlib.Path(__file__).resolve().parent.parent


def measure(packages: list[str]) -> dict[str, int]:
    from repro.perf import PerfCounters
    from repro.sim import ExperimentConfig

    sizes = {
        "src lines": sum(
            len(path.read_text().splitlines())
            for path in (ROOT / "src").rglob("*.py")
        ),
        "ExperimentConfig fields": len(fields(ExperimentConfig)),
        "repro.perf counters": len(PerfCounters.__slots__),
    }
    for name in packages:
        sizes[f"{name}.__all__"] = len(importlib.import_module(name).__all__)
    return sizes


def main() -> int:
    ceilings = json.loads((ROOT / "tests" / "size_ceilings.json").read_text())
    packages = [
        key.removesuffix(".__all__") for key in ceilings if key.endswith(".__all__")
    ]
    sizes = measure(packages)
    grown = []
    for key, ceiling in ceilings.items():
        print(f"{key}: {sizes[key]} (ceiling {ceiling})")
        if sizes[key] > ceiling:
            grown.append(key)
    if grown:
        print("grew past its ceiling: " + ", ".join(grown), file=sys.stderr)
    return 1 if grown else 0


if __name__ == "__main__":
    raise SystemExit(main())
