#!/usr/bin/env python3
"""Compare two report corpora up to leaf numbering and last-digit rounding.

Both directories are written by ``scripts/report_corpus.py``. Every file
whose bytes differ is printed with its class:

- ``renumbered``: a `cluster run` report whose canonical partition (the
  set of point sets), metric scalars, per-label metrics, tree-node multiset
  (ids and children dropped), ``sigma_trace`` multiset (``node`` dropped)
  and every other top-level field are equal; only leaf numbers differ;
- ``rounding``: an elbow curve with the same k values and every SSE equal
  to within 1e-9 relative;
- ``DIFFERENT``: anything else, including any ``.meta`` (exit code and
  stderr) or input data that differs, and a file found on one side only.

Under each ``DIFFERENT`` report, one line per JSON path that differs (list
indices written ``[]``) gives the largest relative change of the numbers
there, e.g. ``sigma_trace[].sigma_sq 3.5e-15``, or ``changed`` where a
non-numeric value, a key or a list length differs.

Exits 0 when no file is ``DIFFERENT``, 1 otherwise.

Usage: python scripts/corpus_equiv.py A B
"""

import csv
import json
import math
import sys
from pathlib import Path

SSE_RTOL = 1e-9


def _partition(assignments: list) -> set:
    groups = {}
    for point, leaf in enumerate(assignments):
        groups.setdefault(leaf, []).append(point)
    return {frozenset(members) for members in groups.values()}


def _multiset(records: list, drop: tuple) -> list:
    return sorted(
        json.dumps({k: v for k, v in r.items() if k not in drop}, sort_keys=True)
        for r in records
    )


def _report_key(body: dict) -> dict:
    """Everything of a report that does not depend on leaf numbering."""
    rest = {k: v for k, v in body.items()
            if k not in ("assignments", "metrics", "sigma_trace", "tree")}
    metrics = body.get("metrics", {})
    return {
        "partition": _partition(body.get("assignments", [])),
        "metrics": {k: v for k, v in metrics.items() if not isinstance(v, dict)},
        "tree": _multiset(body.get("tree", []), ("id", "children")),
        "sigma_trace": _multiset(body.get("sigma_trace", []), ("node",)),
        "rest": rest,
    }


def _curve(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [(row[0], float(row[1])) for row in rows[1:]]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _changes(a, b, path: str = "", out: dict | None = None) -> dict:
    """JSON path -> largest relative change of a number there, or None where
    anything else differs."""
    out = {} if out is None else out

    def record(change):
        old = out.get(path, 0.0)
        out[path] = None if change is None or old is None else max(old, change)

    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _changes(a[key], b[key], sub, out)
            else:
                out[sub] = None
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            record(None)
        for x, y in zip(a, b):
            _changes(x, y, path + "[]", out)
    elif _is_number(a) and _is_number(b):
        if a != b:
            record(abs(a - b) / max(abs(a), abs(b)))
    elif a != b:
        record(None)
    return out


def classify(a: Path, b: Path) -> str:
    """Class of two files whose bytes differ."""
    if a.suffix == ".json":
        same = _report_key(json.loads(a.read_text())) == _report_key(json.loads(b.read_text()))
        return "renumbered" if same else "DIFFERENT"
    if a.suffix == ".csv" and a.parent.name != "data":
        ca, cb = _curve(a), _curve(b)
        same = len(ca) == len(cb) and ca[0] == cb[0] and all(
            ka == kb and math.isclose(sa, sb, rel_tol=SSE_RTOL, abs_tol=0.0)
            for (ka, sa), (kb, sb) in zip(ca[1:], cb[1:])
        )
        return "rounding" if same else "DIFFERENT"
    return "DIFFERENT"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = Path(argv[0]), Path(argv[1])
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    different = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"DIFFERENT  {rel} (only in {root_a if rel in files_a else root_b})")
            different += 1
            continue
        a, b = root_a / rel, root_b / rel
        if a.read_bytes() == b.read_bytes():
            continue
        cls = classify(a, b)
        different += cls == "DIFFERENT"
        print(f"{cls:<10} {rel}")
        if cls == "DIFFERENT" and a.suffix == ".json":
            changes = _changes(json.loads(a.read_text()), json.loads(b.read_text()))
            for path, change in sorted(changes.items()):
                print(f"{'':<11}{path} {'changed' if change is None else f'{change:.1e}'}")
    print(f"{len(files_a | files_b)} files, {different} not equivalent")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
