"""Compare two directories of adwynn outputs by value.

    python3 tools/compare_outputs.py A B

A and B hold the same runs' outputs from two checkouts, for example as
kept by ``tools/output_digests.py --keep DIR``.  For each file name in
either directory the script prints whether the two files are
byte-equal; if not, the largest absolute and relative difference among
their numbers, and whether every design point and every non-numeric
field is equal.  Design points are the JSON values under ``points`` and
``x_next``, the CSV columns ``x0``, ``x1``, ... and the coordinates of a
session's ``SUGGEST`` lines.  JSON and CSV files are parsed; any other
file is compared as lines of whitespace-separated tokens.

Two files differ in shape when a leaf (a JSON value, a CSV cell or a
token, named by its path such as ``config.polish``) exists in one of them
only.  The script then lists those leaves, up to ten per side, and
compares the shared leaves by value as above.

Exits 1 when a file exists on one side only, when two files differ in
shape, or when a design point or non-numeric field differs; else 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from pathlib import Path

DESIGN_KEYS = ("points", "x_next")
DESIGN_COLUMN = re.compile(r"x\d+$")


def _json_leaves(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, path + (i,))
    else:
        yield path, value, any(key in DESIGN_KEYS for key in path)


def _number(token):
    try:
        return float(token)
    except ValueError:
        return token


def _csv_leaves(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0] if rows else []
    yield ("header",), header, False
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row):
            name = header[j] if j < len(header) else j
            yield (i, name), _number(cell), bool(DESIGN_COLUMN.match(str(name)))


def _text_leaves(text: str):
    for i, line in enumerate(text.splitlines()):
        tokens = line.split()
        suggest = bool(tokens) and tokens[0] == "SUGGEST"
        for j, token in enumerate(tokens):
            yield (i, j), _number(token), suggest and j >= 2


def _leaves(path: Path) -> list:
    text = path.read_text()
    if path.suffix == ".json":
        return list(_json_leaves(json.loads(text)))
    if path.suffix == ".csv":
        return list(_csv_leaves(text))
    return list(_text_leaves(text))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _names(paths: list, limit: int = 10) -> str:
    names = ", ".join(".".join(str(part) for part in path) for path in paths[:limit])
    return names + (f" and {len(paths) - limit} more" if len(paths) > limit else "")


def compare(a: Path, b: Path) -> tuple[str, bool]:
    """One report line for a file pair, and whether the pair is acceptable."""
    if a.read_bytes() == b.read_bytes():
        return "byte-equal", True
    left = {path: (value, design) for path, value, design in _leaves(a)}
    right = {path: value for path, value, _ in _leaves(b)}
    one_sided = [
        f"only in {side.parent}: {_names(paths)}"
        for side, paths in (
            (a, [path for path in left if path not in right]),
            (b, [path for path in right if path not in left]),
        )
        if paths
    ]
    max_abs = max_rel = 0.0
    points_equal = fields_equal = True
    for path, (u, design) in left.items():
        if path not in right:
            continue
        v = right[path]
        same = u == v or (_is_number(u) and _is_number(v) and math.isnan(u) and math.isnan(v))
        if _is_number(u) and _is_number(v) and not same:
            diff = abs(u - v)
            if math.isnan(diff):
                fields_equal = False
            else:
                max_abs = max(max_abs, diff)
                max_rel = max(max_rel, diff / max(abs(u), abs(v)))
        if design and not same:
            points_equal = False
        elif not same and not (_is_number(u) and _is_number(v)):
            fields_equal = False
    line = (
        f"max abs diff {max_abs:.3g}, max rel diff {max_rel:.3g}; "
        f"design points {'equal' if points_equal else 'DIFFER'}; "
        f"non-numeric fields {'equal' if fields_equal else 'DIFFER'}"
    )
    if one_sided:
        return f"shape differs ({'; '.join(one_sided)}); shared leaves: {line}", False
    return f"differs: {line}", points_equal and fields_equal


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    a_dir, b_dir = Path(argv[0]), Path(argv[1])
    names = sorted({p.name for p in a_dir.iterdir()} | {p.name for p in b_dir.iterdir()})
    ok = True
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.is_file() and b.is_file()):
            line, good = f"only in {a_dir if a.is_file() else b_dir}", False
        else:
            line, good = compare(a, b)
        ok = ok and good
        print(f"{name}: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
