"""Compare two ``report_digests.py`` output directories field by field.

Usage::

    python scripts/compare_reports.py DIR_A DIR_B

Both directories must come from runs that used the same OUT_DIR path (see
``report_digests.py``), so that the file paths recorded in the reports
agree. For every file under either directory the script prints one of:

* ``only in A`` or ``only in B``;
* for a JSON report or a ``fits/*.txt`` fit ``repr`` whose bytes differ:
  each numeric field that moved, with its maximum relative difference
  |a - b| / max(|a|, |b|) and how many of its entries moved, and each
  non-numeric difference (a string, flag or type that changed, or a field
  present on one side only). The position in a list of a field is folded
  into ``[*]``, and positions within its items are kept, so
  ``trace[*][2]`` covers the value of every (t, lambda, value) trace entry;
* ``differs`` for any other file whose bytes differ.

Files with identical bytes are not printed. The exit status is 0 when the
directories are byte-identical, 1 when anything differs and 2 on a usage
error.
"""

from __future__ import annotations

import ast
import json
import math
import re
import sys
from pathlib import Path

# a repr that Python cannot parse back, such as <EstimatorMode.CV_SERIAL: 'cv_serial'>
_OPAQUE_REPR = re.compile(r"<[^<>]*>")
# a list position, but not a position inside a list's items, such as the 2 of trace[12][2]
_INDEX = re.compile(r"(?<!\])\[\d+\]")


def _literal(node: ast.AST):
    """The value of a repr's syntax tree: a call becomes a dict of its keyword
    arguments plus its type under ``__class__``, a one-argument call such as
    ``np.float64(0.5)`` becomes its argument, and a name other than ``inf``
    or ``nan`` becomes its text."""
    if isinstance(node, ast.Call):
        if node.args and not node.keywords:
            return _literal(node.args[0])
        fields = {"__class__": ast.unparse(node.func)}
        fields.update((kw.arg, _literal(kw.value)) for kw in node.keywords)
        return fields
    if isinstance(node, (ast.Tuple, ast.List)):
        return [_literal(item) for item in node.elts]
    if isinstance(node, ast.Dict):
        return {str(_literal(key)): _literal(value) for key, value in zip(node.keys, node.values)}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_literal(node.operand)
    if isinstance(node, (ast.Name, ast.Attribute)):  # inf, nan, np.False_, ...
        name = ast.unparse(node)
        return float(name) if name in ("inf", "nan") else name
    return ast.literal_eval(node)


def _load(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    text = _OPAQUE_REPR.sub(lambda match: repr(match.group(0)), text)
    return _literal(ast.parse(text.strip(), mode="eval").body)


def _flatten(value, path: str = ""):
    """(field path, leaf) pairs of nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{path}[{i}]")
    else:
        yield path, value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def compare_fields(a, b) -> list[str]:
    """One line per numeric field that moved and per non-numeric difference."""
    fields_a, fields_b = dict(_flatten(a)), dict(_flatten(b))
    moved: dict[str, list] = {}  # pattern -> [max relative difference, entries moved, entries]
    other: list[str] = []
    for path in fields_a.keys() | fields_b.keys():
        if path not in fields_b or path not in fields_a:
            other.append(f"  {path}: only in {'A' if path in fields_a else 'B'}")
            continue
        x, y = fields_a[path], fields_b[path]
        if _is_number(x) and _is_number(y):
            stats = moved.setdefault(_INDEX.sub("[*]", path), [0.0, 0, 0])
            stats[2] += 1
            if x != y and not (math.isnan(x) and math.isnan(y)):
                stats[0] = max(stats[0], _relative(x, y))
                stats[1] += 1
        elif x != y:
            other.append(f"  {path}: {x!r} -> {y!r}")
    lines = [
        f"  {pattern}: max rel {worst:.3g} ({count} of {total} moved)"
        for pattern, (worst, count, total) in sorted(moved.items())
        if count
    ]
    return lines + sorted(other)


def compare_dirs(dir_a: Path, dir_b: Path) -> list[str]:
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            lines.append(f"{rel}: only in {'A' if rel in files_a else 'B'}")
            continue
        path_a, path_b = dir_a / rel, dir_b / rel
        if path_a.read_bytes() == path_b.read_bytes():
            continue
        if rel.suffix == ".json" or (rel.parts[0] == "fits" and rel.suffix == ".txt"):
            lines.append(f"{rel}:")
            lines.extend(compare_fields(_load(path_a), _load(path_b)) or ["  (same fields, other bytes)"])
        else:
            lines.append(f"{rel}: differs")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(arg).is_dir() for arg in argv):
        print(__doc__, file=sys.stderr)
        return 2
    lines = compare_dirs(Path(argv[0]), Path(argv[1]))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
