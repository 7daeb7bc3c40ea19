"""Key-by-key diff of two artifact trees (or two artifact files).

Usage:

    python tools/artifact_diff.py OLD NEW

OLD and NEW are two run directories or two files.  Directories are walked
as `freqlab.io.content_hash_of_dir` walks them, skipping `record.json` and
`runs.jsonl`, and their files are paired by relative path.  Each difference
prints one line, `<file>: <what>`:

- a file on one side only: `removed` or `added`;
- `.json`: each removed, added or changed key path, with old -> new values;
- `.npz`: per array, removed, added, a dtype or shape change, or the count
  of differing elements and the largest difference (in ulps for floats);
- `.csv`: a header change, a row-count change, and per column the count of
  differing cells;
- any other file: its sha256.

Exits 0 when nothing differs and 1 otherwise.
"""

import hashlib
import json
import os
import sys

import numpy as np

_SKIPPED = ("record.json", "runs.jsonl")


def _show(value, width=60):
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= width else text[:width - 3] + "..."


def _walk(root):
    """Relative paths of the files under root, skipping run records."""
    out = []
    for base, _, files in os.walk(root):
        out += [os.path.relpath(os.path.join(base, f), root)
                for f in files if f not in _SKIPPED]
    return sorted(out)


def diff_json(old, new, path=""):
    """Lines for each removed, added or changed key path of two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(set(old) | set(new)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                lines.append(f"{sub} removed ({_show(old[key])})")
            elif key not in old:
                lines.append(f"{sub} added ({_show(new[key])})")
            else:
                lines += diff_json(old[key], new[key], sub)
        return lines
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in diff_json(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    return [f"{path or '(root)'} changed {_show(old)} -> {_show(new)}"]


def _ordered(a):
    """Unsigned keys that order floats as their values do, one ulp apart."""
    bits = a.view(f"u{a.dtype.itemsize}")
    sign = bits.dtype.type(1) << bits.dtype.type(8 * a.dtype.itemsize - 1)
    return np.where(bits & sign, ~bits, bits | sign)


def diff_arrays(name, a, b):
    """Lines for one array present on both sides."""
    if a.dtype.kind == b.dtype.kind == "U" and a.ndim == b.ndim == 0:
        # a text entry, such as a field file's JSON header
        try:
            old, new = json.loads(a.item()), json.loads(b.item())
        except ValueError:
            old, new = a.item(), b.item()
        return [f"{name}: {line}" for line in diff_json(old, new)]
    if a.dtype != b.dtype or a.shape != b.shape:
        return [f"{name}: {a.dtype}{list(a.shape)} -> {b.dtype}{list(b.shape)}"]
    if a.dtype.kind == "f":
        ka, kb = _ordered(a), _ordered(b)
        differ = ka != kb
        n = int(np.count_nonzero(differ))
        if not n:
            return []
        ulps = np.where(ka > kb, ka - kb, kb - ka)
        return [f"{name}: {n} of {a.size} elements differ, "
                f"largest by {int(ulps.max())} ulp"]
    differ = a != b
    n = int(np.count_nonzero(differ))
    if not n:
        return []
    if a.ndim == 0:
        return [f"{name}: {_show(a.item())} -> {_show(b.item())}"]
    line = f"{name}: {n} of {a.size} elements differ"
    if a.dtype.kind in "iub":
        gap = np.abs(a.astype(np.int64) - b.astype(np.int64)).max()
        line += f", largest by {int(gap)}"
    return [line]


def diff_npz(old_path, new_path):
    with np.load(old_path) as za, np.load(new_path) as zb:
        lines = []
        for name in sorted(set(za.files) | set(zb.files)):
            if name not in zb.files:
                lines.append(f"{name} removed")
            elif name not in za.files:
                lines.append(f"{name} added")
            else:
                lines += diff_arrays(name, za[name], zb[name])
        return lines


def _read_csv(path):
    """(header lines: comments and the column line, column names, rows)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        k += 1
    head = lines[:k + 1]
    columns = lines[k].split(",") if k < len(lines) else []
    return head, columns, [line.split(",") for line in lines[k + 1:]]


def diff_csv(old_path, new_path):
    head_a, cols_a, rows_a = _read_csv(old_path)
    head_b, cols_b, rows_b = _read_csv(new_path)
    lines = []
    if head_a != head_b:
        lines.append(f"header {_show(head_a)} -> {_show(head_b)}")
    if len(rows_a) != len(rows_b):
        lines.append(f"rows {len(rows_a)} -> {len(rows_b)}")
    rows = list(zip(rows_a, rows_b))
    for col in [c for c in cols_a if c in cols_b]:
        i, j = cols_a.index(col), cols_b.index(col)
        n = sum((ra[i] if i < len(ra) else None) != (rb[j] if j < len(rb) else None)
                for ra, rb in rows)
        if n:
            lines.append(f"column {col}: {n} of {len(rows)} cells differ")
    return lines


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def diff_files(old_path, new_path):
    """Lines for two files of the same name."""
    ext = os.path.splitext(old_path)[1]
    if ext == ".json":
        with open(old_path, encoding="utf-8") as fa, \
                open(new_path, encoding="utf-8") as fb:
            return diff_json(json.load(fa), json.load(fb))
    if ext == ".npz":
        return diff_npz(old_path, new_path)
    if ext == ".csv":
        return diff_csv(old_path, new_path)
    a, b = _sha256(old_path), _sha256(new_path)
    return [] if a == b else [f"sha256 {a[:16]} -> {b[:16]}"]


def diff_trees(old, new):
    """Every difference between two trees (or files), as printed lines."""
    if os.path.isfile(old) and os.path.isfile(new):
        name = os.path.basename(new)
        return [f"{name}: {line}" for line in diff_files(old, new)]
    files_a, files_b = _walk(old), _walk(new)
    lines = []
    for rel in sorted(set(files_a) | set(files_b)):
        if rel not in files_b:
            lines.append(f"{rel}: removed")
        elif rel not in files_a:
            lines.append(f"{rel}: added")
        else:
            lines += [f"{rel}: {line}" for line in
                      diff_files(os.path.join(old, rel), os.path.join(new, rel))]
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/artifact_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = diff_trees(*argv)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
