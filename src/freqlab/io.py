"""Deterministic CSV/JSON/.npz emission and run records.

Every artifact is byte-stable given the same inputs: JSON keys are sorted,
text floats are written with repr (shortest round-trip), line endings are
'\\n', and .npz archives store the float64 bits.  Run records carry
timestamps, but those are excluded from content hashes.
"""

import datetime
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["jsonable", "write_json", "write_npz", "write_csv", "profile_to_csv",
           "RunRecord", "content_hash_of_dir"]


def jsonable(obj):
    """obj with every numpy value turned into its JSON counterpart: arrays
    into lists, numpy scalars into Python ones, and non-finite floats into
    None (strict JSON has no NaN or Infinity).  Dicts get string keys."""
    # floats first: they are most of what a report holds
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(path, obj):
    """Write `obj`, already JSON-ready (`jsonable`, as every `to_dict()`
    returns); a NaN, an infinity or a numpy array raises."""
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def write_npz(path, header, arrays):
    """Write one uncompressed .npz archive at exactly `path`: `header`, a
    0-d string array of sorted-key JSON, then `arrays` in their order.

    The same input always gives the same bytes (zip entries carry a fixed
    timestamp), and nothing is pickled.
    """
    # a handle, not a name: np.savez appends ".npz" to a name without it
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header, sort_keys=True)),
                 allow_pickle=False, **arrays)
    return path


def write_csv(path, columns, arrays, schema_comment):
    """CSV under a '# <schema_comment>' line and a header of `columns`.

    Each column is converted to floats and then to text once, by repr; a
    NaN (None included), whose repr 'nan' no other float's repr contains,
    is blanked to an empty field in one pass over the rows' text.
    """
    cols = [map(repr, np.asarray(a, dtype=float).tolist()) for a in arrays]
    rows = list(map(",".join, zip(*cols)))
    head = f"# {schema_comment}\n{','.join(columns)}\n"
    body = "\n".join(rows).replace("nan", "") + "\n" if rows else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + body)
    return path


def profile_to_csv(prof, path):
    return write_csv(
        path, ["r", "H", "D", "D1", "d", "dprime", "N", "surfaceD"],
        [prof.r, prof.H, prof.D, prof.D1, prof.d, prof.dprime, prof.N,
         prof.surfaceD],
        schema_comment="freqlab-profile 1")


def _sha256(path):
    hsh = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            hsh.update(chunk)
    return hsh.hexdigest()


@dataclass
class RunRecord:
    """Append-only record of one command invocation."""

    command: str
    config: dict
    out_dir: str
    tool_version: str
    started_at: str = ""
    finished_at: str = ""
    manifest: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def start(self):
        self.started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        return self

    def add(self, path):
        rel = os.path.relpath(path, self.out_dir)
        self.manifest.append({"path": rel, "sha256": _sha256(path)})
        return path

    def finish(self, summary=None):
        if summary:
            self.summary.update(summary)
        self.finished_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.manifest.sort(key=lambda m: m["path"])
        record = jsonable({
            "schema_version": 1,
            "command": self.command,
            "config": self.config,
            "tool_version": self.tool_version,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "manifest": self.manifest,
            "summary": self.summary,
            "content_hash": self.content_hash(),
        })
        write_json(os.path.join(self.out_dir, "record.json"), record)
        line = json.dumps(record, sort_keys=True, allow_nan=False)
        with open(os.path.join(self.out_dir, "runs.jsonl"), "a",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")
        return record

    def content_hash(self):
        """Hash of the emitted artifacts; timestamps play no part."""
        hsh = hashlib.sha256()
        for m in sorted(self.manifest, key=lambda m: m["path"]):
            hsh.update(m["path"].encode())
            hsh.update(m["sha256"].encode())
        return hsh.hexdigest()


def content_hash_of_dir(out_dir):
    """Recomputed artifact hash of a run directory (record/journal excluded)."""
    hsh = hashlib.sha256()
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            if name in ("record.json", "runs.jsonl"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            hsh.update(rel.encode())
            hsh.update(_sha256(path).encode())
    return hsh.hexdigest()
