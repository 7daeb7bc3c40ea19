"""tools/artifact_diff.py on small trees holding every kind of file it
reads: JSON, .npz, .csv and any other file."""

import importlib.util
import json
import os

import numpy as np

from freqlab.io import write_csv, write_json, write_npz

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "artifact_diff.py")
_spec = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)


def _tree(root, cert, arrays, csv_columns, csv_rows, text):
    sub = root / "au"
    sub.mkdir(parents=True)
    write_json(sub / "certificate.json", cert)
    write_npz(root / "identities.npz", {"format": "test 1"}, arrays)
    write_csv(root / "profile.csv", csv_columns,
              [np.asarray(c, float) for c in zip(*csv_rows)],
              schema_comment="freqlab-profile 1")
    (root / "field.txt").write_text(text)
    # run records are skipped, as content_hash_of_dir skips them
    (root / "record.json").write_text(json.dumps({"time": str(root)}))
    (root / "runs.jsonl").write_text(str(root))
    return root


OLD = dict(
    cert={"classification": "inconclusive",
          "controls": {"backward_margin": 0.5, "gate_rel": 0.01},
          "steps": {"frequency_bounded": {"margin": 1.0, "n_radii": 3}},
          "notes": ["a", "b"]},
    arrays={"a": np.array([1.0, 2.0, -0.0]), "b": np.arange(3),
            "c": np.zeros(2)},
    csv_columns=["r", "H", "N"],
    csv_rows=[(0.1, 1.0, 2.0), (0.2, 2.0, 3.0)],
    text="one\n")


def test_identical_trees_exit_0(tmp_path, capsys):
    old = _tree(tmp_path / "old", **OLD)
    new = _tree(tmp_path / "new", **OLD)
    assert artifact_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""


def test_each_kind_of_change_is_named(tmp_path, capsys):
    old = _tree(tmp_path / "old", **OLD)
    a = np.array([1.0, np.nextafter(2.0, 3.0), 0.0])  # 1 ulp, and -0 -> +0
    new = _tree(
        tmp_path / "new",
        cert={"classification": "inconclusive",
              "controls": {"gate_rel": 0.01, "residual_gate": None},
              "steps": {"frequency_bounded": {"margin": 1.5, "n_radii": 3}},
              "notes": ["a", "c"]},
        arrays={"a": a, "b": np.arange(4), "d": np.ones(1)},
        csv_columns=["r", "H", "D"],
        csv_rows=[(0.1, 1.5, 2.0), (0.2, 2.0, 3.0), (0.3, 1.0, 1.0)],
        text="two\n")
    (old / "gone.txt").write_text("x")
    (new / "fresh.txt").write_text("y")
    assert artifact_diff.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    cert = os.path.join("au", "certificate.json")
    assert lines == [
        f"{cert}: controls.backward_margin removed (0.5)",
        f"{cert}: controls.residual_gate added (null)",
        f'{cert}: notes[1] changed "b" -> "c"',
        f"{cert}: steps.frequency_bounded.margin changed 1.0 -> 1.5",
        "field.txt: sha256 " + artifact_diff._sha256(old / "field.txt")[:16]
        + " -> " + artifact_diff._sha256(new / "field.txt")[:16],
        "fresh.txt: added",
        "gone.txt: removed",
        "identities.npz: a: 2 of 3 elements differ, largest by 1 ulp",
        "identities.npz: b: int64[3] -> int64[4]",
        "identities.npz: c removed",
        "identities.npz: d added",
        'profile.csv: header ["# freqlab-profile 1", "r,H,N"] -> '
        '["# freqlab-profile 1", "r,H,D"]',
        "profile.csv: rows 2 -> 3",
        "profile.csv: column H: 1 of 2 cells differ",
    ]


def test_two_files_and_a_text_entry(tmp_path, capsys):
    old = write_npz(tmp_path / "old.npz", {"N": 2, "q": 1.5},
                    {"u": np.array([1.0, 2.0])})
    new = write_npz(tmp_path / "new.npz", {"N": 3, "q": 1.5},
                    {"u": np.array([1.0, 2.0])})
    assert artifact_diff.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "new.npz: header: N changed 2 -> 3"]
    assert artifact_diff.main([str(old), str(old)]) == 0


def test_ulps_across_zero_and_between_powers_of_two():
    d = artifact_diff.diff_arrays
    assert d("x", np.array([-0.0]), np.array([0.0])) == [
        "x: 1 of 1 elements differ, largest by 1 ulp"]
    one_below = np.nextafter(1.0, 0.0)
    assert d("x", np.array([one_below]), np.array([np.nextafter(1.0, 2.0)])) \
        == ["x: 1 of 1 elements differ, largest by 2 ulp"]
    tiny = np.array([-5e-324])
    assert d("x", tiny, np.array([5e-324])) == [
        "x: 1 of 1 elements differ, largest by 3 ulp"]
    assert d("x", np.array([np.nan]), np.array([np.nan])) == []
