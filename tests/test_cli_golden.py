import json

from cli_golden import GOLDEN, digest, write_csv


def test_cli_output_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VCE_STATE_LIMIT", raising=False)
    csv_path = tmp_path / "data.csv"
    write_csv(csv_path)
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) > 600
    changed = [" ".join(argv) for argv, want in entries if digest(argv, csv_path) != want]
    assert not changed, f"{len(changed)} argv(s) changed output:\n" + "\n".join(changed)
