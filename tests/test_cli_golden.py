import json

from cli_golden import GOLDEN, digest, write_inputs


def test_cli_output_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VCE_STATE_LIMIT", raising=False)
    subs = write_inputs(tmp_path)
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) > 800
    changed = [" ".join(argv) for argv, want in entries if digest(argv, subs) != want]
    assert not changed, f"{len(changed)} argv(s) changed output:\n" + "\n".join(changed)
