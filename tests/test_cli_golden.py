import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from cli_golden import GOLDEN, MODELS_DIR, digest, write_inputs

from vce.cli import main as vce_main


def test_cli_output_matches_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv("VCE_STATE_LIMIT", raising=False)
    subs = write_inputs(tmp_path)
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(entries) > 800
    changed = [" ".join(argv) for argv, want in entries if digest(argv, subs) != want]
    assert not changed, f"{len(changed)} argv(s) changed output:\n" + "\n".join(changed)


def test_an_argv_that_argparse_rejects_has_a_digest():
    # `--outcome` lost its value to a misplaced `--degree`: argparse prints its
    # usage and exits 2, which the digest hashes instead of exiting.
    argv = ["eval", "{models}/sprinkler.sem", "--cause", "R", "--outcome", "--degree", "1", "W"]
    real = [a.replace("{models}", str(MODELS_DIR)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exited:
        vce_main(real)
    assert exited.value.code == 2 and err.getvalue().startswith("usage: vce eval")
    want = hashlib.sha256(json.dumps([2, out.getvalue(), err.getvalue()]).encode()).hexdigest()
    assert digest(argv, {"{models}": str(MODELS_DIR)}) == want
