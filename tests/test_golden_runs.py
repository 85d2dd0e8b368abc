"""Every CLI run of golden_runs.py reproduces its recorded digests: stdout,
exit code, refusal line and cache file, byte for byte.  A change that alters
a report, even the same way cold and warm, fails here."""

from golden_runs import differences, load_golden, run_all


def test_cli_runs_reproduce_their_golden_digests():
    assert differences(run_all(), load_golden()) == []
