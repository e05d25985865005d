"""CLI contract: exit codes, rule selection, and the JSON format."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.__main__ import main
from repro.analysis.core import all_rules

pytestmark = pytest.mark.analysis

BAD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)

GOOD = textwrap.dedent(
    """
    def stamp(clock):
        return clock.now()
    """
)


def test_exit_nonzero_on_findings(tmp_path, capsys):
    mod = tmp_path / "example.py"
    mod.write_text(BAD)
    assert main([str(mod)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out
    assert f"{mod}:" in out


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    mod = tmp_path / "example.py"
    mod.write_text(GOOD)
    assert main([str(mod)]) == 0
    assert "clean" in capsys.readouterr().out


def test_rule_selection(tmp_path):
    mod = tmp_path / "example.py"
    mod.write_text(BAD)
    # scoping to an unrelated rule suppresses the determinism finding
    assert main([str(mod), "--rule", "bare-dtype"]) == 0
    assert main([str(mod), "--rule", "determinism"]) == 1


def test_unknown_rule_is_an_argument_error(tmp_path):
    mod = tmp_path / "example.py"
    mod.write_text(GOOD)
    with pytest.raises(SystemExit) as exc:
        main([str(mod), "--rule", "no-such-rule"])
    assert exc.value.code == 2


def test_json_format(tmp_path, capsys):
    mod = tmp_path / "example.py"
    mod.write_text(BAD)
    assert main([str(mod), "--format", "json"]) == 1
    findings = json.loads(capsys.readouterr().out)
    assert findings[0]["rule"] == "determinism"
    assert findings[0]["line"] == 5
    assert findings[0]["hint"]


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule in out


def test_suite_has_exactly_the_pinned_rules():
    assert set(all_rules()) == {
        "determinism",
        "bare-dtype",
        "config-coverage",
        "golden-coverage",
        "lifecycle-pairing",
    }
