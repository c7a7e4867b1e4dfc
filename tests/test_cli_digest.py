"""The comparison behind ``tools/cli_digest.py --against``, on small digests."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cli_digest", Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

SAVED = ["aa  p0/gen.console", "bb  p0/pgd.json", "cc  p1/gen.console"]


def test_identical_digests_have_no_differing_lines():
    assert cli_digest.differing_lines(SAVED, list(SAVED)) == []


@pytest.mark.parametrize("current, expected", [
    (["aa  p0/gen.console", "bx  p0/pgd.json", "cc  p1/gen.console"],
     ["- bb  p0/pgd.json", "+ bx  p0/pgd.json"]),
    (["aa  p0/gen.console", "cc  p1/gen.console"], ["- bb  p0/pgd.json"]),
    (SAVED + ["dd  p0/gd.json"], ["+ dd  p0/gd.json"]),
    (["ax  p0/gen.console", "bb  p0/pgd.json", "cx  p1/gen.console"],
     ["- aa  p0/gen.console", "+ ax  p0/gen.console",
      "- cc  p1/gen.console", "+ cx  p1/gen.console"]),
], ids=["changed", "gone", "new", "two-changed"])
def test_each_differing_line_in_path_order(current, expected):
    assert cli_digest.differing_lines(SAVED, current) == expected


def test_exit_status_follows_the_comparison(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_digest, "digest_lines", lambda: list(SAVED))
    saved = tmp_path / "old.txt"
    saved.write_text("\n".join(SAVED) + "\n")
    assert cli_digest.main_digest(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    saved.write_text("\n".join(SAVED[:2]) + "\n")
    assert cli_digest.main_digest(["--against", str(saved)]) == 1
    assert capsys.readouterr().out == "+ cc  p1/gen.console\n"
    assert cli_digest.main_digest([]) == 0
    assert capsys.readouterr().out == "\n".join(SAVED) + "\n"
