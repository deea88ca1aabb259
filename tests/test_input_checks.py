"""Input checks of the system file format and of the CLI: each malformed
line raises FormatError citing its own line number, and a missing system
file is an io error."""

import pytest

from cicensus import FormatError, parse_system_file
from cicensus.cli import main

HEAD = "field 3\nnvars 3\n"

# (text, cited line, words of the message)
BAD_FILES = (
    ("field 3\nfield 5\n", 2, "duplicate field line"),
    ("# a comment\nfield banana\n", 2, "bad field spec"),
    ("field 3\nnvars three\n", 2, "nvars must be an integer"),
    ("field 3\nnvars 1\n", 2, "nvars must be at least 2"),
    ("poly 1: 1:2,0,0\nfield 3\nnvars 3\n", 1, "poly line before field/nvars"),
    ("field 3\npoly 1: 1:2,0,0\nnvars 3\n", 2, "poly line before field/nvars"),
    (HEAD + "poly 1 1,2,0,0\n", 3, "poly line needs 'poly <i>: terms'"),
    (HEAD + "poly one: 1:2,0,0\n", 3, "poly index must be an integer"),
    # poly_parse, reached through a poly line
    (HEAD + "poly 1: 1:2,0,0 + 2,0,0\n", 3, "lacks a ':' separator"),
    (HEAD + "poly 1: 1:2,x,0\n", 3, "cannot parse term"),
    (HEAD + "poly 1:\n", 3, "empty polynomial text"),
    (HEAD + "\npoly 1: 1:3,-1,0\n", 4, "negative exponent"),
)


@pytest.mark.parametrize("text, line, words", BAD_FILES)
def test_a_bad_line_is_cited(text, line, words):
    with pytest.raises(FormatError) as err:
        parse_system_file(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")
    assert words in str(err.value)


def test_a_missing_system_file_is_an_io_error(tmp_path, capsys):
    code = main(["test", "--field", "3", "--system",
                 str(tmp_path / "missing.sys")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("io error: ") and "missing.sys" in err
