"""Property: any argv built from the subcommands and their flags, bad values
included, makes `esm` return a documented exit code and never raise."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esmtangle.cli import _FLAGS, build_parser, main

PROGRAMS = ["toggle", "bin_succ", "bin_add", "str_reverse", "merge_demo", "no_such.esm"]

# Small pools per flag; each holds values that work and values that must fail.
# Fuel stays at most 50 so every run is short.  {dir} is a writable directory.
VALUES = {
    "--input": ["x=5", "x=x", "x=d1(eps)", "y=3", "x", "x=", "x=-2", "x=a(eps)"],
    "--fuel": ["0", "5", "50", "-1"],
    "--engine": ["critical", "reference"],
    "--oracle-cost": ["unit", "inline"],
    "--report": ["{dir}/r.json", "/nonexistent/r.json", "{dir}"],
    "--format": ["json", "csv"],
    "--seed": ["0", "7", "-3"],
    "--sweep": ["1:4", "4:8", "4:x", "8:4", "0:2", ":"],
    "--random": ["1", "2", "0", "-5"],
}


def _subcommand_flags() -> dict[str, list[str]]:
    """The _FLAGS entries each program-taking subcommand accepts."""
    sub = build_parser()._subparsers._group_actions[0]
    return {
        name: [f for f in _FLAGS if f in p._option_string_actions]
        for name, p in sub.choices.items() if name != "examples"
    }


COMMANDS = _subcommand_flags()


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, draw(st.sampled_from(PROGRAMS)), "--fuel",
            draw(st.sampled_from(VALUES["--fuel"]))]
    for flag in draw(st.lists(st.sampled_from(COMMANDS[command]), max_size=4)):
        argv += [flag] if flag == "--nat" else [flag, draw(st.sampled_from(VALUES[flag]))]
    return argv


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
def test_main_never_raises(report_dir, argv):
    argv = [a.format(dir=report_dir) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in range(6), (argv, code)
    assert "Traceback" not in err.getvalue()
