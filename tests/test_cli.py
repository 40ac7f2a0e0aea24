"""Command-line interface: output grammar, JSON documents, exit codes."""
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tilecohom import catalog, cli, subst2d
from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix
from tilecohom.cli import main
from tilecohom.errors import ExactnessFailure, NotWellDefined
from tilecohom.limits import TowerGroup, limit_les


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSpace:
    def test_tm_text(self, capsys):
        code, out, _ = run(capsys, "space", "tm:2,1")
        assert code == 0
        assert out.strip() == "H^0 = Z; H^1 = Z[1/3] + Z^2"

    def test_sol_text(self, capsys):
        code, out, _ = run(capsys, "space", "sol:2")
        assert code == 0
        assert out.strip() == "H^0 = Z; H^1 = Z[1/2]"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "space", "sol:2", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["space"] == "sol:2"
        assert [r["degree"] for r in doc["results"]] == [0, 1]
        assert "runtime_ms" in doc

    def test_bad_name_is_usage_error(self, capsys):
        code, _, err = run(capsys, "space", "tm:0,1")
        assert code == 2 and "error" in err

    def test_chair_with_collar(self, capsys):
        code, out, _ = run(capsys, "space", "chair:0,0", "--collar", "off")
        assert code == 0
        assert out.strip() == "H^0 = Z; H^1 = Z[1/2]^2; H^2 = Z[1/2]"


class TestQuotient:
    def test_tm_pd_text(self, capsys):
        code, out, _ = run(capsys, "quotient", "tm:1,1", "pd:1,1")
        assert code == 0
        assert out.strip() == "H^0_Q = 0; H^1_Q = Z_2"

    def test_unrelated_pair(self, capsys):
        code, _, err = run(capsys, "quotient", "tm:2,1", "sol:5")
        assert code == 2 and "error" in err


class TestPath:
    def test_abac(self, capsys):
        code, out, _ = run(capsys, "path", "chair:X,+", "ABAC")
        assert code == 0
        assert out.strip() == "H^1_Q = Z^2; H^2_Q = Z_3 + Z[1/2]^4 + Z"

    def test_start_must_be_chair(self, capsys):
        code, _, err = run(capsys, "path", "tm:1,1", "A")
        assert code == 2 and "error" in err

    def test_bad_word(self, capsys):
        code, _, err = run(capsys, "path", "chair:X,+", "AD")
        assert code == 2 and "error" in err

    def test_collar_off_honoured(self, capsys):
        # /,0 does not force its border, so it has no uncollared complex
        code, out, err = run(capsys, "path", "chair:/,0", "C",
                             "--collar", "off")
        assert code == 1 and not out and "does not force its border" in err


class TestOneDNames:
    @pytest.mark.parametrize("name", ["tm:1_0,+1", "tm:+2,1", "tm:\u0663,1",
                                      "tm: 2,1", "pd:99999999999999999999,1",
                                      "sol:1000001"])
    def test_refused_with_one_line(self, capsys, name):
        # these used to run as tm:10,1, tm:2,1, tm:3,1 and tm:2,1, to end in
        # an OverflowError traceback, and to build a 10**6-letter image
        code, out, err = run(capsys, "space", name)
        assert code == 2 and not out
        line, = err.splitlines()
        assert line.startswith("error: ")


class TestVerify:
    def test_verify_1d_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "1d")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_verify_grid_json(self, capsys):
        code, out, _ = run(capsys, "verify", "1d", "--grid", "2,1", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["failures"] == 0

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "verify", "1d", "--grid", "2,x")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("grid", ["5", "1,2,3", "2,1;3", "2,1;1,2,3"])
    def test_grid_item_not_a_pair(self, capsys, grid):
        # these used to end in an uncaught ValueError from the unpacking
        code, out, err = run(capsys, "verify", "1d", "--grid", grid)
        assert code == 2 and not out and "grid" in err

    @pytest.mark.parametrize("grid", [";", "", ";;"])
    def test_empty_grid_is_usage_error(self, capsys, grid):
        # ";" used to run no check and print "0/0 checks passed" with exit
        # 0; "" used to fall back to DEFAULT_GRID
        code, out, err = run(capsys, "verify", "1d", "--grid", grid)
        assert code == 2 and not out and "grid" in err

    @pytest.mark.parametrize("grid", ["1_0,+1", "+2,1", " 2,1", "\u0663,1"])
    def test_grid_digits_are_ascii(self, capsys, grid):
        # "1_0,+1" used to run the pair 10,1 and exit 0
        code, out, err = run(capsys, "verify", "1d", "--grid", grid)
        assert code == 2 and not out and "cannot parse grid" in err

    @pytest.mark.parametrize("grid", ["0,0", "2,1;0,3"])
    def test_grid_pair_named(self, capsys, grid):
        # 0,0 used to report 'sol:0', a space nobody typed
        code, out, err = run(capsys, "verify", "1d", "--grid", grid)
        pair = grid.split(";")[-1]
        assert code == 2 and not out
        line, = err.splitlines()
        assert line.startswith(f"error: grid pair {pair}: ")

    def test_grid_with_2d_is_usage_error(self, capsys):
        # the grid used to be ignored: 87/87 checks passed, exit 0
        code, out, err = run(capsys, "verify", "2d", "--grid", "1,1")
        assert code == 2 and not out and "grid" in err

    @pytest.mark.parametrize("scope", ["1d", "2d", "all"])
    def test_collar_rejected(self, capsys, scope):
        # verify's collars are fixed by the golden table; the flag used to
        # be accepted and ignored
        code, out, err = run(capsys, "verify", scope, "--collar", "off")
        assert code == 2 and not out and "--collar" in err


class TestCollar:
    def test_off_for_same_chair_space_not_border_forcing(self, capsys):
        # the same-space shortcut used to print zeros and exit 0
        code, out, err = run(capsys, "quotient", "chair:X,+", "chair:X,+",
                             "--collar", "off")
        assert code == 1 and not out and "does not force its border" in err

    @pytest.mark.parametrize("argv", [
        ("space", "tm:2,1", "--collar", "off"),
        ("space", "sol:3", "--collar", "on"),
        ("quotient", "tm:2,1", "pd:2,1", "--collar", "on"),
        ("dump", "tm:2,1", "--collar", "off"),
    ])
    def test_on_off_for_1d_space_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and "chair:* spaces" in err

    @pytest.mark.parametrize("argv", [
        ("space", "tm:2,1"),
        ("space", "tm:2,1", "--collar", "auto"),
        ("quotient", "tm:2,1", "pd:2,1", "--collar", "auto"),
        ("dump", "tm:2,1", "--collar", "auto"),
    ])
    def test_auto_for_1d_space_runs(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out


def not_well_defined():
    """The NotWellDefined (with its witness pair of windows) that a tile
    coarsening merging the NE and NW arrows raises."""
    def q(tile):
        a, lab = tile
        return ("N" if a in ("NE", "NW") else a, lab)
    with pytest.raises(NotWellDefined) as exc:
        subst2d.descend_rule(q)
    assert exc.value.witness is not None
    return exc.value


def exactness_failure():
    """The ExactnessFailure (at node "B") of Z -> Z -> Z, both maps 1."""
    g = FgAbGroup(1)
    one = GroupHom(g, g, IntMatrix.identity(1))
    terms = [TowerGroup(g, one)] * 3
    with pytest.raises(ExactnessFailure) as exc:
        limit_les(terms, [one, one], names=["A", "B", "C"])
    assert exc.value.node == "B"
    return exc.value


class TestErrorWitness:
    """Typed errors print the witness or node they carry, in text and in
    --json; these used to print the message alone."""

    @pytest.fixture(params=["not_well_defined", "exactness_failure"])
    def failing(self, request, monkeypatch):
        e = {"not_well_defined": not_well_defined,
             "exactness_failure": exactness_failure}[request.param]()

        def compute_space(name, collar="auto"):
            raise e
        monkeypatch.setattr(catalog, "compute_space", compute_space)
        return e

    def test_text(self, capsys, failing):
        code, out, err = run(capsys, "space", "sol:2")
        assert code == 1 and not out
        line, = err.splitlines()
        assert line.startswith(f"error: {failing}")
        if isinstance(failing, NotWellDefined):
            assert f"witness: {failing.witness!r}" in line
            assert "node:" not in line
        else:
            assert line.endswith("; node: 'B'")
            assert "witness:" not in line

    def test_json(self, capsys, failing):
        code, out, err = run(capsys, "space", "sol:2", "--json")
        assert code == 1 and err.startswith("error: ")
        doc = json.loads(out)
        assert doc["error"] == type(failing).__name__
        assert doc["message"] == str(failing)
        if isinstance(failing, NotWellDefined):
            assert doc["witness"] == json.loads(json.dumps(failing.witness))
            assert doc["node"] is None
        else:
            assert doc["node"] == "B" and doc["witness"] is None

    def test_matrix_witness_json(self, capsys, monkeypatch):
        e = NotWellDefined("matrix does not map relations into relations",
                           witness=IntMatrix.from_rows([[2, 0], [0, 4]]))

        def compute_space(name, collar="auto"):
            raise e
        monkeypatch.setattr(catalog, "compute_space", compute_space)
        code, out, _ = run(capsys, "space", "sol:2", "--json")
        assert code == 1 and json.loads(out)["witness"] == [[2, 0], [0, 4]]

    def test_usage_error_json(self, capsys):
        code, out, _ = run(capsys, "space", "tm:0,1", "--json")
        doc = json.loads(out)
        assert code == 2 and doc["error"] == "InvalidPath"
        assert doc["witness"] is None and doc["node"] is None


class TestMisc:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "dump", "sol:2")
        assert code == 0
        assert "degree 0: 1 cells" in out and "delta_0" in out

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("seconds", ["-3", "0"])
    def test_timeout_not_positive_is_usage_error(self, capsys, seconds):
        code, out, err = run(capsys, "space", "sol:2", "--timeout-sec", seconds)
        assert code == 2 and not out and "N >= 1" in err

    @pytest.mark.parametrize("seconds", ["1_0", "\u0663", "+2", "2147483648",
                                         "99999999999999999999"])
    def test_timeout_outside_grammar_is_usage_error(self, capsys, seconds):
        # int() used to read the first three as 10, 3 and 2 seconds, and
        # signal.alarm ended the last two in an OverflowError traceback
        code, out, err = run(capsys, "space", "sol:2", "--timeout-sec", seconds)
        assert code == 2 and not out
        assert sum("error:" in line for line in err.splitlines()) == 1
        assert "N >= 1" in err

    def test_timeout_largest_alarm_accepted(self):
        assert cli._positive_int("2147483647") == 2 ** 31 - 1

    def test_timeout_without_sigalrm_is_usage_error(self, capsys,
                                                     monkeypatch):
        monkeypatch.delattr(signal, "SIGALRM")
        code, out, err = run(capsys, "space", "sol:2", "--timeout-sec", "60")
        assert code == 2 and not out and "SIGALRM" in err

    def test_timeout_off_main_thread_is_usage_error(self, capsys):
        codes = []
        t = threading.Thread(target=lambda: codes.append(main(
            ["space", "sol:2", "--timeout-sec", "60"])))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        out = capsys.readouterr()
        assert codes == [2] and not out.out and "SIGALRM" in out.err

    def test_timeout_positive_runs(self, capsys):
        code, out, _ = run(capsys, "space", "sol:2", "--timeout-sec", "60")
        assert code == 0
        assert out.strip() == "H^0 = Z; H^1 = Z[1/2]"

    def test_timeout_restores_the_alarm_handler(self, capsys):
        # main used to leave its handler installed, so a caller's own later
        # SIGALRM raised "computation exceeded 5s"
        before = signal.getsignal(signal.SIGALRM)
        code, _, _ = run(capsys, "space", "sol:2", "--timeout-sec", "5")
        assert code == 0
        assert signal.getsignal(signal.SIGALRM) is before


ROOT = Path(__file__).resolve().parents[1]
# stdout block-buffered, as on a pipe by default
ENV = {key: val for key, val in os.environ.items()
       if key != "PYTHONUNBUFFERED"} | {"PYTHONPATH": str(ROOT / "src")}
# the process a CLI query was before run(): main(), then a normal exit
REFERENCE = "import sys; from tilecohom.cli import main; sys.exit(main())"


def process(args, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=ENV,
                          cwd=ROOT, timeout=300)


class TestProcess:
    """`python -m tilecohom.cli` goes through run(): it ends the process
    with os._exit after main() returns, unless a hook is set."""

    def test_long_output_complete(self, capsys):
        # about 330 KB, more than a pipe buffer holds
        p = process(["-m", "tilecohom.cli", "dump", "chair:X,+"])
        code, out, _ = run(capsys, "dump", "chair:X,+")
        assert p.returncode == code == 0 and p.stderr == ""
        assert len(out) > 300_000 and p.stdout == out

    @pytest.mark.parametrize("argv, status", [
        (["space", "tm:2,1"], 0),
        (["space", "chair:X,0", "--collar", "off"], 1),
        (["space", "foo:1"], 2),
        (["--help"], 0),
    ])
    def test_status_and_streams(self, argv, status):
        p = process(["-m", "tilecohom.cli", *argv])
        ref = process(["-c", REFERENCE, *argv])
        assert p.returncode == ref.returncode == status
        assert (p.stdout, p.stderr) == (ref.stdout, ref.stderr)
        if status:
            line, = p.stderr.splitlines()
            assert line.startswith("error: ")

    @pytest.mark.parametrize("argv", [["space", "tm:2,1"],
                                      ["dump", "chair:X,+"]])
    def test_stdout_on_closed_pipe(self, argv):
        def last_stderr_line(args):
            r, w = os.pipe()
            os.close(r)
            try:
                p = process(args, stdout=w)
            finally:
                os.close(w)
            return p.returncode, p.stderr.splitlines()[-1:]
        assert last_stderr_line(["-m", "tilecohom.cli", *argv]) == \
            last_stderr_line(["-c", REFERENCE, *argv])

    def test_profile_still_written(self):
        p = process(["-m", "cProfile", "-m", "tilecohom.cli",
                     "space", "tm:2,1"])
        assert p.returncode == 0
        assert p.stdout.startswith("H^0 = Z; H^1 = Z[1/3] + Z^2\n")
        assert "function calls" in p.stdout

    def test_import_registers_no_atexit_callback(self):
        p = process(["-c", "import atexit; n = atexit._ncallbacks(); "
                     "import tilecohom.cli; print(atexit._ncallbacks() - n)"])
        assert p.returncode == 0 and p.stdout == "0\n"

    @pytest.mark.parametrize("hook, teardown", [
        ("", False),
        ("sys.settrace(lambda *a: None); ", True),
        ("sys.setprofile(lambda *a: None); ", True),
    ])
    def test_teardown_skipped_unless_hooked(self, hook, teardown):
        p = process(["-c", "import atexit, sys; from tilecohom.cli import run; "
                     f"atexit.register(print, 'teardown'); {hook}run()",
                     "space", "tm:2,1"])
        assert p.returncode == 0 and p.stderr == ""
        assert p.stdout == "H^0 = Z; H^1 = Z[1/3] + Z^2\n" + \
            "teardown\n" * teardown


class _Monitoring:
    """A stand-in for sys.monitoring (Python 3.12 and later) with one tool
    registered, under id `tool`, or none."""

    def __init__(self, tool):
        self.tool = tool

    def get_tool(self, tool_id):
        if not 0 <= tool_id <= 5:
            raise ValueError(f"invalid tool {tool_id}")
        return "a tool" if tool_id == self.tool else None


@pytest.mark.parametrize("tool", [None, 0, 1, 2, 5])
def test_run_honours_monitoring_tools(tool, monkeypatch):
    """A tool registered through sys.monitoring, such as coverage's sysmon
    core, counts as a hook: run() then exits through sys.exit, so that the
    tool's exit handlers run.  Without one it ends with os._exit."""
    exits = []
    monkeypatch.setattr(cli, "main", lambda: 3)
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", _Monitoring(tool), raising=False)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
    assert exits == ([3] if tool is None else [])


# parameters: small (most often), past the MAX_IMAGE bound, past int()'s
# 4300 digits, negative, signed, with underscores or blanks, non-ASCII
# digits, junk
_SMALL = st.integers(0, 60).map(str)
_PARAM = st.one_of(
    _SMALL, _SMALL, _SMALL, _SMALL, _SMALL, _SMALL,
    st.integers(10 ** 7, 10 ** 30).map(str),
    st.just("9" * 4301),
    st.integers(-60, -1).map(str),
    st.sampled_from(["+2", "1_0", " 2", "2 ", "\u0663", "\u00b2", "", "x",
                     "0x1", "1.0", "-0", "02"]))
_CHAIR = st.sampled_from(subst2d.SCHEME_NAMES + ("Y,+", "X", "X,+,0", "")) \
    .map("chair:{}".format)
_NAME = st.one_of(
    st.builds("{}:{},{}".format, st.sampled_from(["tm", "pd"]), _PARAM,
              _PARAM),
    st.builds("sol:{}".format, _PARAM),
    _CHAIR,
    st.builds(lambda f, ps: f"{f}:{','.join(ps)}",   # arity, unknown family
              st.sampled_from(["tm", "pd", "sol", "foo", ""]),
              st.lists(_PARAM, max_size=3)),
    st.sampled_from(["tm", "chair", ":", ""]))
_COLLAR = st.sampled_from([[], ["--collar", "auto"], ["--collar", "on"],
                           ["--collar", "off"], ["--collar", "sideways"]])
# --timeout-sec only with values the parser refuses: an accepted one would
# arm a real alarm
_TIMEOUT = st.one_of(st.just([]), st.sampled_from(
    ["0", "-3", "1_0", "+2", " 2", "", "x", "\u0663", "2147483648",
     "99999999999999999999", "9" * 4301]).map(lambda v: ["--timeout-sec", v]))
_GRID = st.lists(st.one_of(st.builds("{},{}".format, _PARAM, _PARAM),
                           st.lists(_PARAM, max_size=3).map(",".join)),
                 max_size=3).map(";".join)
_ARGV = st.one_of(
    st.tuples(st.just(["space"]), _NAME.map(lambda n: [n]), _COLLAR,
              _TIMEOUT),
    st.tuples(st.just(["quotient"]), st.lists(_NAME, min_size=2, max_size=2),
              _COLLAR, _TIMEOUT),
    st.tuples(st.just(["path"]),
              st.tuples(st.one_of(_CHAIR, _CHAIR, _NAME),
                        st.one_of(st.text("ABC", min_size=1, max_size=4),
                                  st.text("ABCa ", max_size=3))).map(list),
              _COLLAR, _TIMEOUT),
    st.tuples(st.just(["dump"]), _NAME.map(lambda n: [n]), _COLLAR,
              _TIMEOUT),
    st.tuples(st.just(["verify", "1d"]),
              st.one_of(st.just([]), _GRID.map(lambda g: ["--grid", g])),
              _TIMEOUT))


@settings(max_examples=300, deadline=None)
@given(_ARGV, st.booleans())
def test_fuzz_main(parts, as_json):
    """Over the grammar, main() ends with 0, 1 or 2, and a failure is one
    error: line on stderr, never a traceback."""
    argv = [a for part in parts for a in part] + ["--json"] * as_json
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    err = err.getvalue()
    assert "Traceback" not in err, argv
    if code == 1 and argv[0] == "verify" and not err:   # a failed check
        assert "FAIL" in out.getvalue() or '"ok": false' in out.getvalue()
    elif code:
        assert sum("error:" in line for line in err.splitlines()) == 1, argv
