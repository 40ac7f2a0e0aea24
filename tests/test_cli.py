"""Command-line interface: output grammar, JSON documents, exit codes."""
import json
import signal
import threading

import pytest

from tilecohom import catalog, subst2d
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
    g = FgAbGroup.free(1)
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
