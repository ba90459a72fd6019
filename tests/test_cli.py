import csv
import errno
import io
import json
import re
import struct
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import wente_index.cli as cli_mod
from wente_index.bounds import SUBSPACE_SETS, ConsistencyError
from wente_index.cli import main
from wente_index.surface import CATALOG, build_surface, potential_extrema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--surface", "3/2", "--m", "181", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 4
        assert "method" not in payload["config"]
        (report,) = payload["reports"]
        assert report["index_estimate"] == [10, 11]
        assert report["m_used"] == 181
        assert payload["config"]["surface"] == "3/2"

    def test_repeated_runs_byte_identical(self, capsys):
        args = ("report", "--surface", "4/3", "--m", "25", "--grid", "256")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_default_m_is_reference_size(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--surface", "4/3", "--grid", "256")
        payload = json.loads(out)
        assert payload["reports"][0]["m_used"] == 81

    @pytest.mark.parametrize("command", ["report", "table3"])
    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_nonpositive_m_is_usage_error(self, capsys, command, m):
        with pytest.raises(SystemExit) as info:
            main([command, "--surface", "3/2", "--m", m])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["report", "table3"])
    def test_nonpositive_jobs_is_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([command, "--surface", "3/2", "--jobs", "-1"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--m", "1000000000"],
            ["subspace", "--indices", "1,100000000"],
            ["subspace", "--indices", "1,100000000000000"],
            ["report", "--m", str(10**155)],
            ["report", "--m", str(10**200)],
        ],
    )
    def test_size_beyond_memory_exits_before_enumerating(self, capsys, monkeypatch, argv):
        # at once at any size: the shell count is a closed form and the
        # guard's byte counts are integers, so neither a long loop nor a
        # float overflow comes first
        import wente_index.assembly as assembly_mod

        def never(*args, **kwargs):
            raise AssertionError("enumerated despite the guard")

        monkeypatch.setattr(assembly_mod, "enumerate_basis", never)
        monkeypatch.setattr(assembly_mod, "_physical_memory", lambda: 8 * 2**30)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main([argv[0], "--surface", "3/2", *argv[1:]])
        assert time.perf_counter() - start < 1.0
        assert info.value.code == 2
        assert "at most 12 symmetry blocks" in capsys.readouterr().err

    def test_method_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "3/2", "--method", "fourier"])
        assert info.value.code == 2

    def test_unreduced_fraction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "9/9"])
        assert info.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
    def test_bad_zero_tol_is_usage_error(self, capsys, tol):
        # nan counted no eigenvalue negative; a negative band moved the
        # "negative" threshold above zero
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "3/2", "--m", "41", f"--zero-tol={tol}"])
        assert info.value.code == 2
        assert "zero_tol must be a finite number >= 0" in capsys.readouterr().err

    def test_bad_zero_tol_fails_before_any_report(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("full_report ran")

        monkeypatch.setattr(cli_mod, "full_report", never)
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "all", "--zero-tol", "nan"])
        assert info.value.code == 2

    @pytest.mark.parametrize("grid", ["100", "32", "128x96"])
    def test_grid_not_a_power_of_two_is_usage_error(self, capsys, grid):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "3/2", "--m", "41", "--grid", grid])
        assert info.value.code == 2
        assert "powers of two >= 64" in capsys.readouterr().err

    def test_too_coarse_grid_names_the_grid(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "3/2", "--m", "2113", "--grid", "64"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "cell grid 64x64" in err and "--grid 128" in err

    @pytest.mark.parametrize("fault", [ValueError, np.linalg.LinAlgError, ConsistencyError])
    def test_numerical_fault_exits_one(self, capsys, monkeypatch, fault):
        def faulty(*args, **kwargs):
            raise fault("matrix is not symmetric")

        monkeypatch.setattr(cli_mod, "full_report", faulty)
        code, out, err = run_cli(capsys, "report", "--surface", "3/2", "--m", "41")
        assert code == 1
        assert out == ""
        assert err == "error: matrix is not symmetric\n"

    def test_warning_is_one_stderr_line(self, capsys):
        code, out, err = run_cli(capsys, "report", "--surface", "4/3", "--m", "41")
        assert code == 0
        assert json.loads(out)["reports"][0]["m_used"] == 41
        assert err == "warning: basis size 41 does not complete a shell (even parity)\n"

    def test_warning_precedes_the_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "4/3", "--m", "2000", "--grid", "64"])
        assert info.value.code == 2
        warning, error = capsys.readouterr().err.splitlines()
        assert warning == "warning: basis size 2000 does not complete a shell (even parity)"
        assert error.startswith("error: cell grid 64x64")

    @pytest.mark.parametrize("big_h", ["nan", "inf"])
    def test_non_finite_mean_curvature_is_usage_error(self, capsys, big_h):
        with pytest.raises(SystemExit) as info:
            main(["report", "--surface", "3/2", "-H", big_h])
        assert info.value.code == 2
        assert "mean curvature must be positive and finite" in capsys.readouterr().err

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--surface", "3/2", "--m", "41", "--grid", "256", "--format", "text"
        )
        assert "index estimate" in out
        assert "3/2" in out

    def test_fan_out_keeps_catalog_order(self, capsys):
        # 25 completes a shell for both lattice parities
        code, out, _ = run_cli(
            capsys, "report", "--surface", "all", "--m", "25", "--grid", "256", "--jobs", "2"
        )
        assert code == 0
        payload = json.loads(out)
        from wente_index.surface import CATALOG

        labels = [r["surface"] for r in payload["reports"]]
        assert labels == [f"{ell}/{n}" for ell, n, _ in CATALOG]


class TestBounds:
    def test_all_surfaces(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--format", "json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 19
        row = next(r for r in payload["rows"] if r["surface"] == "73/72")
        assert (row["sandwich_lower"], row["sandwich_upper"]) == (1962, 2353)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--surface", "3/2", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "sandwich_lower" in lines[0]

    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("-H", "1e308", "no finite positive periods"),
            ("-H", "1e-300", "mode box"),
            ("--theta", "1e-9", "mode box"),
        ],
    )
    def test_out_of_range_surface_is_usage_error(self, capsys, monkeypatch, option, value, message):
        import wente_index.basis as basis_mod

        # 16 MiB, so the guard and not this machine's memory decides; the
        # V_max box of theta = 1e-9 holds 1.74 million waves (44 MB)
        monkeypatch.setattr(basis_mod, "_physical_memory", lambda: 2**24)
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--surface", "3/2", option, value])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_sandwich_refusal_names_the_v_max_box(self, capsys, monkeypatch):
        # both counts come from one stream up to V_max, so the refused box is
        # that one and not the smaller V_min box
        import re

        import wente_index.basis as basis_mod

        # 16 MiB, below the 44 MB box of V_max
        monkeypatch.setattr(basis_mod, "_physical_memory", lambda: 2**24)
        v_min, v_max = potential_extrema(build_surface(3, 2, 0.5, 1e-9))
        with pytest.raises(SystemExit) as info:
            main(["bounds", "--surface", "3/2", "--theta", "1e-9"])
        assert info.value.code == 2
        limit = float(re.search(r"alpha < (\S+) needs", capsys.readouterr().err).group(1))
        # the box reaches BOUNDARY_TOL past the cutoff on both sides of the band
        assert limit == pytest.approx(v_max + 2e-9, abs=1e-11)
        assert limit - (v_min + 2e-9) > 5e-10


class TestTables:
    def test_table2_all_rows_pass(self, capsys):
        code, out, _ = run_cli(capsys, "table2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert len(payload["rows"]) == 19

    def test_table3_without_reference_row_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["table3", "--surface", "21/20"])
        assert info.value.code == 2
        assert "no reference row for 21/20; table3 has rows for 3/2, 4/3" in capsys.readouterr().err

    def test_table2_text_lists_failed_cells(self, capsys):
        # at H = 2 the potential is four times that of H = 1/2, so V_min = 8
        code, out, _ = run_cli(capsys, "table2", "-H", "2", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["     3/2  DIFF", "          x_period: computed=1.2778039015931815 reference=2.56"]
        assert "          v_min: computed=8.0 reference=2.0" in lines
        assert lines[-1] == "some cells differ"

    def test_table3_text_lists_failed_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table3", "--surface", "8/7", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("     8/7  m=81   k=34   neg=(") and lines[0].endswith("  DIFF")
        assert lines[1] == "          galerkin_k: computed=34 reference=35"
        assert lines[-1] == "some cells differ"

    def test_table3_text_passing_row(self, capsys):
        code, out, _ = run_cli(capsys, "table3", "--surface", "4/3", "--format", "text")
        assert code == 0
        first, verdict = out.splitlines()
        assert first.startswith("     4/3  m=81   k=10   ") and first.endswith(")  ok")
        assert verdict == "all rows pass"

    def test_table3_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table3", "--surface", "4/3", "--format", "json")
        payload = json.loads(out)
        (row,) = payload["rows"]
        assert row["pass"]["galerkin_k"] is True
        assert row["computed"]["galerkin_k"] == 10


class TestSubspace:
    def test_published_set_w43(self, capsys):
        code, out, _ = run_cli(
            capsys, "subspace", "--surface", "4/3", "--grid", "256", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["negative_definite"] is True
        assert payload["implied_lower"] == 9
        matrix = np.array(payload["matrix"])
        assert matrix.shape == (10, 10)
        assert matrix[0, 8] == pytest.approx(-3.23, abs=0.05)
        rounded = np.array(payload["matrix_3sf"])
        assert rounded[0, 0] == pytest.approx(-5.17, abs=0.005)

    def test_empty_indices_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["subspace", "--surface", "3/2", "--indices", ""])
        assert info.value.code == 2

    @pytest.mark.parametrize("indices", ["1,1", "0,1"])
    def test_repeated_or_nonpositive_indices_are_usage_errors(self, capsys, indices):
        with pytest.raises(SystemExit) as info:
            main(["subspace", "--surface", "3/2", "--indices", indices])
        assert info.value.code == 2

    def test_explicit_indices(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "subspace", "--surface", "3/2", "--indices", "1,2,3", "--grid", "256",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["indices"] == [1, 2, 3]
        assert payload["negative_definite"] is True


class TestCache:
    def test_cold_and_warm_runs_identical(self, capsys, tmp_path):
        args = (
            "report", "--surface", "3/2", "--m", "41", "--grid", "256",
            "--cache-dir", str(tmp_path),
        )
        _, cold, _ = run_cli(capsys, *args)
        assert list(tmp_path.glob("*.wntpot"))
        _, warm, _ = run_cli(capsys, *args)
        assert cold == warm

    def test_truncated_cache_file_is_rewritten(self, capsys, tmp_path):
        args = (
            "report", "--surface", "3/2", "--m", "41", "--grid", "256",
            "--cache-dir", str(tmp_path),
        )
        _, cold, _ = run_cli(capsys, *args)
        (path,) = tmp_path.glob("*.wntpot")
        intact = path.read_bytes()
        path.write_bytes(intact[: len(intact) // 2])
        code, again, _ = run_cli(capsys, *args)
        assert code == 0
        assert again == cold
        assert path.read_bytes() == intact

    def test_smaller_m_after_larger_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        args = ("report", "--surface", "3/2", "--grid", "256", "--m")
        _, uncached, _ = run_cli(capsys, *args, "41")
        monkeypatch.setenv("WENTE_CACHE_DIR", str(tmp_path))
        run_cli(capsys, *args, "181")
        _, after_larger, _ = run_cli(capsys, *args, "41")
        assert after_larger == uncached

    def test_inspect_and_clear(self, capsys, tmp_path):
        run_cli(
            capsys,
            "report", "--surface", "3/2", "--m", "41", "--grid", "256",
            "--cache-dir", str(tmp_path),
        )
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["surface"] == "3/2"
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert not list(tmp_path.glob("*.wntpot"))

    def test_inspect_lists_unreadable_files(self, capsys, tmp_path):
        args = ("report", "--surface", "3/2", "--m", "41", "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        (good,) = tmp_path.glob("*.wntpot")
        raw = good.read_bytes()
        # under the names of other keys: a file from another cache version and
        # one cut short; and a file whose name holds no key
        other_version = good.name.replace("_c", "_c1", 1)
        truncated = good.name.replace("_c", "_c2", 1)
        (tmp_path / other_version).write_bytes(raw[:6] + (1).to_bytes(2, "little") + raw[8:])
        (tmp_path / truncated).write_bytes(raw[:20])
        (tmp_path / "a_keyless.wntpot").write_bytes(raw)
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        assert code == 0
        rows = {r["file"]: r for r in json.loads(out)["rows"]}
        assert "unsupported cache version 1" in rows[other_version]["unreadable"]
        assert "12 coefficient bytes, the name's shape holds" in rows[truncated]["unreadable"]
        assert "the name holds no cache key" in rows["a_keyless.wntpot"]["unreadable"]
        assert rows[good.name]["surface"] == "3/2" and "unreadable" not in rows[good.name]
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path), "--format", "text")
        assert code == 0
        assert f"{truncated}  (unreadable: " in out
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "removed 4" in out
        assert not list(tmp_path.glob("*.wntpot"))

    def test_a_version_2_file_is_a_miss_and_rewritten(self, capsys, tmp_path):
        # the layout before version 3 repeated the key and the shape in a header
        args = ("report", "--surface", "3/2", "--m", "41", "--cache-dir", str(tmp_path))
        _, cold, _ = run_cli(capsys, *args)
        (path,) = tmp_path.glob("*.wntpot")
        raw = path.read_bytes()
        p = build_surface(3, 2)
        shape = [int(v) for v in path.name.removesuffix(".wntpot").rsplit("_c", 1)[1].split("x")]
        header = struct.pack("<6sH i i d d i i i i", b"WNTPOT", 2, 3, 2, p.H, p.theta_degrees, 256, 256, *shape)
        path.write_bytes(header + raw[8:])
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        assert code == 0
        assert "unsupported cache version 2" in json.loads(out)["rows"][0]["unreadable"]
        code, again, _ = run_cli(capsys, *args)
        assert code == 0 and again == cold
        assert path.read_bytes() == raw

    def test_a_directory_named_like_an_entry_is_not_one(self, capsys, tmp_path):
        # only regular files are cache entries: inspect does not list the
        # directory, and clear removes the files around it and leaves it
        run_cli(capsys, "report", "--surface", "3/2", "--m", "41", "--cache-dir", str(tmp_path))
        (good,) = tmp_path.glob("*.wntpot")
        (tmp_path / "a_dir.wntpot").mkdir()
        (tmp_path / "a_dir.wntpot" / "inside").write_bytes(b"kept")
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))
        assert code == 0
        assert [r["file"] for r in json.loads(out)["rows"]] == [good.name]
        code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
        assert code == 0
        assert out == f"removed 1 cached table(s) from {tmp_path}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a_dir.wntpot"]
        assert (tmp_path / "a_dir.wntpot" / "inside").read_bytes() == b"kept"

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WENTE_CACHE_DIR", str(tmp_path))
        run_cli(capsys, "report", "--surface", "3/2", "--m", "41", "--grid", "256")
        assert list(tmp_path.glob("*.wntpot"))

    def test_option_overrides_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WENTE_CACHE_DIR", str(tmp_path / "env"))
        run_cli(capsys, "report", "--surface", "3/2", "--m", "41", "--cache-dir", str(tmp_path / "opt"))
        code, out, _ = run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path / "opt"))
        assert code == 0 and json.loads(out)["rows"]
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize(
        "argv", [("report", "--surface", "3/2", "--m", "41"), ("cache", "inspect"), ("cache", "clear")],
        ids=["report", "inspect", "clear"],
    )
    def test_unusable_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, under, source):
        # a file, or a path under one, cannot hold the cache: one error line naming it, exit 2
        blocker = tmp_path / "file"
        blocker.write_bytes(b"not a directory")
        target = str(blocker / "x" if under else blocker)
        monkeypatch.delenv("WENTE_CACHE_DIR", raising=False)
        if source == "env":
            monkeypatch.setenv("WENTE_CACHE_DIR", target)
        else:
            argv = (*argv, "--cache-dir", target)
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cache directory {target} is unusable: ") and err.count("\n") == 1
        assert blocker.read_bytes() == b"not a directory"

    @pytest.mark.parametrize("action", ["report", "clear"])
    def test_unwritable_cache_dir_is_usage_error(self, capsys, tmp_path, monkeypatch, action):
        # a directory that takes no writes fails the table's write or the
        # clear's unlink: one error line naming it, exit 2 (faked, since
        # chmod cannot keep root from writing)
        monkeypatch.delenv("WENTE_CACHE_DIR", raising=False)

        def refuse(*args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied")

        if action == "report":
            monkeypatch.setattr(tempfile, "mkstemp", refuse)
            argv = ["report", "--surface", "3/2"]
        else:
            run_cli(capsys, "report", "--surface", "3/2", "--m", "41", "--cache-dir", str(tmp_path))
            monkeypatch.setattr(Path, "unlink", refuse)
            argv = ["cache", "clear"]
        kept = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as info:
            main([*argv, "--cache-dir", str(tmp_path)])
        assert info.value.code == 2
        assert capsys.readouterr() == ("", f"error: cache directory {tmp_path} is unusable: Permission denied\n")
        assert sorted(tmp_path.iterdir()) == kept

    def test_cache_without_dir_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("WENTE_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit) as info:
            main(["cache", "inspect"])
        assert info.value.code == 2


# An option of another subcommand that this one does not read.
IGNORED_OPTIONS = [
    ("bounds", "--cache-dir", "x"),
    ("bounds", "--jobs", "1"),
    ("bounds", "--zero-tol", "0"),
    ("table2", "--surface", "3/2"),
    ("table2", "--theta", "10"),
    ("table2", "--cache-dir", "x"),
    ("table2", "--jobs", "1"),
    ("table2", "--zero-tol", "0"),
    ("table3", "--theta", "10"),
    ("subspace", "--jobs", "1"),
    ("subspace", "--zero-tol", "0"),
]


@pytest.mark.parametrize("command,option,value", IGNORED_OPTIONS)
def test_option_a_command_does_not_read_is_rejected(capsys, command, option, value):
    with pytest.raises(SystemExit) as info:
        main([command, option, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err



def test_every_payload_carries_the_envelope(capsys, tmp_path):
    argvs = [
        ["report", "--surface", "4/3", "--m", "25"],
        ["bounds", "--surface", "3/2"],
        ["table2"],
        ["table3", "--surface", "4/3", "--m", "25"],
        ["subspace", "--surface", "3/2", "--indices", "1,2,3"],
        ["cache", "inspect", "--cache-dir", str(tmp_path)],
    ]
    assert sorted(argv[0] for argv in argvs) == sorted(cli_mod._COMMANDS)
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 4, argv
        assert payload["version"] == cli_mod.__version__, argv


def _strict_json(text: str):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


STRICT_ARGVS = (
    [["report", "--surface", f"{ell}/{n}", "--jobs", "1"] for ell, n, _ in CATALOG]
    + [["report", "--surface", "all"], ["report", "--surface", "3/2", "--m", "5"]]
    + [["bounds"], ["table2"], ["table3", "--surface", "all"]]
    + [["subspace", "--surface", label] for label in SUBSPACE_SETS]
)


@pytest.mark.filterwarnings("ignore:basis size")
@pytest.mark.parametrize("argv", STRICT_ARGVS, ids=" ".join)
def test_json_is_strict(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    _strict_json(out)


def test_json_writes_a_non_finite_float_as_null(capsys, tmp_path):
    # 3/2 at m = 5 has no positive eigenvalue above its negative block; the
    # cache listing holds a readable and an unreadable table
    argv = ["report", "--surface", "3/2", "--m", "5", "--cache-dir", str(tmp_path)]
    (report,) = _strict_json(run_cli(capsys, *argv)[1])["reports"]
    assert report["first_positive_six"] == [None, None]
    assert "nan;nan" in run_cli(capsys, *argv, "--format", "csv")[1]
    (tmp_path / "pot_bad.wntpot").write_bytes(b"WNT")
    rows = _strict_json(run_cli(capsys, "cache", "inspect", "--cache-dir", str(tmp_path))[1])["rows"]
    assert [r["file"] for r in rows if "unreadable" in r] == ["pot_bad.wntpot"] and len(rows) > 1


def test_no_negative_eigenvalue_is_an_empty_negative_range(capsys):
    # a zero band wider than the spectrum leaves k = 0: no negatives, so no range, not (0, 0)
    argv = ["report", "--surface", "3/2", "--zero-tol", "1e300"]
    (report,) = _strict_json(run_cli(capsys, *argv)[1])["reports"]
    assert (report["galerkin_k"], report["negative_range"]) == (0, [None, None])
    assert "negative range           : (nan, nan)" in run_cli(capsys, *argv, "--format", "text")[1]


@pytest.mark.parametrize("argv", [["subspace", "--surface", "3/2", "--indices", "1,2,3"], ["cache", "inspect"]])
def test_single_object_csv_carries_the_envelope(capsys, tmp_path, argv):
    # a payload without rows is one CSV row holding every field; row tables
    # print their rows only
    code, out, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path), "--format", "csv")
    assert code == 0
    (fields,) = csv.DictReader(io.StringIO(out))
    assert fields["schema_version"] == "4"
    assert fields["version"] == cli_mod.__version__


def _readme_option_table() -> dict[str, list[str]]:
    """command -> the backquoted entries of its row in README's option table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| (.+) \|$", text, re.M)
    return {command: re.findall(r"`([^`]+)`", cell) for command, cell in rows}


def test_readme_option_table_matches_the_parser():
    expected = {}
    for command, (_, _, options) in cli_mod._COMMANDS.items():
        expected[command] = []
        for option in options:
            flags, kwargs = cli_mod._OPTIONS[option]
            # an option by its first flag, a positional by its choices
            expected[command] += [flags[0]] if flags[0].startswith("-") else list(kwargs["choices"])
    assert _readme_option_table() == expected
