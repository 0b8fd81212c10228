import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import urania
from conftest import reseal
from urania import (
    DomainError,
    OpCounter,
    TableParseError,
    TableSet,
    build_double_entry,
    build_planet_table,
    calculation_census,
    census_line,
    compile_plan,
    geocentric_at,
    geocentric_at_table,
    lookup_planet,
    position_since_aphelion,
    read_table,
    sweep,
    table_filename,
    wrap_diff_deg,
    write_table,
)
from urania import evaluate
from urania.cli import main
from urania.dataset import elements_row
from urania.evaluate import phase_days
from urania.opcount import _FIELDS

ELEMENTS_HEADER = "name,a_au,e,i_deg,Omega_deg,omega_deg,P_days,T_aph_jd"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def table_dir(tmp_path, capsys):
    d = tmp_path / "tables"
    code, _, err = run(
        capsys, "gen", "--all", "--double", "16x16", "--table-dir", str(d), "--no-timestamp"
    )
    assert code == 0, err
    return d


def synthetic_csv(tmp_path):
    path = tmp_path / "synthetic.csv"
    path.write_text(
        "\n".join(
            [
                ELEMENTS_HEADER,
                "circ,2.0,0.0,0.0,0.0,0.0,800.0,2451545.0",
                "earth,1.0,0.0,0.0,0.0,0.0,320.0,2451545.0",
            ]
        )
        + "\n"
    )
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


BODIES = ["mercury", "venus", "earth", "mars", "jupiter", "saturn"]
ALL_FILES = [f"{n}.single.tbl" for n in BODIES] + [
    f"{n}.earth.double.tbl" for n in BODIES if n != "earth"]


@pytest.mark.parametrize("argv, names, step, shape, cells, files", [
    (["--planet", "mars", "--step-days", "1"], ["mars"], 1.0, None, 0, ["mars.single.tbl"]),
    (["--planet", "mars", "--double", "16x16"], ["mars"], 1.0, (16, 16), 256,
     ["mars.single.tbl", "mars.earth.double.tbl"]),
    # every body at a 2-day step: one solve per row and per grid line
    (["--all", "--double", "8x8", "--step-days", "2"], BODIES, 2.0, (8, 8), 320, ALL_FILES),
], ids=["single", "double", "all-unshared"])
def test_gen_writes_its_plan_and_prints_its_census_line(
        tmp_path, capsys, dataset, argv, names, step, shape, cells, files):
    d = tmp_path / "t"
    code, out, _ = run(capsys, "gen", *argv, "--table-dir", str(d), "--no-timestamp")
    assert code == 0
    census = calculation_census(compile_plan(dataset, names, step, shape))
    assert census["cells"] == cells
    assert out.splitlines() == [f"wrote {d / name}" for name in files] + [census_line(census)]
    assert sorted(p.name for p in d.iterdir()) == sorted(files)


@pytest.mark.parametrize("config", [
    ["--all", "--double", "64x4"],
    ["--planet", "saturn", "--planet", "mercury", "--step-days", "20"],
    ["--planet", "mars", "--step-days", "1e-300"],  # over 2**20 rows
])
def test_gen_bad_config_writes_nothing(tmp_path, capsys, config):
    code, _, err = run(capsys, "gen", *config, "--table-dir", str(tmp_path), "--no-timestamp")
    assert code == 2
    assert "8x8" in err or "P/8" in err
    assert list(tmp_path.glob("*.tbl")) == []


def test_gen_requires_selection(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--table-dir", str(tmp_path))
    assert code == 2
    assert "--planet" in err or "--all" in err


def test_gen_unknown_planet(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--planet", "vulcan", "--table-dir", str(tmp_path))
    assert code == 2
    assert "vulcan" in err


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def test_query_direct_matches_engine(capsys, dataset):
    code, out, _ = run(capsys, "query", "--mode", "direct", "--planet", "mars",
                       "--jd", "2451545.0", "--no-timestamp")
    assert code == 0
    want = geocentric_at(dataset["mars"], dataset["earth"], 2451545.0)
    assert f"lambda: {want.lam:.4f}" in out
    assert f"beta: {want.beta:.4f}" in out
    assert f"delta: {want.delta:.6f}" in out


def test_query_direct_counts_only_with_count_ops(capsys, monkeypatch):
    args = ("query", "--mode", "direct", "--planet", "saturn", "--jd", "2451545.0",
            "--no-timestamp")
    _, counted, _ = run(capsys, *args, "--count-ops")

    def refuse(*_):
        raise AssertionError("counted chain used without --count-ops")

    monkeypatch.setattr("urania.evaluate.counted_query", refuse)
    code, plain, _ = run(capsys, *args)
    assert code == 0
    assert plain == "".join(line for line in counted.splitlines(True) if not line.startswith("ops:"))


# Runs cli.main on its arguments in a fresh interpreter (nothing, given
# none), then prints the names in sys.modules to stderr.
_FRESH_MAIN = (
    "import sys\n"
    "status = 0\n"
    "if len(sys.argv) > 1:\n"
    "    from urania.cli import main\n"
    "    status = main(sys.argv[1:])\n"
    "print(*sys.modules, file=sys.stderr)\n"
    "sys.exit(status)\n"
)
# What a plain query of either mode leaves unloaded: the counting machinery,
# dataclasses and what it pulls in, the --date path and other commands' code.
_NOT_FOR_A_PLAIN_QUERY = {"dataclasses", "inspect", "ast", "datetime", "urania.opcount",
                          "urania.compare", "urania.juliandate"}
# The urania modules a plain query loads: a table query loads neither the
# direct chain (kepler, geocentric) nor the compiler (tables), and a direct
# query no table module. --count-ops adds opcount, and evaluate's
# counted_query to a direct query.
_SHARED = {"urania.angles", "urania.cli", "urania.dataset", "urania.errors"}
_LOADS = {"table": _SHARED | {"urania.evaluate", "urania.tableio"},
          "direct": _SHARED | {"urania.geocentric", "urania.kepler"}}


def _fresh_main(*argv):
    """(stdout, loaded module names) of ``_FRESH_MAIN`` run on ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(Path(urania.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout, set(out.stderr.split())


def _transcendental_calls(module: str) -> list[int]:
    """Lines of ``module``'s source that call a function opcount tallies as
    transcendental, by name or as an attribute (``math.sin``)."""
    names = {name for name, field in _FIELDS.items() if field == "transcendental_calls"}
    tree = ast.parse(Path(importlib.util.find_spec(module).origin).read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]


@pytest.mark.parametrize("mode", ["table", "direct"])
def test_plain_query_imports_only_its_own_mode(table_dir, mode):
    _, bare = _fresh_main()
    args = ("query", "--mode", mode, "--planet", "mars", "--jd", "2451545.0",
            "--table-dir", str(table_dir), "--no-timestamp")
    out, loaded = _fresh_main(*args)
    assert "lambda: " in out
    assert (loaded - bare) & _NOT_FOR_A_PLAIN_QUERY == set()
    modules = {m for m in loaded if m.startswith("urania.")}
    assert modules == _LOADS[mode]
    if mode == "table":  # and none of them calls a transcendental function
        assert _transcendental_calls("urania.kepler") != []  # the scan finds what it seeks
        assert {m: _transcendental_calls(m) for m in modules} == dict.fromkeys(modules, [])
    out, loaded = _fresh_main(*args, "--count-ops")
    assert "ops: adds=" in out
    counting = {"urania.opcount"} | ({"urania.evaluate"} if mode == "direct" else set())
    assert {m for m in loaded if m.startswith("urania.")} == _LOADS[mode] | counting


def test_validate_loads_no_counting_machinery(table_dir):
    _, bare = _fresh_main()
    out, loaded = _fresh_main("validate", "--table-dir", str(table_dir))
    assert out.splitlines()[-1] == "all 3 checks passed"
    assert "urania.opcount" not in loaded - bare


def test_query_table_counts_only_with_count_ops(capsys, monkeypatch, table_dir):
    args = ("query", "--mode", "table", "--planet", "saturn", "--jd", "2451545.0",
            "--heliocentric", "--table-dir", str(table_dir), "--no-timestamp")
    _, counted, _ = run(capsys, *args, "--count-ops")

    def refuse(*_):
        raise AssertionError("counted table path used without --count-ops")

    monkeypatch.setattr("urania.opcount.twin", refuse)
    code, plain, _ = run(capsys, *args)
    assert code == 0
    assert plain == "".join(line for line in counted.splitlines(True) if not line.startswith("ops:"))


@pytest.mark.parametrize("mode", ["table", "direct"])
def test_query_count_ops_tallies_the_geocentric_query_only(capsys, table_dir, mode):
    args = ("query", "--mode", mode, "--planet", "mars", "--jd", "2451545.0", "--count-ops",
            "--table-dir", str(table_dir), "--no-timestamp")

    def ops_line(*extra):
        code, out, _ = run(capsys, *args, *extra)
        assert code == 0
        return next(line for line in out.splitlines() if line.startswith("ops:"))

    assert ops_line("--heliocentric") == ops_line()


@pytest.mark.parametrize("mode", ["table", "direct"])
def test_query_refuses_jds_beyond_the_elapsed_bound(capsys, table_dir, mode):
    # Every default body's aphelion epoch is within 1e4 days of J2000, and
    # the bound on |jd - T_aph| is 2**36 = 6.87e10 days.
    args = ("query", "--mode", mode, "--planet", "jupiter", "--table-dir", str(table_dir),
            "--no-timestamp")
    for jd in ("2451545.0", "6.8e10", "-6.8e10"):
        code, out, _ = run(capsys, *args, f"--jd={jd}")
        assert code == 0
        assert "lambda: " in out
    for jd in ("6.9e10", "-6.9e10", "1e20", "1e300"):
        code, out, err = run(capsys, *args, f"--jd={jd}")
        assert code == 2
        assert out == ""
        assert "outside the valid domain" in err
    code, out, err = run(capsys, *args, "--jd=nan")
    assert (code, out) == (2, "") and "--jd must be finite" in err


def test_direct_heliocentric_radius_is_the_solved_radius(capsys, dataset):
    # heliocentric_xyz returns no radius: the line takes it from kepler.radius
    for planet, jd in (("mars", 2451545.0), ("mercury", 2400000.5), ("saturn", 2500000.25)):
        code, out, _ = run(capsys, "query", "--mode", "direct", "--planet", planet,
                           "--jd", str(jd), "--heliocentric", "--json", "--no-timestamp")
        assert code == 0
        el = dataset[planet]
        assert json.loads(out)["helio_r"] == position_since_aphelion(el, jd - el.T_aph)[1]


def test_query_date_equals_jd(capsys):
    args = ("query", "--mode", "direct", "--planet", "mercury", "--json", "--no-timestamp")
    jd = repr(2451544.5 + (((6 * 60 + 30) * 60 + 15) + 0.5) / 86400.0)
    assert run(capsys, *args, "--jd", jd) == run(capsys, *args, "--date", "2000-01-01T06:30:15.500")
    for date in ("noon", "2000-01-01T12:00+01:00"):
        code, out, err = run(capsys, *args, "--date", date)
        assert (code, out) == (2, "") and ("ISO date-time" in err or "naive" in err)


def test_query_table_mode(capsys, table_dir):
    code, out, _ = run(capsys, "query", "--mode", "table", "--planet", "jupiter",
                       "--jd", "2451545.0", "--count-ops", "--table-dir", str(table_dir),
                       "--no-timestamp")
    assert code == 0
    assert "transcendental=0" in out
    _, direct_out, _ = run(capsys, "query", "--mode", "direct", "--planet", "jupiter",
                           "--jd", "2451545.0", "--no-timestamp")

    def grab(text, key):
        return float(next(l for l in text.splitlines() if l.startswith(key)).split()[-1])

    # coarse 16x16 grid still lands within the sanity ceiling of direct mode
    assert abs(grab(out, "lambda:") - grab(direct_out, "lambda:")) < 0.5


def test_query_table_missing_tables(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                       "--jd", "2451545.0", "--table-dir", str(empty))
    assert code == 3
    assert "gen" in err


def truncate(path):
    path.write_bytes(path.read_bytes()[: -5 * 24])  # drop the last five rows or cells


def test_query_table_reads_only_its_table(capsys, table_dir):
    args = ("query", "--mode", "table", "--planet", "mars", "--jd", "2451545.0",
            "--table-dir", str(table_dir), "--json", "--no-timestamp")
    _, clean, _ = run(capsys, *args)
    truncate(table_dir / "mars.single.tbl")
    truncate(table_dir / "saturn.earth.double.tbl")
    code, out, err = run(capsys, *args)
    assert code == 0, err
    assert out == clean


def test_query_heliocentric_reads_corrupt_single(capsys, table_dir):
    truncate(table_dir / "mars.single.tbl")
    code, _, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                       "--jd", "2451545.0", "--heliocentric", "--table-dir", str(table_dir))
    assert code == 3
    assert "mars.single.tbl" in err


def test_query_rejects_renamed_double(capsys, table_dir):
    (table_dir / "mars.earth.double.tbl").write_bytes(
        (table_dir / "venus.earth.double.tbl").read_bytes()
    )
    code, out, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                         "--jd", "2451545.0", "--table-dir", str(table_dir))
    assert code == 3
    assert out == ""
    assert "venus.earth.double.tbl" in err


def test_query_table_rejects_v1_tables(capsys, table_dir):
    older = {
        "v1": "# urania-table v1\n# kind=double\n# name=mars,earth=earth\n"
              "# columns: iu,iv,lambda,beta,delta\n0,0,121.5,1.25,2.5\n",
        "v2": "# urania-table v2\n# kind=double\n# name=mars,earth=earth\n"
              "# n_u=8 n_v=8\n# payload: floats=192 crc32=00000000\n",
        "v3": "# urania-table v3\n# kind: double\n# shape: 8x8\n"
              "# payload: floats=192 crc32=00000000\n",
    }
    for version, text in older.items():
        (table_dir / "mars.earth.double.tbl").write_text(text)
        code, out, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                             "--jd", "2451545.0", "--table-dir", str(table_dir))
        assert code == 3
        assert out == ""
        assert version in err and "urania gen" in err


def test_query_negative_precision_rejected(capsys):
    # and one over 17 places, refused before it formats a line of that length
    for precision in ("-1", "18", "100000000000"):
        code, out, err = run(capsys, "query", "--mode", "direct", "--planet", "mars",
                             "--jd", "2451545.0", "--precision", precision)
        assert (code, out) == (2, "")
        assert "--precision must be in 0..17" in err and "Traceback" not in err


def test_query_unknown_planet(capsys):
    code, _, err = run(capsys, "query", "--mode", "direct", "--planet", "vulcan",
                       "--jd", "2451545.0")
    assert code == 2
    assert "vulcan" in err


def test_a_planet_at_the_observer_is_degenerate_geometry(capsys, tmp_path):
    # a body whose elements are the Earth's lies at the observer: no direction
    csv = tmp_path / "twin.csv"
    row = "1.0,0.0167,0.0,0.0,102.9,365.256363,2451545.0"
    csv.write_text(f"{ELEMENTS_HEADER}\ntwin,{row}\nearth,{row}\n")
    code, out, err = run(capsys, "query", "--mode", "direct", "--planet", "twin",
                         "--jd", "2451545.0", "--elements", str(csv), "--no-timestamp")
    assert (code, out) == (1, "")
    assert err == "error: zero vector has no direction\n"


def test_query_json(capsys, dataset):
    code, out, _ = run(capsys, "query", "--mode", "direct", "--planet", "venus",
                       "--jd", "2451545.0", "--json", "--no-timestamp", "--count-ops")
    assert code == 0
    payload = json.loads(out)
    want = geocentric_at(dataset["venus"], dataset["earth"], 2451545.0)
    assert payload["lam"] == want.lam
    assert payload["ops"]["transcendental_calls"] > 0


@pytest.mark.parametrize("argv", [
    ["query", "--mode", "direct", "--jd", "2451545.0"],
    ["query", "--mode", "table", "--jd", "2451545.0"],
    ["bench", "--queries", "10"],
    ["compare", "--kind", "double", "--double", "16x16", "--from-jd", "2451545",
     "--span-days", "70", "--samples", "10"],
], ids=["query-direct", "query-table", "bench", "compare-double"])
def test_earth_is_the_observer_of_geocentric_commands(capsys, tmp_path, argv):
    if argv[0] != "compare":
        argv = argv + ["--table-dir", str(tmp_path)]
    code, out, err = run(capsys, *argv, "--planet", "earth")
    assert code == 2
    assert out == ""
    assert err == "error: --planet earth: the Earth is the observer, not an observed body\n"


def test_compare_single_earth_is_heliocentric(capsys):
    code, out, _ = run(capsys, "compare", "--kind", "single", "--planet", "earth",
                       "--from-jd", "2451545", "--span-days", "70", "--samples", "10")
    assert code == 0
    assert "nu_err_deg: max=" in out


@pytest.mark.parametrize("spelling, shape", [
    ("64x64", (64, 64)), ("64X64", (64, 64)),
    ("8", None), ("8x8x8", None), ("x8", None), ("7x8", None),
    ("1_6x16", None), ("+16x16", None), ("16 x 16", None), ("\u0661\u0666x16", None),
])
def test_double_option_and_shape_header_agree(capsys, tmp_path, dataset, spelling, shape):
    code, out, err = run(capsys, "census", "--double", spelling, "--json", "--no-timestamp")
    table = build_double_entry(dataset["mars"], dataset["earth"], *(shape or (8, 8)))
    path = tmp_path / table_filename(table)
    write_table(table, path)
    canonical = b"# shape: %dx%d\n" % (table.n_u, table.n_v)
    respelled = path.read_bytes().replace(canonical, f"# shape: {spelling}\n".encode())
    path.write_bytes(reseal(respelled))
    if shape is None:
        assert code == 2
        assert "<n_u>x<n_v>" in err or "8x8" in err
        with pytest.raises(TableParseError, match="invalid shape header") as exc:
            read_table(path)
        assert exc.value.line == 3
    else:
        assert code == 0
        assert json.loads(out)["double_shape"] == list(shape)
        assert read_table(path) == table


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["query", "--mode", "sideways", "--planet", "mars", "--jd", "1"])
    assert err.value.code == 2


def test_huge_semi_major_axis_is_refused(tmp_path, capsys):
    # From a = 1e100 up, x*x + y*y + z*z could overflow to an infinite delta.
    csv = tmp_path / "huge.csv"
    csv.write_text(f"{ELEMENTS_HEADER}\nfar,1e200,0.1,1.0,0.0,0.0,800.0,2451545.0\n"
                   "earth,1.0,0.0,0.0,0.0,0.0,320.0,2451545.0\n")
    code, out, err = run(capsys, "query", "--mode", "direct", "--planet", "far",
                         "--jd", "2451545.0", "--elements", str(csv))
    assert (code, out) == (3, "")
    assert "semi-major" in err
    out_dir = tmp_path / "t"
    code, _, err = run(capsys, "gen", "--all", "--double", "8x8", "--elements", str(csv),
                       "--table-dir", str(out_dir))
    assert code == 3
    assert "semi-major" in err
    assert not out_dir.exists()


def test_missing_elements_file(capsys):
    code, _, err = run(capsys, "query", "--mode", "direct", "--planet", "mars",
                       "--jd", "2451545.0", "--elements", "/nonexistent/path.csv")
    assert code == 3


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_circular_single_is_exact(tmp_path, capsys):
    csv = synthetic_csv(tmp_path)
    code, out, _ = run(capsys, "compare", "--planet", "circ", "--kind", "single",
                       "--step-days", "10", "--from-jd", "2451545", "--span-days", "800",
                       "--samples", "200", "--elements", str(csv),
                       "--max-lambda-err", "1e-9", "--no-timestamp")
    assert code == 0
    assert "nu_err_deg" in out


def test_compare_threshold_failure(capsys):
    code, out, _ = run(capsys, "compare", "--planet", "jupiter", "--kind", "double",
                       "--double", "16x16", "--from-jd", "2451545", "--span-days", "398",
                       "--samples", "60", "--max-lambda-err", "1e-9", "--no-timestamp")
    assert code == 1
    assert "threshold exceeded" in out


@pytest.mark.parametrize("limit", ["nan", "inf", "-0.001"])
def test_compare_rejects_a_threshold_that_is_not_finite_and_non_negative(capsys, limit):
    # A NaN threshold would never trip: every comparison with NaN is false.
    code, out, err = run(capsys, "compare", "--planet", "mars", "--from-jd", "2451545",
                         "--span-days", "10", "--max-lambda-err", limit, "--no-timestamp")
    assert (code, out) == (2, "")
    assert "--max-lambda-err must be finite and >= 0" in err


def _compare_errors(dataset, kind):
    """JD -> named errors for Mars, computed here apart from urania.compare."""
    planet, earth = dataset["mars"], dataset["earth"]
    if kind == "double":
        tables = TableSet()
        tables.add(build_double_entry(planet, earth, 16, 16))

        def errors(jd):
            got = geocentric_at_table(tables, "mars", jd)
            want = geocentric_at(planet, earth, jd)
            return {"lambda_err_deg": abs(wrap_diff_deg(got.lam, want.lam)),
                    "beta_err_deg": abs(got.beta - want.beta),
                    "delta_err_au": abs(got.delta - want.delta)}
    else:
        table = build_planet_table(planet, 2.0)

        def errors(jd):
            t = phase_days(None, jd, planet.T_aph, planet.P)
            (nu_t, r_t), (nu_d, r_d) = lookup_planet(table, t), position_since_aphelion(planet, t)
            return {"nu_err_deg": abs(wrap_diff_deg(nu_t, nu_d)), "r_err_au": abs(r_t - r_d)}
    return errors


@pytest.mark.parametrize("kind", ["double", "single"])
def test_compare_report_is_pinned(capsys, dataset, kind):
    argv = ("compare", "--planet", "mars", "--kind", kind, "--double", "16x16",
            "--step-days", "2", "--from-jd", "2451545", "--span-days", "700",
            "--samples", "300", "--no-timestamp")
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)

    columns = {"double": ["lambda_err_deg", "beta_err_deg", "delta_err_au"],
               "single": ["nu_err_deg", "r_err_au"]}[kind]
    assert [line.split(":")[0] for line in text.splitlines()] == ["planet", "config", "jd"] + columns
    stats = {f"{agg}_{name}" for name in columns for agg in ("max", "mean")}
    assert set(payload) == {"planet", "jd_start", "jd_end", "samples", "table_config"} | stats

    errors = _compare_errors(dataset, kind)
    jd_start, span, samples = 2451545.0, 700.0, 300
    for empty in ((jd_start, jd_start, samples), (jd_start, jd_start + span, 0)):
        with pytest.raises(DomainError, match="jd_end must exceed|samples must be >= 1"):
            sweep(errors, *empty)
    maxes = dict.fromkeys(columns, 0.0)
    sums = dict.fromkeys(columns, 0.0)
    for i in range(samples):
        for name, err in errors(jd_start + i * span / samples).items():
            maxes[name] = max(maxes[name], err)
            sums[name] += err
    for name in columns:
        assert payload[f"max_{name}"] == maxes[name]
        assert payload[f"mean_{name}"] == sums[name] / samples


def test_compare_single_steps_one_day_by_default(capsys):
    argv = ("compare", "--planet", "mercury", "--kind", "single", "--from-jd", "2451545",
            "--span-days", "88", "--samples", "100", "--json", "--no-timestamp")
    code, default, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(default)["table_config"] == "single step=1.0"
    assert run(capsys, *argv, "--step-days", "1")[1] == default


@pytest.mark.parametrize("span", [("--to-jd", "inf"), ("--span-days", "inf"),
                                  ("--to-jd", "nan")])
def test_compare_rejects_non_finite_bounds(capsys, span):
    code, _, err = run(capsys, "compare", "--planet", "mars", "--kind", "single",
                       "--from-jd", "0", *span)
    assert code == 2
    assert "sweep bounds must be finite" in err
    assert "[0.0, " in err


def test_compare_halving_step_improves(capsys):
    def max_err(step):
        _, out, _ = run(capsys, "compare", "--planet", "mars", "--kind", "single",
                        "--step-days", str(step), "--from-jd", "2451545",
                        "--span-days", "687", "--samples", "500", "--json", "--no-timestamp")
        return json.loads(out)["max_nu_err_deg"]

    e2, e1 = max_err(2.0), max_err(1.0)
    assert e1 * 3.0 <= e2


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_contract(capsys, table_dir):
    code, out, _ = run(capsys, "bench", "--queries", "300", "--table-dir", str(table_dir),
                       "--no-timestamp")
    assert code == 0
    table_line = next(l for l in out.splitlines() if l.startswith("mode=table"))
    direct_line = next(l for l in out.splitlines() if l.startswith("mode=direct"))
    assert "transcendental=0" in table_line
    assert "transcendental=0" not in direct_line


def test_bench_reports_the_frame_tally_next_to_the_direct_one(capsys, table_dir):
    # The orbit frame is counted once per element set, not per query, so
    # bench shows its tally beside the per-query ones.
    code, out, _ = run(capsys, "bench", "--queries", "200", "--table-dir", str(table_dir),
                       "--json", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    frame = {"adds": 5, "muls": 26, "transcendental_calls": 7, "row_accesses": 0, "total": 38}
    assert report["frame_ops"] == frame
    assert report["table"]["total"] < report["direct"]["total"]
    _, out, _ = run(capsys, "bench", "--queries", "200", "--table-dir", str(table_dir),
                    "--no-timestamp")
    assert "frame_ops per element set: adds=5 muls=26 transcendental=7 total=38" in out


def test_bench_tallies_are_pinned(capsys, table_dir):
    # The query stream at one seed: planets round-robin, JDs uniform within
    # a century of J2000. Frozen, so a change to the stream shows here.
    code, out, _ = run(capsys, "bench", "--queries", "200", "--seed", "0",
                       "--table-dir", str(table_dir), "--json", "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["table"] == {"adds": 3009, "muls": 3000, "transcendental_calls": 0,
                               "row_accesses": 200, "total": 6209}
    assert report["direct"] == {"adds": 8345, "muls": 8016, "transcendental_calls": 3620,
                                "row_accesses": 0, "total": 19981}


def test_bench_deterministic(capsys, table_dir):
    # what --no-timestamp leaves out: the generated line and each mode's wall time
    args = ("bench", "--queries", "120", "--seed", "5", "--table-dir", str(table_dir))
    _, stamped, _ = run(capsys, *args)
    _, plain, _ = run(capsys, *args, "--no-timestamp")
    generated, rest = stamped.split("\n", 1)
    assert generated.startswith("generated: ")
    assert re.sub(r" wall=[0-9.]+s", "", rest) == plain != rest


# Every query gets one tally per mode, healthy except for the broken contract.
@pytest.mark.parametrize("table, direct, broken", [
    pytest.param(OpCounter(adds=1), OpCounter(adds=9), "direct", id="0-direct"),
    pytest.param(OpCounter(adds=1, transcendental_calls=1),
                 OpCounter(adds=9, transcendental_calls=1), "table", id="1-table"),
    pytest.param(OpCounter(adds=9), OpCounter(adds=8, transcendental_calls=1), "cost",
                 id="cost"),
])
def test_bench_reports_a_broken_contract(capsys, monkeypatch, table_dir, table, direct, broken):
    tallies = {"table": table, "direct": direct}
    monkeypatch.setattr("urania.evaluate.counted_query",
                        lambda mode, *_, **__: (None, tallies[mode]))
    args = ("bench", "--queries", "7", "--table-dir", str(table_dir), "--no-timestamp")
    code, out, _ = run(capsys, *args)
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        {"direct": "FAIL: 7 direct queries reported no transcendental calls",
         "table": "FAIL: 7 table queries used transcendental calls",
         "cost": "FAIL: 7 table queries cost no fewer ops than in direct mode"}[broken]
    ]
    _, out, _ = run(capsys, *args, "--json")
    assert {key for key in json.loads(out) if key.endswith("_contract")} == {f"{broken}_contract"}


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bench_rejects_non_positive_queries(capsys, table_dir, count):
    code, out, err = run(capsys, "bench", "--queries", count, "--table-dir", str(table_dir),
                         "--no-timestamp")
    assert code == 2
    assert out == ""
    assert f"--queries must be >= 1, got {count}" in err


def test_bench_without_tables(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code, _, err = run(capsys, "bench", "--queries", "10", "--table-dir", str(empty))
    assert code == 3
    assert "gen" in err


def test_bench_default_batch_budget(tmp_path, capsys):
    import time

    d = tmp_path / "full"
    code, _, _ = run(capsys, "gen", "--all", "--double", "64x64",
                     "--table-dir", str(d), "--no-timestamp")
    assert code == 0
    start = time.perf_counter()
    code, _, _ = run(capsys, "bench", "--queries", "10000", "--table-dir", str(d),
                     "--no-timestamp")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def test_census_json(capsys, dataset):
    code, out, _ = run(capsys, "census", "--json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    want = calculation_census(compile_plan(dataset, dataset.names, 1.0, (64, 64)))
    assert payload["entries"] == want["entries"]
    assert payload["solver_calls"] == want["solver_calls"]
    assert 1e4 <= payload["entries"] <= 1e5


def test_census_measure_ops(capsys, tmp_path):
    csv = synthetic_csv(tmp_path)
    code, out, _ = run(capsys, "census", "--step-days", "40", "--double", "8x8",
                       "--elements", str(csv), "--measure-ops", "--json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["compile_ops"]["total"] > payload["entries"]


@pytest.mark.parametrize("argv", [
    ["census"],
    ["compare", "--planet", "mars", "--kind", "single", "--from-jd", "2451545",
     "--span-days", "10"],
])
def test_step_below_the_row_bound_is_a_usage_error(capsys, argv):
    # P/step would overflow to inf, and ceil(inf) raises OverflowError.
    code, out, err = run(capsys, *argv, "--step-days", "5e-324", "--no-timestamp")
    assert (code, out) == (2, "")
    assert "P/2**20 <= step" in err


@pytest.mark.parametrize("argv", [
    ["census"],
    ["gen", "--all"],
    ["compare", "--planet", "mars", "--from-jd", "2451545", "--span-days", "10"],
])
def test_grid_over_the_cell_bound_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # 2**21 cells: hours of building, refused before the first cell
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--double", "2048x1024", "--no-timestamp")
    assert (code, out) == (2, "")
    assert "at most 2**20 cells, got 2048x1024" in err
    assert list(tmp_path.iterdir()) == []


def test_elements_with_extra_columns_are_refused_in_both_modes(capsys, tmp_path):
    # an elements record is eight numbers: columns past them are refused, never ignored
    csv = tmp_path / "extra.csv"
    csv.write_text(f"{ELEMENTS_HEADER},amp1_deg,per1_days,ph1_deg\n"
                   "circ,2.0,0.0,0.0,0.0,0.0,800.0,2451545.0,2.0,1000.0,0.0\n"
                   "earth,1.0,0.0,0.0,0.0,0.0,320.0,2451545.0,,,\n")
    out_dir = tmp_path / "t"
    for argv in (["gen", "--all", "--double", "8x8", "--table-dir", str(out_dir)],
                 ["census", "--double", "8x8"],
                 ["query", "--mode", "direct", "--planet", "circ", "--jd", "2451545.0"]):
        code, out, err = run(capsys, *argv, "--elements", str(csv), "--no-timestamp")
        assert (code, out) == (3, ""), argv
        assert "line 1: header must be" in err
        assert "extra columns 'amp1_deg,per1_days,ph1_deg'" in err
    assert not out_dir.exists()


def test_tables_refuse_a_body_too_fast_for_the_motion_stencil(capsys, tmp_path):
    # A row's motion is differenced across its row interval. "fast" sweeps
    # 180 degrees in 0.56 days around perihelion, under the default 1-day
    # step, and "slow" in 7.5 days: under a 10-day step, but not a 1-day one.
    for body, period, step in (("fast", "30.0", "1"), ("slow", "400.0", "10")):
        csv = tmp_path / f"{body}.csv"
        csv.write_text(f"{ELEMENTS_HEADER}\n{body},1.0,0.9,0.0,0.0,0.0,{period},2451545.0\n"
                       "earth,1.0,0.0,0.0,0.0,0.0,320.0,2451545.0\n")
        out_dir = tmp_path / "t"
        for argv in (["census", "--double", "none"],
                     ["gen", "--all", "--double", "8x8", "--table-dir", str(out_dir)],
                     ["compare", "--planet", body, "--kind", "single", "--from-jd", "2451545",
                      "--span-days", "10"]):
            code, out, err = run(capsys, *argv, "--step-days", step, "--elements", str(csv),
                                 "--no-timestamp")
            assert (code, out) == (2, ""), argv
            assert f"{body}: sweeps 180 degrees or more within a {step}-day row interval" in err
            assert "correction" not in err
        assert not out_dir.exists()


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "under-a-file"])
def test_gen_refuses_a_table_directory_that_is_a_file_before_it_builds(
        capsys, tmp_path, monkeypatch, below):
    def refuse(*_):
        raise AssertionError("a builder ran")

    monkeypatch.setattr("urania.tables.build_planet_table", refuse)
    monkeypatch.setattr("urania.tables.build_double_entry", refuse)
    path = tmp_path / "README.md"
    path.write_text("not a table directory\n")
    code, out, err = run(capsys, "gen", "--all", "--double", "64x64",
                         "--table-dir", str(path.joinpath(*below)))
    assert (code, out) == (3, "")
    assert f"table directory {path} is not a directory" in err
    assert path.read_text() == "not a table directory\n"
    assert list(tmp_path.iterdir()) == [path]


def test_an_elements_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    csv = tmp_path / "latin1.csv"
    csv.write_bytes(f"{ELEMENTS_HEADER}\n".encode() + b"m\xe9rs,1.5,0.09,1.8,49.5,286.4,686.98,"
                    b"2451164.5\nearth,1.0,0.0,0.0,0.0,0.0,365.25,2451545.0\n")
    for argv in (["query", "--mode", "direct", "--planet", "mars", "--jd", "2451545"],
                 ["census", "--double", "none"]):
        code, out, err = run(capsys, *argv, "--elements", str(csv), "--no-timestamp")
        assert (code, out) == (3, ""), argv
        assert f"{csv}: line 2: not UTF-8 text" in err and "Traceback" not in err


def test_census_double_needs_earth_as_gen_does(capsys, tmp_path):
    csv = tmp_path / "no-earth.csv"
    csv.write_text(f"{ELEMENTS_HEADER}\ncirc,2.0,0.0,0.0,0.0,0.0,800.0,2451545.0\n")
    for argv in (["census"], ["gen", "--all", "--table-dir", str(tmp_path)]):
        code, _, err = run(capsys, *argv, "--double", "8x8", "--elements", str(csv),
                           "--no-timestamp")
        assert code == 2
        assert "earth" in err
    for argv in (["census"], ["gen", "--all", "--table-dir", str(tmp_path)]):
        code, out, _ = run(capsys, *argv, "--double", "none", "--elements", str(csv))
        assert code == 0
        assert "cells=0" in out
    code, out, _ = run(capsys, "validate", "--elements", str(csv), "--table-dir", str(tmp_path))
    assert code == 1 and "FAIL elements-dataset: dataset lacks an 'earth' entry" in out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_fresh_checkout(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--table-dir", str(tmp_path / "missing"))
    assert (code, out) == (0, "PASS elements-dataset\nall 1 checks passed\n")


def test_validate_checks_the_dataset_and_the_tables_against_it(capsys, table_dir):
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 0
    assert out.splitlines() == ["PASS elements-dataset", "PASS table-files",
                                "PASS table-elements", "all 3 checks passed"]


def _nudged(value):
    """``value`` a float, or a tuple whose last float, moved by 1e-6."""
    return value + 1e-6 if isinstance(value, float) else (*value[:-1], value[-1] + 1e-6)


@pytest.mark.parametrize("name", [
    pytest.param("lookup_planet", id="evaluate-lookup_planet-knot-exactness"),
    pytest.param("lookup_grid", id="evaluate-lookup_grid-knot-exactness"),
])
def test_validate_flags_each_failing_self_check(capsys, table_dir, monkeypatch, name):
    real = getattr(evaluate, name)
    monkeypatch.setattr(evaluate, name, lambda *args: _nudged(real(*args)))
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert "FAIL table-files: " in out


@pytest.mark.parametrize("flag", ["--json", "--no-timestamp"])
def test_validate_rejects_report_flags(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(["validate", flag])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_a_table_directory_that_is_a_file_is_named_as_such(capsys, tmp_path):
    path = tmp_path / "README.md"
    path.write_text("not a table directory\n")
    code, out, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                         "--jd", "2451545.0", "--table-dir", str(path))
    assert (code, out) == (3, "")
    assert f"table directory {path} is not a directory" in err
    code, out, _ = run(capsys, "validate", "--table-dir", str(path))
    assert code == 1
    assert f"FAIL table-files: table directory {path} is not a directory" in out


def test_validate_flags_corrupt_table(capsys, table_dir):
    truncate(table_dir / "mars.single.tbl")
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert "FAIL table-files" in out


def test_a_bad_knot_fails_validate_and_every_query_that_reads_its_row(capsys, table_dir):
    # A double-entry file's values are checked row by row as queries derive
    # them, so the file reads, and what reads the bad row is refused.
    path = table_dir / "mars.earth.double.tbl"
    table = read_table(path)
    jd = 2451545.0
    iu = int(phase_days(None, jd, table.planet.T_aph, table.planet.P) / table.du)
    table.knots[3 * table.n_v * iu + 1] = float("nan")  # the latitude of cell (iu, 0)
    write_table(table, path)
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert f"FAIL table-files: {path}: non-finite value in the payload" in out
    code, out, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                         "--jd", repr(jd), "--table-dir", str(table_dir))
    assert (code, out) == (3, "")
    assert f"{path}: non-finite value in the payload" in err


def test_validate_flags_moved_table(capsys, table_dir):
    (table_dir / "venus.earth.double.tbl").replace(table_dir / "mars.earth.double.tbl")
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert "FAIL table-files" in out
    assert "venus.earth.double.tbl" in out


def _gen_from_other_elements(capsys, tmp_path, dataset, body, field, value, selection):
    """(table directory, elements CSV) of a 16x16 set compiled from the
    dataset with ``body``'s ``field`` set to ``value``."""
    csv = tmp_path / "other.csv"
    rows = [el._replace(**{field: value}) if el.name == body else el for el in dataset]
    csv.write_text("\n".join([ELEMENTS_HEADER, *map(elements_row, rows)]) + "\n")
    d = tmp_path / "tables"
    code, _, err = run(capsys, "gen", selection, "--double", "16x16", "--elements", str(csv),
                       "--table-dir", str(d), "--no-timestamp")
    assert code == 0, err
    return d, csv


def _stale_line(dataset, body, field, value):
    return (f"FAIL table-elements: mars.earth.double.tbl: {body} {field} is {value!r} in the "
            f"table but {getattr(dataset[body], field)!r} in the dataset; regenerate the table "
            "or pass the --elements it was compiled from")


OTHER_ELEMENTS = pytest.mark.parametrize("body, field, value, selection", [
    ("mars", "e", 0.1, "--all"),
    ("earth", "omega", 103.0, "--planet=mars"),  # the Earth in the grid, as its observer
])


@OTHER_ELEMENTS
def test_validate_flags_tables_compiled_from_other_elements(
        capsys, tmp_path, dataset, body, field, value, selection):
    d, csv = _gen_from_other_elements(capsys, tmp_path, dataset, body, field, value, selection)
    code, out, _ = run(capsys, "validate", "--table-dir", str(d))
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        _stale_line(dataset, body, field, value)]
    code, out, _ = run(capsys, "validate", "--table-dir", str(d), "--elements", str(csv))
    assert (code, out.splitlines()[-1]) == (0, "all 3 checks passed")


@OTHER_ELEMENTS
def test_bench_refuses_tables_compiled_from_other_elements(
        capsys, tmp_path, dataset, body, field, value, selection):
    d, csv = _gen_from_other_elements(capsys, tmp_path, dataset, body, field, value, selection)
    args = ("bench", "--queries", "20", "--table-dir", str(d), "--no-timestamp")
    code, out, _ = run(capsys, *args)
    assert (code, out) == (1, _stale_line(dataset, body, field, value) + "\n")
    code, out, _ = run(capsys, *args, "--json")
    assert code == 1 and json.loads(out)["table_elements"] == "fail"
    code, out, _ = run(capsys, *args, "--elements", str(csv))
    assert code == 0 and "FAIL" not in out


@OTHER_ELEMENTS
def test_query_refuses_tables_compiled_from_other_elements(
        capsys, tmp_path, dataset, body, field, value, selection):
    d, csv = _gen_from_other_elements(capsys, tmp_path, dataset, body, field, value, selection)
    args = ("query", "--mode", "table", "--planet", "mars", "--jd", "2451545.0",
            "--table-dir", str(d), "--no-timestamp")
    code, out, _ = run(capsys, *args)
    assert (code, out) == (1, _stale_line(dataset, body, field, value) + "\n")
    code, out, _ = run(capsys, *args, "--count-ops", "--json")
    assert code == 1 and json.loads(out)["table_elements"] == "fail"
    code, out, _ = run(capsys, *args, "--elements", str(csv))
    assert code == 0 and "lambda: " in out


def test_query_checks_the_single_entry_table_it_reads(capsys, tmp_path, dataset, table_dir):
    (tmp_path / "other").mkdir()
    other, _ = _gen_from_other_elements(capsys, tmp_path / "other", dataset, "mars", "e", 0.1,
                                        "--planet=mars")
    (other / "mars.single.tbl").replace(table_dir / "mars.single.tbl")
    args = ("query", "--mode", "table", "--planet", "mars", "--jd", "2451545.0",
            "--table-dir", str(table_dir), "--no-timestamp")
    code, _, _ = run(capsys, *args)
    assert code == 0
    code, out, _ = run(capsys, *args, "--heliocentric")
    assert code == 1
    assert out.startswith("FAIL table-elements: mars.single.tbl: mars e is 0.1 in the table")


def test_validate_names_a_table_body_the_dataset_lacks(capsys, tmp_path):
    d = tmp_path / "tables"
    code, _, err = run(capsys, "gen", "--planet", "circ", "--elements", str(synthetic_csv(tmp_path)),
                       "--table-dir", str(d), "--no-timestamp")
    assert code == 0, err
    code, out, _ = run(capsys, "validate", "--table-dir", str(d))
    assert code == 1
    assert "FAIL table-elements: circ.single.tbl: the dataset has no body named 'circ'\n" in out


def test_env_var_table_dir(capsys, table_dir, monkeypatch):
    monkeypatch.setenv("URANIA_DATA_DIR", str(table_dir))
    code, out, _ = run(capsys, "query", "--mode", "table", "--planet", "mars",
                       "--jd", "2451545.0", "--no-timestamp")
    assert code == 0
    assert "mode: table" in out


def test_table_dir_defaults_to_tables_in_the_working_directory(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("URANIA_DATA_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "gen", "--planet", "mars", "--no-timestamp")
    assert code == 0
    assert out.splitlines()[0] == f"wrote {Path('tables') / 'mars.single.tbl'}"
    assert [p.name for p in (tmp_path / "tables").iterdir()] == ["mars.single.tbl"]
