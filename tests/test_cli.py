import json

import pytest

from urania import DoubleEntryTable, calculation_census, compile_plan, geocentric_at
from urania import cli
from urania.cli import main

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


def test_gen_writes_files_and_census(tmp_path, capsys, dataset):
    d = tmp_path / "t"
    code, out, _ = run(capsys, "gen", "--planet", "mars", "--step-days", "1",
                       "--table-dir", str(d), "--no-timestamp")
    assert code == 0
    assert (d / "mars.single.tbl").is_file()
    census = calculation_census(compile_plan(dataset, ["mars"], 1.0, None))
    assert census.summary_line() in out


def test_gen_census_counts_the_double_it_writes(tmp_path, capsys, dataset):
    d = tmp_path / "t"
    code, out, _ = run(capsys, "gen", "--planet", "mars", "--double", "16x16",
                       "--table-dir", str(d), "--no-timestamp")
    assert code == 0
    assert sorted(p.name for p in d.iterdir()) == ["mars.earth.double.tbl", "mars.single.tbl"]
    census = calculation_census(compile_plan(dataset, ["mars"], 1.0, (16, 16)))
    assert census.total_cells == 256
    assert out.splitlines()[-1] == census.summary_line()


@pytest.mark.parametrize("config", [
    ["--all", "--double", "64x4"],
    ["--planet", "saturn", "--planet", "mercury", "--step-days", "20"],
])
def test_gen_bad_config_writes_nothing(tmp_path, capsys, config):
    code, _, err = run(capsys, "gen", *config, "--table-dir", str(tmp_path), "--no-timestamp")
    assert code == 2
    assert "8x8" in err or "P/8" in err
    assert list(tmp_path.glob("*.tbl")) == []


def test_gen_all_with_double(table_dir):
    singles = sorted(p.name for p in table_dir.glob("*.single.tbl"))
    doubles = sorted(p.name for p in table_dir.glob("*.double.tbl"))
    assert len(singles) == 6
    assert len(doubles) == 5
    assert "earth.single.tbl" in singles
    assert all(name.endswith(".earth.double.tbl") for name in doubles)


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

    monkeypatch.setattr(cli, "counted_direct", refuse)
    code, plain, _ = run(capsys, *args)
    assert code == 0
    assert plain == "".join(line for line in counted.splitlines(True) if not line.startswith("ops:"))


def test_query_table_counts_only_with_count_ops(capsys, monkeypatch, table_dir):
    args = ("query", "--mode", "table", "--planet", "saturn", "--jd", "2451545.0",
            "--heliocentric", "--table-dir", str(table_dir), "--no-timestamp")
    _, counted, _ = run(capsys, *args, "--count-ops")

    def refuse(*_):
        raise AssertionError("counted table path used without --count-ops")

    monkeypatch.setattr("urania.evaluate._twins", refuse)
    code, plain, _ = run(capsys, *args)
    assert code == 0
    assert plain == "".join(line for line in counted.splitlines(True) if not line.startswith("ops:"))


def test_query_deterministic(capsys):
    args = ("query", "--mode", "direct", "--planet", "jupiter", "--jd", "2455555.25",
            "--count-ops", "--no-timestamp")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_query_date_equals_jd(capsys):
    _, by_jd, _ = run(capsys, "query", "--mode", "direct", "--planet", "saturn",
                      "--jd", "2451545.0", "--no-timestamp")
    _, by_date, _ = run(capsys, "query", "--mode", "direct", "--planet", "saturn",
                        "--date", "2000-01-01T12:00", "--no-timestamp")
    assert by_jd == by_date


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
    }
    for version, text in older.items():
        (table_dir / "mars.earth.double.tbl").write_text(text)
        code, out, err = run(capsys, "query", "--mode", "table", "--planet", "mars",
                             "--jd", "2451545.0", "--table-dir", str(table_dir))
        assert code == 3
        assert out == ""
        assert version in err and "urania gen" in err


def test_query_negative_precision_rejected(capsys):
    code, out, err = run(capsys, "query", "--mode", "direct", "--planet", "mars",
                         "--jd", "2451545.0", "--precision", "-1")
    assert code == 2
    assert out == ""
    assert "--precision" in err and "Traceback" not in err


def test_query_unknown_planet(capsys):
    code, _, err = run(capsys, "query", "--mode", "direct", "--planet", "vulcan",
                       "--jd", "2451545.0")
    assert code == 2
    assert "vulcan" in err


def test_query_json(capsys, dataset):
    code, out, _ = run(capsys, "query", "--mode", "direct", "--planet", "venus",
                       "--jd", "2451545.0", "--json", "--no-timestamp", "--count-ops")
    assert code == 0
    payload = json.loads(out)
    want = geocentric_at(dataset["venus"], dataset["earth"], 2451545.0)
    assert payload["lam"] == want.lam
    assert payload["ops"]["transcendental_calls"] > 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["query", "--mode", "sideways", "--planet", "mars", "--jd", "1"])
    assert err.value.code == 2


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


def test_bench_deterministic(capsys, table_dir):
    args = ("bench", "--queries", "120", "--seed", "5", "--table-dir", str(table_dir),
            "--no-timestamp")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


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
    assert payload["entries"] == want.total_entries
    assert payload["solver_calls"] == want.solver_calls
    assert 1e4 <= payload["entries"] <= 1e5


def test_census_measure_ops(capsys, tmp_path):
    csv = synthetic_csv(tmp_path)
    code, out, _ = run(capsys, "census", "--step-days", "40", "--double", "8x8",
                       "--elements", str(csv), "--measure-ops", "--json", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["compile_ops"]["total"] > payload["entries"]


def test_census_double_needs_earth_as_gen_does(capsys, tmp_path):
    csv = tmp_path / "no-earth.csv"
    csv.write_text(f"{ELEMENTS_HEADER}\ncirc,2.0,0.0,0.0,0.0,0.0,800.0,2451545.0\n")
    for argv in (["census"], ["gen", "--all", "--table-dir", str(tmp_path)]):
        code, _, err = run(capsys, *argv, "--double", "8x8", "--elements", str(csv),
                           "--no-timestamp")
        assert code == 2
        assert "earth" in err
    code, out, _ = run(capsys, "census", "--double", "none", "--elements", str(csv))
    assert code == 0
    assert "cells=0" in out


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_fresh_checkout(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", "--table-dir", str(tmp_path / "missing"))
    assert code == 0
    assert "PASS solver-grid-residual" in out
    assert "PASS zero-transcendental-sweep" in out
    assert "all" in out and "passed" in out


@pytest.mark.parametrize("flag", ["--json", "--no-timestamp"])
def test_validate_rejects_report_flags(capsys, flag):
    with pytest.raises(SystemExit) as err:
        main(["validate", flag])
    assert err.value.code == 2
    assert flag in capsys.readouterr().err


def test_validate_flags_corrupt_table(capsys, table_dir):
    truncate(table_dir / "mars.single.tbl")
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert "FAIL table-files" in out


def test_validate_flags_moved_table(capsys, table_dir):
    (table_dir / "venus.earth.double.tbl").replace(table_dir / "mars.earth.double.tbl")
    code, out, _ = run(capsys, "validate", "--table-dir", str(table_dir))
    assert code == 1
    assert "FAIL table-files" in out
    assert "venus.earth.double.tbl" in out


def test_validate_flags_altered_round_trip(capsys, tmp_path, monkeypatch):
    real = cli.read_table

    def perturbed(path):
        table = real(path)
        if isinstance(table, DoubleEntryTable):
            lam, beta, delta = table.cells[3][5]
            table.cells[3][5] = (lam, beta, delta + 1e-12)
        return table

    monkeypatch.setattr(cli, "read_table", perturbed)
    code, out, _ = run(capsys, "validate", "--table-dir", str(tmp_path / "missing"))
    assert code == 1
    assert "FAIL serialization-round-trip" in out


def test_env_var_table_dir(capsys, table_dir, monkeypatch):
    monkeypatch.setenv("URANIA_DATA_DIR", str(table_dir))
    code, out, _ = run(capsys, "query", "--mode", "table", "--planet", "mars",
                       "--jd", "2451545.0", "--no-timestamp")
    assert code == 0
    assert "mode: table" in out
