"""Command-line surface: gen, query, compare, bench, census, validate.

Exit codes: 0 success, 1 validation or threshold failure, 2 usage error,
3 I/O or parse error. The table directory resolves from --table-dir, then
the URANIA_DATA_DIR environment variable, then ./tables.
"""

import argparse
import datetime as _dt
import json
import math
import os
import random
import sys
import tempfile
import time
from pathlib import Path

from .compare import sweep_double, sweep_single
from .dataset import default_elements_path, load_elements
from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParseError,
    TableNotFoundError,
    TableVersionError,
    UnsupportedInversionError,
)
from .evaluate import (
    TableSet,
    counted_query,
    geocentric_at_table,
    heliocentric_at_table,
    load_tables,
    lookup_double,
    lookup_planet,
)
from .geocentric import geocentric_at
from .juliandate import calendar_to_jd, jd_to_calendar
from .kepler import (
    KEPLER_TOL,
    OrbitalElements,
    heliocentric_state,
    position_since_aphelion,
    solve_kepler,
    time_since_aphelion,
)
from .opcount import OpCounter, counted_direct, measure_compile_ops
from .tableio import double_planets, read_table, read_table_file, table_filename
from .tableio import table_paths, write_table
from .tables import build_double_entry, build_planet_table, calculation_census, compile_plan

__all__ = ["main"]


def _table_dir(args) -> Path:
    if getattr(args, "table_dir", None):
        return Path(args.table_dir)
    env = os.environ.get("URANIA_DATA_DIR")
    if env:
        return Path(env)
    return Path("tables")


def _dataset(args):
    path = getattr(args, "elements", None) or default_elements_path()
    return load_elements(path)


def _parse_double(text: str) -> tuple[int, int]:
    try:
        nu, _, nv = text.lower().partition("x")
        return int(nu), int(nv)
    except ValueError:
        raise DomainError(f"--double expects UxV (e.g. 64x64), got {text!r}") from None


def _parse_date(text: str) -> float:
    try:
        stamp = _dt.datetime.fromisoformat(text)
    except ValueError:
        raise DomainError(f"--date expects an ISO date-time, got {text!r}") from None
    if stamp.tzinfo is not None:
        raise DomainError("--date must be naive (no time zone); the engine has no time scale")
    frac = (
        stamp.hour * 3600.0 + stamp.minute * 60.0 + stamp.second + stamp.microsecond / 1e6
    ) / 86400.0
    return calendar_to_jd(stamp.year, stamp.month, stamp.day, frac)


def _query_jd(args) -> float:
    if args.jd is not None:
        if not math.isfinite(args.jd):
            raise DomainError("--jd must be finite")
        return args.jd
    return _parse_date(args.date)


def _timestamp_lines(args) -> list[str]:
    if getattr(args, "no_timestamp", False):
        return []
    return [f"generated: {_dt.datetime.now().isoformat(timespec='seconds')}"]


def _emit(args, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        if not getattr(args, "no_timestamp", False):
            payload["generated"] = _dt.datetime.now().isoformat(timespec="seconds")
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in _timestamp_lines(args) + lines:
            print(line)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    dataset = _dataset(args)
    if not (args.all or args.planet):
        raise DomainError("gen needs --planet NAME (repeatable) or --all")
    double_shape = _parse_double(args.double) if args.double else None
    plan = compile_plan(dataset, dataset.names if args.all else args.planet, args.step_days,
                        double_shape)
    built = [builder(*build_args) for builder, build_args in plan]

    out_dir = _table_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / table_filename(table) for table in built]
    for table, path in zip(built, written):
        write_table(table, path)

    census = calculation_census(plan)
    lines = [f"wrote {p}" for p in written] + [census.summary_line()]
    payload = {
        "written": [str(p) for p in written],
        "census": {
            "rows": census.total_rows,
            "cells": census.total_cells,
            "entries": census.total_entries,
            "solver_calls": census.solver_calls,
        },
    }
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


def _format_position(args, pos) -> list[str]:
    p = args.precision
    return [
        f"lambda: {pos.lam:.{p}f}",
        f"beta: {pos.beta:.{p}f}",
        f"delta: {pos.delta:.6f}",
    ]


def cmd_query(args) -> int:
    jd = _query_jd(args)
    p = args.precision
    if p < 0:
        raise DomainError(f"--precision must be >= 0, got {p}")
    lines = [f"planet: {args.planet}", f"jd: {jd!r}", f"mode: {args.mode}"]
    payload = {"planet": args.planet, "jd": jd, "mode": args.mode}
    counter = OpCounter() if args.count_ops else None

    if args.mode == "direct":
        dataset = _dataset(args)
        planet_el = dataset[args.planet]
        earth_el = dataset["earth"]
        pos = (counted_direct(counter, planet_el, earth_el, jd) if args.count_ops
               else geocentric_at(planet_el, earth_el, jd))
        lines += _format_position(args, pos)
        payload.update(lam=pos.lam, beta=pos.beta, delta=pos.delta)
        if args.heliocentric:
            state = heliocentric_state(planet_el, jd)
            lines += [
                f"helio_l: {state.l:.{p}f}",
                f"helio_b: {state.b:.{p}f}",
                f"helio_r: {state.r:.6f}",
            ]
            payload.update(helio_l=state.l, helio_b=state.b, helio_r=state.r)
    else:
        tables = load_tables(_table_dir(args))
        pos = geocentric_at_table(tables, args.planet, jd, counter=counter)
        lines += _format_position(args, pos)
        payload.update(lam=pos.lam, beta=pos.beta, delta=pos.delta)
        if args.heliocentric:
            nu, r = heliocentric_at_table(tables, args.planet, jd, counter=counter)
            lines += [f"nu_aph: {nu:.{p}f}", f"r: {r:.6f}"]
            payload.update(nu_aph=nu, r=r)

    if args.count_ops:
        ops = counter.as_dict()
        lines.append(
            "ops: adds={adds} muls={muls} transcendental={transcendental_calls} "
            "row_accesses={row_accesses} total={total}".format(**ops)
        )
        payload["ops"] = ops
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(args) -> int:
    dataset = _dataset(args)
    planet_el = dataset[args.planet]
    jd_start = args.from_jd
    jd_end = args.to_jd if args.to_jd is not None else jd_start + args.span_days
    if args.kind == "double":
        earth_el = dataset["earth"]
        n_u, n_v = _parse_double(args.double)
        table = build_double_entry(planet_el, earth_el, n_u, n_v)
        report = sweep_double(planet_el, earth_el, table, jd_start, jd_end, args.samples)
        angle_max = report.max_lambda_err_deg
        lines = [
            f"planet: {report.planet}",
            f"config: {report.table_config}",
            f"jd: [{report.jd_start!r}, {report.jd_end!r}) samples={report.samples}",
            f"lambda_err_deg: max={report.max_lambda_err_deg:.3e} mean={report.mean_lambda_err_deg:.3e}",
            f"beta_err_deg: max={report.max_beta_err_deg:.3e} mean={report.mean_beta_err_deg:.3e}",
            f"delta_err_au: max={report.max_delta_err_au:.3e} mean={report.mean_delta_err_au:.3e}",
        ]
    else:
        table = build_planet_table(planet_el, args.step_days)
        report = sweep_single(planet_el, table, jd_start, jd_end, args.samples)
        angle_max = report.max_nu_err_deg
        lines = [
            f"planet: {report.planet}",
            f"config: {report.table_config}",
            f"jd: [{report.jd_start!r}, {report.jd_end!r}) samples={report.samples}",
            f"nu_err_deg: max={report.max_nu_err_deg:.3e} mean={report.mean_nu_err_deg:.3e}",
            f"r_err_au: max={report.max_r_err_au:.3e} mean={report.mean_r_err_au:.3e}",
        ]
    payload = {k: v for k, v in vars(report).items()}
    status = 0
    if args.max_lambda_err is not None and angle_max > args.max_lambda_err:
        lines.append(
            f"threshold exceeded: max angle error {angle_max:.3e} > {args.max_lambda_err:.3e}"
        )
        payload["threshold_exceeded"] = True
        status = 1
    _emit(args, lines, payload)
    return status


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    dataset = _dataset(args)
    table_dir = _table_dir(args)
    tables = load_tables(table_dir)
    planets = list(dict.fromkeys(args.planet)) if args.planet else double_planets(table_dir)
    for name in planets:
        tables.double_for(name)
    if not planets:
        raise TableNotFoundError(
            "no double-entry tables loaded; run 'urania gen --all --double 64x64'"
        )

    rng = random.Random(args.seed)
    jd0 = 2451545.0
    queries = [(planets[i % len(planets)], jd0 + rng.uniform(-36525.0, 36525.0))
               for i in range(args.queries)]

    table_total = OpCounter()
    bad_table_queries = 0
    t0 = time.perf_counter()
    for planet, jd in queries:
        _, c = counted_query("table", planet, jd, tables=tables)
        if c.transcendental_calls != 0:
            bad_table_queries += 1
        table_total.merge(c)
    table_wall = time.perf_counter() - t0

    direct_total = OpCounter()
    bad_direct_queries = 0
    t0 = time.perf_counter()
    for planet, jd in queries:
        _, c = counted_query("direct", planet, jd, dataset=dataset)
        if c.transcendental_calls <= 0:
            bad_direct_queries += 1
        direct_total.merge(c)
    direct_wall = time.perf_counter() - t0

    def mode_line(mode, total, wall):
        line = (
            f"mode={mode} queries={args.queries} adds={total.adds} muls={total.muls} "
            f"transcendental={total.transcendental_calls} row_accesses={total.row_accesses} "
            f"total_ops={total.total_ops()}"
        )
        if not args.no_timestamp:
            line += f" wall={wall:.3f}s"
        return line

    lines = [
        f"planets: {','.join(planets)}",
        mode_line("table", table_total, table_wall),
        mode_line("direct", direct_total, direct_wall),
    ]
    payload = {
        "planets": planets,
        "queries": args.queries,
        "table": table_total.as_dict(),
        "direct": direct_total.as_dict(),
    }
    if not args.no_timestamp:
        payload["table_wall_s"] = table_wall
        payload["direct_wall_s"] = direct_wall

    status = 0
    if bad_table_queries:
        lines.append(f"FAIL: {bad_table_queries} table queries used transcendental calls")
        payload["table_contract"] = "fail"
        status = 1
    if bad_direct_queries:
        lines.append(f"FAIL: {bad_direct_queries} direct queries reported no transcendental calls")
        payload["direct_contract"] = "fail"
        status = 1
    _emit(args, lines, payload)
    return status


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def cmd_census(args) -> int:
    dataset = _dataset(args)
    double_shape = None if args.double in (None, "none") else _parse_double(args.double)
    plan = compile_plan(dataset, dataset.names, args.step_days, double_shape)
    census = calculation_census(plan)
    lines = []
    for name, rows in census.single_rows.items():
        lines.append(f"single {name}: rows={rows}")
    for pair, cells in census.double_cells.items():
        lines.append(f"double {pair}: cells={cells}")
    lines.append(census.summary_line())
    payload = {
        "step_days": args.step_days,
        "double_shape": list(double_shape) if double_shape else None,
        "single_rows": census.single_rows,
        "double_cells": census.double_cells,
        "rows": census.total_rows,
        "cells": census.total_cells,
        "entries": census.total_entries,
        "solver_calls": census.solver_calls,
    }
    if args.measure_ops:
        measured = measure_compile_ops(plan)
        lines.append(
            "compile_ops: adds={adds} muls={muls} transcendental={transcendental_calls} "
            "total={total}".format(**measured.as_dict())
        )
        payload["compile_ops"] = measured.as_dict()
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _synthetic_pair() -> tuple[OrbitalElements, OrbitalElements]:
    planet = OrbitalElements(
        name="check-planet", a=2.1, e=0.3, i=4.0, Omega=40.0, omega=120.0,
        P=400.0, T_aph=2451545.0,
    )
    earth = OrbitalElements(
        name="earth", a=1.0, e=0.05, i=0.0, Omega=0.0, omega=80.0,
        P=160.0, T_aph=2451500.0,
    )
    return planet, earth


def _check_solver_grid() -> None:
    eccs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97]
    for e in eccs:
        for k in range(500):
            M = 2.0 * math.pi * k / 500.0
            E = solve_kepler(M, e)
            if abs(E - e * math.sin(E) - M) >= KEPLER_TOL:
                raise AssertionError(f"residual above tolerance at e={e} M={M}")


def _check_calendar_round_trip() -> None:
    for year in range(1500, 2501, 37):
        for month, day in ((1, 1), (2, 28), (6, 15), (12, 31)):
            for frac in (0.0, 0.25, 0.875):
                jd = calendar_to_jd(year, month, day, frac)
                y, m, d, f = jd_to_calendar(jd)
                if (y, m, d) != (year, month, day) or abs(f - frac) >= 1e-9:
                    raise AssertionError(f"round trip broke at {year}-{month}-{day} {frac}")


def _check_anomaly_round_trip() -> None:
    rng = random.Random(7)
    for _ in range(200):
        el = OrbitalElements(
            name="rt", a=1.0 + 4.0 * rng.random(), e=0.97 * rng.random(),
            i=0.0, Omega=0.0, omega=0.0,
            P=10.0 + 5000.0 * rng.random(), T_aph=2451545.0,
        )
        t = rng.uniform(0.0, el.P)
        nu, _ = position_since_aphelion(el, t)
        back = time_since_aphelion(el, nu)
        if abs(back - t) >= 1e-9:
            raise AssertionError(f"|{back} - {t}| too large for e={el.e} P={el.P}")


def _check_knot_exactness(tables: TableSet) -> None:
    for name, table in sorted(tables.single.items()):
        for row in table.rows:
            nu, r = lookup_planet(table, row.t)
            if nu != row.nu_aph or r != row.r:
                raise AssertionError(f"{name}: lookup at t={row.t!r} altered stored values")
    for name, table in sorted(tables.double.items()):
        du = table.planet.P / table.n_u
        dv = table.earth.P / table.n_v
        for iu in range(table.n_u):
            for iv in range(table.n_v):
                got = lookup_double(table, iu * du, iv * dv)
                if got != table.cells[iu][iv]:
                    raise AssertionError(f"{name}: lookup at cell ({iu},{iv}) altered stored values")


def _check_zero_transcendental(tables: TableSet, planet, earth) -> None:
    rng = random.Random(11)
    for _ in range(300):
        jd = 2451545.0 + rng.uniform(-5000.0, 5000.0)
        _, c = counted_query("table", planet.name, jd, tables=tables)
        if c.transcendental_calls != 0:
            raise AssertionError(f"table query at jd={jd} used {c.transcendental_calls} calls")
        c2 = OpCounter()
        counted_direct(c2, planet, earth, jd)
        if c2.transcendental_calls <= 0:
            raise AssertionError("direct query reported no transcendental calls")
        if c.total_ops() >= c2.total_ops():
            raise AssertionError("table query cost at least as much as direct query")


def _check_serialization(tables: TableSet) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for table in list(tables.single.values()) + list(tables.double.values()):
            path = Path(tmp) / table_filename(table)
            write_table(table, path)
            if read_table(path) != table:
                raise AssertionError(f"round trip altered {table_filename(table)}")


def cmd_validate(args) -> int:
    checks = []
    planet, earth = _synthetic_pair()

    def dataset_check():
        path = getattr(args, "elements", None) or default_elements_path()
        dataset = load_elements(path)
        if "earth" not in dataset:
            raise AssertionError("dataset lacks an 'earth' entry")

    def synthetic_tables() -> TableSet:
        ts = TableSet()
        ts.add(build_planet_table(planet, planet.P / 64.0))
        ts.add(build_planet_table(earth, earth.P / 64.0))
        ts.add(build_double_entry(planet, earth, 16, 16))
        return ts

    ts = None

    def build_check():
        nonlocal ts
        ts = synthetic_tables()

    checks.append(("elements-dataset", dataset_check))
    checks.append(("solver-grid-residual", _check_solver_grid))
    checks.append(("calendar-round-trip", _check_calendar_round_trip))
    checks.append(("anomaly-round-trip", _check_anomaly_round_trip))
    checks.append(("table-build", build_check))
    checks.append(("knot-exactness", lambda: _check_knot_exactness(ts)))
    checks.append(("zero-transcendental-sweep", lambda: _check_zero_transcendental(ts, planet, earth)))
    checks.append(("serialization-round-trip", lambda: _check_serialization(ts)))

    table_files = table_paths(_table_dir(args))
    if table_files:
        def table_files_check():
            loaded = TableSet()
            for path in table_files:
                loaded.add(read_table_file(path))
            _check_knot_exactness(loaded)
        checks.append(("table-files", table_files_check))

    failures = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # report, keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failures:
        print(f"{failures} of {len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p, tables=False, report=True):
    p.add_argument("--elements", help="elements CSV (default: shipped dataset)")
    if report:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--no-timestamp", action="store_true",
                       help="deterministic output for diffing")
    if tables:
        p.add_argument("--table-dir", help="compiled table directory (default: $URANIA_DATA_DIR or ./tables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urania",
        description="Planetary ephemeris engine: direct Kepler evaluation or compiled table lookup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="compile and write table files")
    p.add_argument("--planet", action="append", help="body name (repeatable)")
    p.add_argument("--all", action="store_true", help="every body in the dataset")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--double", help="also build UxV double-entry tables (e.g. 64x64)")
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("query", help="geocentric position at a date or Julian Date")
    p.add_argument("--mode", choices=("direct", "table"), required=True)
    p.add_argument("--planet", required=True)
    when = p.add_mutually_exclusive_group(required=True)
    when.add_argument("--jd", type=float)
    when.add_argument("--date", help="ISO date-time, e.g. 2000-01-01T12:00")
    p.add_argument("--heliocentric", action="store_true", help="also print the heliocentric line")
    p.add_argument("--count-ops", action="store_true")
    p.add_argument("--precision", type=int, default=4, help="decimal places for degrees")
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("compare", help="sweep table mode against direct mode")
    p.add_argument("--planet", required=True)
    p.add_argument("--kind", choices=("double", "single"), default="double")
    p.add_argument("--double", default="64x64")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--from-jd", type=float, required=True)
    span = p.add_mutually_exclusive_group(required=True)
    span.add_argument("--to-jd", type=float)
    span.add_argument("--span-days", type=float)
    p.add_argument("--samples", type=int, default=720)
    p.add_argument("--max-lambda-err", type=float, help="exit 1 if the max angle error exceeds this")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bench", help="op-count and time a batch of queries in both modes")
    p.add_argument("--queries", type=int, default=10000)
    p.add_argument("--planet", action="append", help="restrict to these bodies (repeatable)")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, tables=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("census", help="count the calculations a table set requires")
    p.add_argument("--step-days", type=float, default=1.0)
    p.add_argument("--double", default="64x64", help="UxV double-entry shape, or 'none'")
    p.add_argument("--measure-ops", action="store_true",
                   help="also measure compile arithmetic with the op counter")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("validate", help="run the built-in invariant checks")
    _add_common(p, tables=True, report=False)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TableVersionError, TableNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KeyError, DomainError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except (DegenerateGeometryError, UnsupportedInversionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
