"""Command-line surface: gen, query, compare, bench, census, validate.

Exit codes: 0 success, 1 validation or threshold failure, 2 usage error,
3 I/O or parse error. The table directory resolves from --table-dir, then
the URANIA_DATA_DIR environment variable, then ./tables.

Each command imports what it runs when it runs, so that a one-shot ``urania
query`` loads only its own mode's modules: ``opcount`` for a counted query,
``datetime`` for ``--date`` or a timestamp, ``json`` for ``--json``.
"""

import argparse
import os
import sys

from .errors import (
    DegenerateGeometryError,
    DomainError,
    ParseError,
    TableNotFoundError,
    TableVersionError,
)

__all__ = ["main"]


def _table_dir(args):
    from pathlib import Path

    if getattr(args, "table_dir", None):
        return Path(args.table_dir)
    env = os.environ.get("URANIA_DATA_DIR")
    if env:
        return Path(env)
    return Path("tables")


def _dataset(args):
    from .dataset import default_elements_path, load_elements

    path = getattr(args, "elements", None) or default_elements_path()
    return load_elements(path)


def _double_shape(text):
    """The grid of a gen or census ``--double``: None for no option or 'none'."""
    from .tableio import parse_shape

    return None if text in (None, "none") else parse_shape(text)


def _observed(name: str) -> str:
    """``name``, unless it is the Earth, the observer of a geocentric command."""
    if name == "earth":
        raise DomainError("--planet earth: the Earth is the observer, not an observed body")
    return name


def _parse_date(text: str) -> float:
    from datetime import datetime

    from .juliandate import calendar_to_jd

    try:
        stamp = datetime.fromisoformat(text)
    except ValueError:
        raise DomainError(f"--date expects an ISO date-time, got {text!r}") from None
    if stamp.tzinfo is not None:
        raise DomainError("--date must be naive (no time zone); the engine has no time scale")
    frac = (
        stamp.hour * 3600.0 + stamp.minute * 60.0 + stamp.second + stamp.microsecond / 1e6
    ) / 86400.0
    return calendar_to_jd(stamp.year, stamp.month, stamp.day, frac)


def _query_jd(args) -> float:
    import math

    if args.jd is not None:
        if not math.isfinite(args.jd):
            raise DomainError("--jd must be finite")
        return args.jd
    return _parse_date(args.date)


def _emit(args, lines: list[str], payload: dict) -> None:
    if not getattr(args, "no_timestamp", False):
        from datetime import datetime

        payload["generated"] = datetime.now().isoformat(timespec="seconds")
        lines = [f"generated: {payload['generated']}"] + lines
    if getattr(args, "json", False):
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def cmd_gen(args) -> int:
    from .tableio import table_filename, write_table
    from .tables import calculation_census, census_line, compile_plan

    dataset = _dataset(args)
    if not (args.all or args.planet):
        raise DomainError("gen needs --planet NAME (repeatable) or --all")
    plan = compile_plan(dataset, dataset.names if args.all else args.planet, args.step_days,
                        _double_shape(args.double))
    out_dir = _table_dir(args)
    for path in (out_dir, *out_dir.parents):  # checked before the build, made after it
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"table directory {path} is not a directory")
            break
    census = calculation_census(plan)
    built = [builder(*build_args) for builder, build_args in plan]

    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / table_filename(table) for table in built]
    for table, path in zip(built, written):
        write_table(table, path)

    lines = [f"wrote {p}" for p in written] + [census_line(census)]
    totals = {key: census[key] for key in ("rows", "cells", "entries", "solver_calls")}
    payload = {"written": [str(p) for p in written], "census": totals}
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------


# Decimal places a degree line may ask for: 17 hold every digit a float64
# carries for an angle of 1 degree or more; --json carries the full value.
MAX_PRECISION = 17


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
    if not 0 <= p <= MAX_PRECISION:
        raise DomainError(f"--precision must be in 0..{MAX_PRECISION}, got {p}")
    lines = [f"planet: {args.planet}", f"jd: {jd!r}", f"mode: {args.mode}"]
    payload = {"planet": args.planet, "jd": jd, "mode": args.mode}
    _observed(args.planet)
    dataset, tables = _dataset(args), None
    if args.mode == "table":
        from .evaluate import load_tables

        tables = load_tables(_table_dir(args))
    if args.count_ops:
        from .evaluate import counted_query

        pos, counter = counted_query(args.mode, args.planet, jd, dataset=dataset, tables=tables)
    elif tables is None:
        from .geocentric import geocentric_at

        pos = geocentric_at(dataset[args.planet], dataset["earth"], jd)
    else:
        from .evaluate import geocentric_at_table

        pos = geocentric_at_table(tables, args.planet, jd)
    lines += _format_position(args, pos)
    payload.update(lam=pos.lam, beta=pos.beta, delta=pos.delta)

    if args.heliocentric:
        if tables is None:
            from .geocentric import rect_to_spherical
            from .kepler import cached_frame, heliocentric_xyz, position_since_aphelion

            el = dataset[args.planet]
            dt = jd - el.T_aph
            l, b, _ = rect_to_spherical(heliocentric_xyz(el, cached_frame(el), dt))
            r = position_since_aphelion(el, dt)[1]
            lines += [f"helio_l: {l:.{p}f}", f"helio_b: {b:.{p}f}", f"helio_r: {r:.6f}"]
            payload.update(helio_l=l, helio_b=b, helio_r=r)
        else:
            from .evaluate import heliocentric_at_table

            nu, r = heliocentric_at_table(tables, args.planet, jd)
            lines += [f"nu_aph: {nu:.{p}f}", f"r: {r:.6f}"]
            payload.update(nu_aph=nu, r=r)
    if tables is not None and _stale(args, tables, dataset, {"planet": args.planet, "jd": jd}):
        return 1

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
    from .compare import double_errors, single_errors, sweep
    from .tableio import parse_shape
    from .tables import build_double_entry, build_planet_table

    limit = args.max_lambda_err
    if limit is not None and not 0.0 <= limit < float("inf"):
        raise DomainError(f"--max-lambda-err must be finite and >= 0, got {limit!r}")
    dataset = _dataset(args)
    planet_el = dataset[args.planet]
    jd_start = args.from_jd
    jd_end = args.to_jd if args.to_jd is not None else jd_start + args.span_days
    if args.kind == "double":
        _observed(args.planet)
        earth_el = dataset["earth"]
        n_u, n_v = parse_shape(args.double)
        table = build_double_entry(planet_el, earth_el, n_u, n_v)
        config = f"double {n_u}x{n_v}"
        errors = double_errors(planet_el, earth_el, table)
    else:
        table = build_planet_table(planet_el, args.step_days)
        config = f"single rows={table.n} du={table.du!r}"
        errors = single_errors(planet_el, table)
    stats = sweep(errors, jd_start, jd_end, args.samples)
    lines = [
        f"planet: {planet_el.name}",
        f"config: {config}",
        f"jd: [{jd_start!r}, {jd_end!r}) samples={args.samples}",
    ]
    names = [key[len("max_"):] for key in stats if key.startswith("max_")]
    for name in names:
        lines.append(f"{name}: max={stats['max_' + name]:.3e} mean={stats['mean_' + name]:.3e}")
    payload = {"planet": planet_el.name, "jd_start": jd_start, "jd_end": jd_end,
               "samples": args.samples, "table_config": config, **stats}
    status = 0
    angle_max = stats["max_" + names[0]]  # lambda for a double table, nu for a single one
    if limit is not None and angle_max > limit:
        lines.append(f"threshold exceeded: max angle error {angle_max:.3e} > {limit:.3e}")
        payload["threshold_exceeded"] = True
        status = 1
    _emit(args, lines, payload)
    return status


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _count_both_modes(queries, dataset, tables):
    """Count every (planet, jd) query through ``evaluate.counted_query``, all in
    table mode, then all in direct mode, each mode timed. Returns {mode: (total
    OpCounter, wall seconds)} and {kind: message} for each kind of breach of
    the paper's contract that occurs; the messages say what each kind is."""
    import time

    from .evaluate import counted_query
    from .opcount import OpCounter

    totals, tallies = {}, {}
    for mode in ("table", "direct"):
        total, tallies[mode] = OpCounter(), []
        t0 = time.perf_counter()
        for planet, jd in queries:
            _, c = counted_query(mode, planet, jd, dataset=dataset, tables=tables)
            total.merge(c)
            tallies[mode].append(c)
        totals[mode] = (total, time.perf_counter() - t0)
    table, direct = tallies["table"], tallies["direct"]
    breaches = {
        "table": (sum(c.transcendental_calls > 0 for c in table),
                  "table queries used transcendental calls"),
        "direct": (sum(c.transcendental_calls <= 0 for c in direct),
                   "direct queries reported no transcendental calls"),
        "cost": (sum(t.total_ops() >= d.total_ops() for t, d in zip(table, direct)),
                 "table queries cost no fewer ops than in direct mode"),
    }
    return totals, {kind: f"{n} {what}" for kind, (n, what) in breaches.items() if n}


def cmd_bench(args) -> int:
    import random

    from .evaluate import load_tables
    from .opcount import OpCounter, twin
    from .tableio import double_planets

    if args.queries < 1:
        raise DomainError(f"--queries must be >= 1, got {args.queries}")
    dataset = _dataset(args)
    table_dir = _table_dir(args)
    tables = load_tables(table_dir)
    planets = list(dict.fromkeys(args.planet)) if args.planet else double_planets(table_dir)
    for name in planets:
        tables.double_for(_observed(name))
    if not planets:
        raise TableNotFoundError(
            "no double-entry tables loaded; run 'urania gen --all --double 64x64'"
        )
    if _stale(args, tables, dataset, {"planets": planets}):
        return 1

    rng = random.Random(args.seed)
    jd0 = 2451545.0
    queries = [(planets[i % len(planets)], jd0 + rng.uniform(-36525.0, 36525.0))
               for i in range(args.queries)]

    lines = [f"planets: {','.join(planets)}"]
    payload = {"planets": planets, "queries": args.queries}
    totals, breaches = _count_both_modes(queries, dataset, tables)
    for mode, (total, wall) in totals.items():
        line = (
            f"mode={mode} queries={args.queries} adds={total.adds} muls={total.muls} "
            f"transcendental={total.transcendental_calls} row_accesses={total.row_accesses} "
            f"total_ops={total.total_ops()}"
        )
        payload[mode] = total.as_dict()
        if not args.no_timestamp:
            line += f" wall={wall:.3f}s"
            payload[f"{mode}_wall_s"] = wall
        lines.append(line)
    # A direct query's frames are counted once per element set, not per query
    frame = OpCounter()
    twin("orbit_frame")(frame, dataset["earth"])
    lines.append(
        "frame_ops per element set: adds={adds} muls={muls} transcendental={transcendental_calls} "
        "total={total}".format(**frame.as_dict())
    )
    payload["frame_ops"] = frame.as_dict()
    for kind, breach in breaches.items():
        lines.append(f"FAIL: {breach}")
        payload[f"{kind}_contract"] = "fail"
    _emit(args, lines, payload)
    return 1 if breaches else 0


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------


def cmd_census(args) -> int:
    from .tables import calculation_census, census_line, compile_plan

    dataset = _dataset(args)
    double_shape = _double_shape(args.double)
    plan = compile_plan(dataset, dataset.names, args.step_days, double_shape)
    census = calculation_census(plan)
    lines = [f"single {name}: rows={rows}" for name, rows in census["single_rows"].items()]
    lines += [f"double {pair}: cells={cells}" for pair, cells in census["double_cells"].items()]
    lines.append(census_line(census))
    payload = {"step_days": args.step_days,
               "double_shape": list(double_shape) if double_shape else None, **census}
    if args.measure_ops:
        from .opcount import measure_compile_ops

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


def _check_knot_exactness(tables) -> None:
    from .evaluate import lookup_grid, lookup_planet

    for name, table in sorted(tables.single.items()):
        for k, knot in enumerate(table.rows):
            # float.hex, so that a stored -0.0 must come back as -0.0
            if list(map(float.hex, lookup_planet(table, float(k)))) != list(map(float.hex, knot)):
                raise AssertionError(f"{name}: lookup at row {k} altered stored values")
    for name, table in sorted(tables.double.items()):
        for iu in range(table.n_u):
            for iv in range(table.n_v):
                got = lookup_grid(table, float(iu), float(iv))
                if list(map(float.hex, got)) != list(map(float.hex, table.knot(iu, iv))):
                    raise AssertionError(f"{name}: lookup at cell ({iu},{iv}) altered stored values")


def _stale(args, tables, dataset, payload) -> bool:
    """Whether the TableSet ``tables`` holds a table compiled from elements other
    than ``dataset``'s; if so, emit ``FAIL table-elements`` with ``payload``."""
    from .tableio import table_filename

    read = [(table_filename(t), t) for t in (*tables.double.values(), *tables.single.values())]
    try:
        _check_table_elements(read, dataset)
    except AssertionError as exc:
        _emit(args, [f"FAIL table-elements: {exc}"],
              {**payload, "table_elements": "fail", "error": str(exc)})
        return True
    return False


def _check_table_elements(read, dataset) -> None:
    """Each table's header elements against the dataset's record of the same
    body: a table compiled from other elements is stale."""
    for filename, table in read:
        held = [table.planet, table.earth] if hasattr(table, "planet") else [table.elements]
        for el in held:
            if el.name not in dataset:
                raise AssertionError(f"{filename}: the dataset has no body named {el.name!r}")
            expected = dataset[el.name]
            if el != expected:
                field = next(f for f, x, y in zip(el._fields, el, expected) if x != y)
                raise AssertionError(
                    f"{filename}: {el.name} {field} is {getattr(el, field)!r} in the table "
                    f"but {getattr(expected, field)!r} in the dataset; regenerate the table "
                    "or pass the --elements it was compiled from"
                )


def cmd_validate(args) -> int:
    from .evaluate import load_tables
    from .tableio import read_table, table_paths

    def dataset_check():
        if "earth" not in _dataset(args):
            raise AssertionError("dataset lacks an 'earth' entry")

    checks = [("elements-dataset", dataset_check)]
    table_dir = _table_dir(args)
    table_files = table_paths(table_dir)
    read = []  # (file name, table) of each file table-files read

    def table_files_check():
        loaded = load_tables(table_dir)  # fails a path that is not a directory
        for path in table_files:
            table = read_table(path)
            loaded.add(table)
            read.append((path.name, table))
        _check_knot_exactness(loaded)

    if table_files or (table_dir.exists() and not table_dir.is_dir()):
        checks.append(("table-files", table_files_check))
    if table_files:
        checks.append(("table-elements", lambda: _check_table_elements(read, _dataset(args))))

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
    p.add_argument("--precision", type=int, default=4,
                   help=f"decimal places for degrees, 0 to {MAX_PRECISION}")
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

    p = sub.add_parser("validate", help="check the elements dataset and the table files "
                       "against it: each reads, keeps its knots and holds the dataset's elements")
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
    except DegenerateGeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
