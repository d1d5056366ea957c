"""Command-line front end.

Subcommands: exponent | occupancy | codebook | simulate | sweep.
Common flags: --config (JSON file of defaults; explicit flags win), --seed,
--workers, --format {csv,json}, --out.

Exit codes: 0 success, 2 domain/hypothesis error, 3 construction shortfall,
4 capacity guard.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import balls_bins, channel, codebook as cbk, exponents
from ._files import atomic_open, load_json
from .errors import CapacityError, DomainError, ShortfallError
from .params import ScalingParams

SCHEMA_PREFIX = "dnastore.v1"


def fig1_default_grid() -> tuple[list[float], list[float]]:
    """Default exponent grid: c in {0.5, 1.5}, delta on a 0.01 lattice plus a
    log-spaced small-delta zoom down to 1e-8."""
    cs = [0.5, 1.5]
    lattice = [round(0.01 * i, 2) for i in range(1, 100)]
    zoom = [float(d) for d in np.logspace(-8, -2, 25)]
    deltas = sorted(set(lattice + zoom))
    return cs, deltas


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    loaded = load_json(path, "config file")
    if not isinstance(loaded, dict):
        raise DomainError("config file must hold a JSON object")
    return loaded


def _pick(args, config: dict, dest: str, default=None, kind=None):
    """The flag dest, else the config's non-null value, else default, as kind
    (a type, or [type] for a list); a config value that won't do is refused."""
    value = getattr(args, dest, None)
    if value is None:
        value = default if config.get(dest) is None else config[dest]
    if value is None or kind is None:
        return value
    try:
        if isinstance(kind, list) != isinstance(value, list):
            raise TypeError
        return [kind[0](v) for v in value] if isinstance(kind, list) else kind(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"cannot read {dest} from {value!r}") from None


def _output(args, config: dict, default_out=None) -> tuple[str | None, str]:
    """The command's (out, format), each from its flag, else the config,
    else default_out and json."""
    fmt = _pick(args, config, "format", "json")
    if fmt not in ("csv", "json"):
        raise DomainError(f"unknown output format {fmt!r}")
    return _pick(args, config, "out", default_out, str), fmt


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(out, fmt, schema, config, header, rows, extra=None, metadata=None):
    """rows: list of dicts keyed by header entries; metadata joins the JSON
    metadata block (CSV tables have none)."""
    if fmt == "csv":
        with _open_out(out) as fh:
            fh.write(f"# schema: {schema}\n")
            compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
            fh.write(f"# config: {compact}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt_cell(row.get(col)) for col in header])
    else:
        payload = {
            "schema": schema,
            "config": config,
            "metadata": {"generated_at": _timestamp(), **(metadata or {})},
            "rows": rows,
        }
        if extra:
            payload.update(extra)
        _dump_json(out, payload)


def _dump_json(out, payload):
    with _open_out(out) as fh:
        json.dump(
            payload, fh, sort_keys=True, indent=2, allow_nan=False, default=_json_default
        )
        fh.write("\n")


def _json_default(value):
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    raise TypeError(f"not JSON serializable: {value!r}")


def _open_out(out):
    """A context manager over stdout for None or "-", else over a file that
    replaces out only once it is written whole."""
    if out in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return atomic_open(out)


def _finite_or_none(x: float):
    return None if x == float("-inf") else x


# ----------------------------------------------------------------- exponent


def cmd_exponent(args) -> int:
    config = _load_config(args.config)
    cs = _pick(args, config, "c", kind=[float])
    deltas = _pick(args, config, "delta", kind=[float])
    if cs is None and deltas is None:
        cs, deltas = fig1_default_grid()
    elif cs is None or deltas is None:
        raise DomainError("give both --c and --delta, or neither for the preset grid")
    tol = _pick(args, config, "tol", exponents.DEFAULT_ROOT_TOL, float)
    rows = []
    for c in cs:
        for delta in deltas:
            params = exponents.ExponentParams(c=c, delta=delta)
            res = exponents.exponent_multinomial(params, tol)
            rows.append(
                {
                    "c": c,
                    "delta": delta,
                    "r": res.r,
                    "f_multinomial": res.f_value,
                    "f_poisson": exponents.exponent_poisson(params),
                    "regime": res.regime,
                }
            )
    resolved = {"command": "exponent", "c": cs, "delta": deltas, "tol": tol,
                "seed": _pick(args, config, "seed", kind=int)}
    _write_table(
        *_output(args, config),
        f"{SCHEMA_PREFIX}.exponent",
        resolved,
        ["c", "delta", "r", "f_multinomial", "f_poisson", "regime"],
        rows,
    )
    return 0


# ---------------------------------------------------------------- occupancy


def cmd_occupancy(args) -> int:
    config = _load_config(args.config)
    cell_cap = _pick(args, config, "cell_cap", balls_bins.DEFAULT_CELL_CAP, int)
    dist_m = _pick(args, config, "dist_M", kind=int)
    dist_n = _pick(args, config, "dist_N", kind=int)
    if dist_m is not None or dist_n is not None:
        if dist_m is None or dist_n is None:
            raise DomainError("distribution mode needs both --dist-M and --dist-N")
        return _occupancy_distribution(args, config, dist_m, dist_n, cell_cap)
    c = _pick(args, config, "c", kind=float)
    delta = _pick(args, config, "delta", kind=float)
    if c is None or delta is None:
        raise DomainError("convergence mode needs --c and --delta")
    grid = _pick(args, config, "M_grid", [100, 200, 400, 800, 1600], [int])
    limit = exponents.exponent_multinomial(exponents.ExponentParams(c, delta)).f_value
    rows = []
    for M in grid:
        N = max(1, balls_bins._half_up(c * M))
        K = min(M, balls_bins._half_up(delta * M))
        log_p = balls_bins.p_occupancy(balls_bins.OccupancyQuery(N=N, M=M, K=K), cell_cap)
        # K = 0 with N >= 1 is a degenerate zero-probability row; emitted
        # as-is but excluded from the convergence summary
        degenerate = log_p == float("-inf")
        exponent = None if degenerate else -log_p / M
        rows.append(
            {
                "M": M,
                "N": N,
                "K": K,
                "log_p": _finite_or_none(log_p),
                "exponent": exponent,
                "f_limit": limit,
                "gap": None if degenerate else abs(exponent - limit),
            }
        )
    gaps = [row["gap"] for row in rows if row["gap"] is not None]
    summary = {
        "f_limit": limit,
        "final_gap": gaps[-1] if gaps else None,
        "gaps_strictly_decreasing": all(a > b for a, b in zip(gaps, gaps[1:])),
        "degenerate_rows": sum(1 for row in rows if row["gap"] is None),
    }
    resolved = {
        "command": "occupancy",
        "c": c,
        "delta": delta,
        "M_grid": grid,
        "cell_cap": cell_cap,
        "rounding": "half-up; N clamped to >= 1, K to <= M",
        "seed": _pick(args, config, "seed", kind=int),
    }
    _write_table(
        *_output(args, config),
        f"{SCHEMA_PREFIX}.occupancy.convergence",
        resolved,
        ["M", "N", "K", "log_p", "exponent", "f_limit", "gap"],
        rows,
        extra={"summary": summary},
    )
    return 0


def _occupancy_distribution(args, config, M, N, cell_cap) -> int:
    dist = balls_bins.distinct_count_dp(M, N, cell_cap)
    rows = [
        {"k": k, "log_pmf": _finite_or_none(float(lp)), "pmf": float(math.exp(lp))}
        for k, lp in enumerate(dist.log_pmf)
    ]
    resolved = {
        "command": "occupancy",
        "dist_M": M,
        "dist_N": N,
        "cell_cap": cell_cap,
        "seed": _pick(args, config, "seed", kind=int),
    }
    _write_table(
        *_output(args, config),
        f"{SCHEMA_PREFIX}.occupancy.distribution",
        resolved,
        ["k", "log_pmf", "pmf"],
        rows,
    )
    return 0


# ----------------------------------------------------------------- codebook


def _build_codebook(args, config, seed: int) -> tuple[cbk.Codebook, dict, object]:
    """Returns (codebook or partial, resolved build config, shortfall or None)."""
    M = _pick(args, config, "M", 16, int)
    inner = _pick(args, config, "inner_size", 64, int)
    N = _pick(args, config, "N", 2 * M, int)
    target_j = _pick(args, config, "target_J", 100, int)
    cap = _pick(args, config, "cap", kind=int)
    budget = _pick(args, config, "budget", max(100 * target_j, 10_000), int)
    kind = _pick(args, config, "kind", "index")
    t = _pick(args, config, "t", kind=float)
    scaling = ScalingParams(
        M=M, inner_size=inner, N=N, J=target_j, p_seq=_picked_p(args, config)
    )
    resolved = {
        "M": M,
        "inner_size": inner,
        "N": N,
        "target_J": target_j,
        "cap": cap,
        "budget": budget,
        "kind": kind,
        "t": t,
        "build_seed": seed,
    }
    shortfall = None
    try:
        if kind == "index":
            if cap is None:
                raise DomainError("index builds need --cap")
            built = cbk.greedy_index_codebook(scaling, cap, target_j, seed, budget)
        elif kind == "repetition":
            if t is None:
                raise DomainError("repetition builds need --t")
            built = cbk.repetition_codebook(
                scaling,
                t,
                target_j,
                seed=seed,
                attempt_budget=budget,
                intersection_cap=cap,
            )
        else:
            raise DomainError(f"unknown codebook kind {kind!r}")
    except ShortfallError as exc:
        built = exc.partial
        shortfall = exc
    return built, resolved, shortfall


def _separation_report(cb: cbk.Codebook, cap) -> dict:
    observed, witness = cb.max_intersection() if len(cb) >= 2 else (0, None)
    scaling = cb.scaling
    j_eff = scaling.J if scaling.J is not None else 2 * len(cb)
    bounds = cbk.compute_separation_bounds(scaling.M, j_eff, scaling.alpha)
    return {
        "size": len(cb),
        "max_intersection": observed,
        "witness_pair": list(witness) if witness else None,
        "cap": cap,
        "cap_satisfied": None if cap is None else observed <= cap,
        "K1_upper": bounds.K1_upper,
        "K2_lower": bounds.K2_lower,
        "K3_lower": bounds.K3_lower,
        "bound_notes": list(bounds.notes),
    }


def cmd_codebook(args) -> int:
    config = _load_config(args.config)
    seed = _pick(args, config, "seed", 0, int)
    built, resolved, shortfall = _build_codebook(args, config, seed)
    out = _output(args, config, "codebook.json")[0]
    # the scan may refuse the codebook: nothing is written before it
    report = _separation_report(built, resolved.get("cap"))
    cbk.save_codebook(built, out)
    if shortfall is not None:
        report["shortfall"] = {
            "achieved": shortfall.achieved,
            "target": shortfall.target,
        }
    payload = {
        "schema": f"{SCHEMA_PREFIX}.codebook.report",
        "config": {"command": "codebook", **resolved, "out": out},
        "metadata": {"generated_at": _timestamp()},
        "report": report,
    }
    _dump_json(out + ".report.json", payload)
    status = "SHORTFALL" if shortfall else "ok"
    print(
        f"codebook {status}: size={report['size']} "
        f"max_intersection={report['max_intersection']} -> {out}"
    )
    return 3 if shortfall else 0


# ----------------------------------------------------------------- simulate


def _simulation_codebook(args, config, seed) -> tuple[cbk.Codebook, dict]:
    """The stored codebook named by --codebook, or one built from the build
    options; returns (codebook, resolved build config)."""
    path = _pick(args, config, "codebook", kind=str)
    if path:
        return cbk.load_codebook(path), {"codebook": path}
    cb, build_cfg, shortfall = _build_codebook(args, config, seed)
    if shortfall is not None:
        raise shortfall
    return cb, build_cfg


def _channel_setup(args, config, p: float):
    """Returns (error model at sequencing error probability p, decoder
    config, trials)."""
    kind = _pick(args, config, "model", "none")
    # other models ignore a given pair; the adversarial model needs one
    pair = _pick(args, config, "attack_pair", kind=[int])
    pair = tuple(pair) if kind == "adversarial" and pair is not None else None
    model = channel.SequencingErrorModel(kind, 0.0 if kind == "none" else p, pair)
    dec = channel.DecoderConfig(
        rule=_pick(args, config, "decoder", "distinct_intersection"),
        epsilon=_pick(args, config, "epsilon", 0.05, float),
        eta=_pick(args, config, "eta", 0.5, float),
    )
    trials = _pick(args, config, "trials", 10_000, int)
    return model, dec, trials


def _picked_p(args, config) -> float:
    return _pick(args, config, "p", 0.0, float) or 0.0


def _bound_rows(cb: cbk.Codebook, model, report) -> list[dict]:
    scaling = cb.scaling
    M, alpha = scaling.M, scaling.alpha
    j_eff = scaling.J if scaling.J is not None else 2 * len(cb)
    K1 = cb.max_intersection()[0]
    try:
        K2 = cbk.k2_lower_bound(M, j_eff, alpha)
    except DomainError:
        K2 = 0
    rows = []
    try:
        if model.kind == "none":
            lower, upper = channel.bound_no_seq(scaling, K1, K2)
            name = "no_sequencing_errors"
        elif model.kind == "erasure":
            lower, upper = channel.bound_erasure(scaling, K1, K2, model.p)
            name = "erasure"
        elif model.kind == "random":
            lower, upper = channel.bound_random(
                scaling, K1, model.p, j_eff, alpha, K2=K2
            )
            name = "random"
        else:
            lower, upper = channel.bound_adversarial(scaling, K1, K2, model.p)
            name = "adversarial"
    except DomainError as exc:
        return [{"bound": model.kind, "note": str(exc)}]
    log_p_hat = math.log(report.p_hat) if report.p_hat > 0 else None
    # empirical upper confidence for the lower-bound bracket when p_hat == 0
    ucb = report.p_hat + 4.0 * max(report.std_err, 1.0 / report.trials)
    rows.append(
        {
            "bound": name,
            "K1": K1,
            "K2": K2,
            "log_lower": _finite_or_none(lower),
            "log_p_hat": log_p_hat,
            "log_upper": _finite_or_none(upper),
            "lower_consistent": lower <= math.log(ucb),
        }
    )
    return rows


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    seed = _pick(args, config, "seed", 0, int)
    workers = _pick(args, config, "workers", 1, int)
    cb, build_cfg = _simulation_codebook(args, config, seed)
    model, dec, trials = _channel_setup(args, config, _picked_p(args, config))
    report = channel.estimate_error_probability(cb, model, dec, trials, seed, workers)
    route = channel.score_route(cb, model, dec.rule)
    bounds = _bound_rows(cb, model, report)
    resolved = {
        "command": "simulate",
        **build_cfg,
        "model": model.kind,
        "p": model.p,
        "attack_pair": list(model.attack_pair) if model.attack_pair else None,
        "decoder": dec.rule,
        "epsilon": dec.epsilon,
        "eta": dec.eta,
        "trials": trials,
        "seed": seed,
        "workers": workers,
    }
    payload = {
        "schema": f"{SCHEMA_PREFIX}.simulate.report",
        "config": resolved,
        "metadata": {
            "generated_at": _timestamp(),
            "wall_time_s": report.wall_time_s,
            "score_route": route,
        },
        "report": report.comparable_dict(),
        "bounds": bounds,
    }
    out, fmt = _output(args, config, "-")
    _dump_json(out, payload)
    if fmt == "csv" and out != "-":
        _write_table(
            out + ".causes.csv",
            "csv",
            f"{SCHEMA_PREFIX}.simulate.causes",
            resolved,
            ["cause", "count"],
            [{"cause": c, "count": n} for c, n in report.failure_causes.items()],
        )
    return 0


# -------------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    seed = _pick(args, config, "seed", 0, int)
    workers = _pick(args, config, "workers", 1, int)
    param = _pick(args, config, "param", "p")
    values = _pick(args, config, "values", kind=[float])
    if not values:
        raise DomainError("sweep needs --values")
    if param not in ("p", "N"):
        raise DomainError("sweep parameter must be one of: p, N")
    for value in values if param == "N" else ():
        if not value.is_integer():
            raise DomainError(f"sweep over N needs integer values, got {value}")
    if param == "p" and _pick(args, config, "model", "none") == "none":
        raise DomainError("sweep over p needs an error model: the none model ignores p")
    cb, _ = _simulation_codebook(args, config, seed)
    if param == "N":
        model, dec, trials = _channel_setup(args, config, _picked_p(args, config))
    rows = []
    routes = []
    for value in values:
        if param == "p":
            model, dec, trials = _channel_setup(args, config, value)
        else:
            # replace() also carries the cached separation scan, which
            # depends on the codewords alone
            cb = dataclasses.replace(
                cb, scaling=dataclasses.replace(cb.scaling, N=int(value))
            )
        report = channel.estimate_error_probability(
            cb, model, dec, trials, seed, workers
        )
        routes.append(channel.score_route(cb, model, dec.rule))
        rows.append(
            {
                "param": param,
                "value": value,
                "trials": report.trials,
                "errors": report.errors,
                "p_hat": report.p_hat,
                "std_err": report.std_err,
            }
        )
    resolved = {
        "command": "sweep",
        "param": param,
        "values": values,
        "seed": seed,
        "workers": workers,
    }
    _write_table(
        *_output(args, config),
        f"{SCHEMA_PREFIX}.sweep",
        resolved,
        ["param", "value", "trials", "errors", "p_hat", "std_err"],
        rows,
        metadata={"score_route": routes},
    )
    return 0


# ------------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of parameter defaults")
    sub.add_argument("--seed", type=int, help="master seed (default 0)")
    sub.add_argument("--workers", type=int, help="worker processes (default 1)")
    sub.add_argument("--format", choices=("csv", "json"), help="(default json)")
    sub.add_argument("--out", help="output path (default stdout)")


def _add_build_options(sub):
    sub.add_argument("--M", type=int, help="molecules per codeword")
    sub.add_argument("--inner-size", dest="inner_size", type=int)
    sub.add_argument("--N", type=int, help="reads per trial")
    sub.add_argument("--target-J", dest="target_J", type=int)
    sub.add_argument("--cap", type=int, help="pairwise intersection cap")
    sub.add_argument("--budget", type=int, help="greedy attempt budget")
    sub.add_argument("--kind", choices=("index", "repetition"))
    sub.add_argument("--t", type=float, help="repetition support exponent")


def _add_channel_options(sub):
    sub.add_argument("--codebook", help="load a stored codebook instead of building")
    sub.add_argument("--model", choices=channel.MODEL_KINDS)
    sub.add_argument("--p", type=float, help="sequencing error probability")
    sub.add_argument("--attack-pair", dest="attack_pair", type=int, nargs=2)
    sub.add_argument("--decoder", choices=channel.DECODER_RULES)
    sub.add_argument("--epsilon", type=float)
    sub.add_argument("--eta", type=float)
    sub.add_argument("--trials", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnastore",
        description="Exact exponents, occupancy laws, codebooks and channel "
        "simulation for concatenated DNA storage codes",
    )
    subs = parser.add_subparsers(dest="command")

    sub = subs.add_parser("exponent", help="exponent tables over a (c, delta) grid")
    _add_common(sub)
    sub.add_argument("--c", type=float, nargs="+")
    sub.add_argument("--delta", type=float, nargs="+")
    sub.add_argument("--tol", type=float)
    sub.set_defaults(func=cmd_exponent)

    sub = subs.add_parser(
        "occupancy", help="exact distinct-count laws and exponent convergence"
    )
    _add_common(sub)
    sub.add_argument("--c", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--M-grid", dest="M_grid", type=int, nargs="+")
    sub.add_argument("--dist-M", dest="dist_M", type=int)
    sub.add_argument("--dist-N", dest="dist_N", type=int)
    sub.add_argument("--cell-cap", dest="cell_cap", type=int)
    sub.set_defaults(func=cmd_occupancy)

    sub = subs.add_parser("codebook", help="build a codebook and analyze separation")
    _add_common(sub)
    _add_build_options(sub)
    sub.set_defaults(func=cmd_codebook)

    sub = subs.add_parser("simulate", help="Monte-Carlo error probability + bounds")
    _add_common(sub)
    _add_build_options(sub)
    _add_channel_options(sub)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("sweep", help="repeat a simulation across one parameter")
    _add_common(sub)
    _add_build_options(sub)
    _add_channel_options(sub)
    sub.add_argument("--param", choices=("p", "N"))
    sub.add_argument("--values", type=float, nargs="+")
    sub.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 0
    try:
        return args.func(args) or 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ShortfallError as exc:
        print(f"shortfall: {exc} (achieved {exc.achieved}/{exc.target})", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
