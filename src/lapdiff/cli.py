"""Command line interface wiring the library together.

Subcommands
-----------
gen             write a synthetic two-regime scenario (five matrix CSVs plus a manifest)
estimate        estimate the sparse difference from sample or covariance CSVs
experiment      run a sweep variant: synth, power, or plugin-compare
parse-matpower  convert a power case file into Laplacian CSVs

Exit codes are a stable scripting contract: 0 success, 2 invalid input,
3 numerical failure, 4 I/O failure (a lost sweep worker included), 130
interrupted. An interrupted sweep flushes its completed rows before
exiting.

Experiment settings can come from a flat `key = value` config file
(`#` comments allowed); any setting can also be given as a flag, and flags
win over file values. Matrices travel as headerless CSV, samples with a
`# n=<n> p=<p>` header line, both at 9 significant digits.
"""

import argparse
import math
import os
import signal
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from .errors import CaseFileError, InvalidInputError, NotPsdError, NumericalError
from .estimator import SolverConfig, default_lambda, estimate_delta, plugin_delta
from .experiments import (
    ESTIMATOR_TAGS,
    SIGMA_KINDS,
    ExperimentConfig,
    GridDeltaSpec,
    MatpowerBaseSpec,
    RandomBaseSpec,
    SigmaSpec,
    SweepInterrupted,
    draw_scenario,
    run_sweep,
    write_sweep_csv,
)
from .matio import (
    TEXT_PRECISION,
    parse_float,
    parse_float_list,
    parse_int,
    parse_int_list,
    read_keyvalue,
    read_matrix_csv,
    read_samples_csv,
    require_readable,
    write_keyvalue,
    write_matrix_csv,
)
from .matpower import WEIGHT_MODES, case_laplacian, parse_case
from .network import SIGN_MODES, reduce_ground_node
from .sampling import precision_factor, precision_factor_from_covariance

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_INTERRUPTED = 130


def _parse_word(text, key):
    return text.strip()


def _parse_word_list(text, key):
    return tuple(tok for tok in text.replace(",", " ").split() if tok)


class _Key(NamedTuple):
    """One setting: the parser of its text, plus the choices and help of its flag."""

    parse: Callable[[str, str], object]
    choices: tuple | None = None
    help: str | None = None


def _settings(args, keys):
    """The settings that were set, parsed: config-file values, then flags, so flags win."""
    settings = {}
    if getattr(args, "config", None) is not None:
        require_readable(args.config, "config")
        for key, text in read_keyvalue(args.config).items():
            if key not in keys:
                raise InvalidInputError(
                    f"config key {key!r} is not valid for this experiment variant"
                )
            settings[key] = keys[key].parse(text, key)
    for key, spec in keys.items():
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = spec.parse(flag, key)
    return settings


def _pick(settings, *keys, **renamed):
    """Keyword arguments for the keys that were set; renamed maps field=key.

    Keys left unset are left out, so the receiving dataclass applies its
    own default.
    """
    fields = dict(zip(keys, keys), **renamed)
    return {field: settings[key] for field, key in fields.items() if key in settings}


def _pick_range(settings, field, lo_key, hi_key, spec):
    """{field: (lo, hi)} when either end was set; an unset end keeps spec's default."""
    if lo_key not in settings and hi_key not in settings:
        return {}
    lo, hi = getattr(spec, field)
    return {field: (settings.get(lo_key, lo), settings.get(hi_key, hi))}


# Each table declares the settings of one command or experiment variant; the
# flags are generated from it and config files are checked against it.
_SCENARIO_KEYS = {
    "weight_min": _Key(parse_float),
    "weight_max": _Key(parse_float),
    "sign_mode": _Key(_parse_word, choices=SIGN_MODES),
    "sigma": _Key(_parse_word, choices=SIGMA_KINDS),
    "sigma_min": _Key(parse_float),
    "sigma_max": _Key(parse_float),
    "sigma_condition": _Key(parse_float),
}

_SOLVER_KEYS = {
    "lambda_scale": _Key(parse_float),
    "rho": _Key(parse_float),
    "max_iter": _Key(parse_int),
}

_GEN_KEYS = dict(
    _SCENARIO_KEYS, density=_Key(parse_float), margin=_Key(parse_float), scale=_Key(parse_float)
)

_COMMON_EXPERIMENT_KEYS = dict(
    _SCENARIO_KEYS,
    **_SOLVER_KEYS,
    instances=_Key(parse_int),
    support_epsilon=_Key(parse_float),
    seed=_Key(parse_int),
    estimators=_Key(_parse_word_list, help="comma list from: " + ", ".join(ESTIMATOR_TAGS)),
    sample_sizes=_Key(parse_int_list, help="comma list of explicit n values"),
)

_RATIOS_KEY = _Key(parse_float_list, help="comma list of rescaled sample sizes")

_SYNTH_KEYS = dict(
    _COMMON_EXPERIMENT_KEYS,
    dims=_Key(parse_int_list, help="comma list of matrix dimensions"),
    ratios=_RATIOS_KEY,
    density=_Key(parse_float),
    margin=_Key(parse_float),
    base_scale=_Key(parse_float),
)

_POWER_KEYS = dict(
    _COMMON_EXPERIMENT_KEYS,
    ratios=_RATIOS_KEY,
    case=_Key(_parse_word, help="case file path (default: bundled 118-bus case)"),
    weight_mode=_Key(_parse_word, choices=WEIGHT_MODES),
    base_scale=_Key(parse_float),
)

_PLUGIN_COMPARE_KEYS = dict(
    _COMMON_EXPERIMENT_KEYS,
    p=_Key(parse_int),
    densities=_Key(parse_float_list, help="comma list of base matrix densities"),
    margin=_Key(parse_float),
    base_scale=_Key(parse_float),
)


@contextmanager
def _termination_as_interrupt():
    """Route SIGTERM through the KeyboardInterrupt path, so it exits 130 and sweeps flush rows."""
    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:
        pass
    try:
        yield
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _delta_spec(settings):
    return GridDeltaSpec(
        **_pick(settings, "sign_mode"),
        **_pick_range(settings, "weight_range", "weight_min", "weight_max", GridDeltaSpec),
    )


def _sigma_spec(settings):
    return SigmaSpec(
        **_pick(settings, kind="sigma", condition="sigma_condition"),
        **_pick_range(settings, "value_range", "sigma_min", "sigma_max", SigmaSpec),
    )


def cmd_gen(args):
    if args.p < 4 or math.isqrt(args.p) ** 2 != args.p:
        raise InvalidInputError(f"gen needs p = k*k with k >= 2, got p = {args.p}")
    if args.seed < 0:
        raise InvalidInputError(f"seed must be an integer >= 0, got {args.seed}")
    settings = _settings(args, _GEN_KEYS)
    delta_spec = _delta_spec(settings)
    base_spec = RandomBaseSpec(**_pick(settings, "density", "margin", "scale"))
    sigma_spec = _sigma_spec(settings)
    scenario = draw_scenario(args.p, args.seed, delta_spec, base_spec, sigma_spec)

    os.makedirs(args.out, exist_ok=True)
    for name in ("b1", "b2", "delta_true", "sigma_x1", "sigma_x2"):
        write_matrix_csv(os.path.join(args.out, f"{name}.csv"), getattr(scenario, name))
    write_keyvalue(
        os.path.join(args.out, "manifest.txt"),
        {
            "command": "gen",
            "p": args.p,
            "delta": "grid",
            "seed": args.seed,
            "density": base_spec.density,
            "margin": base_spec.margin,
            "scale": base_spec.scale,
            "weight_min": delta_spec.weight_range[0],
            "weight_max": delta_spec.weight_range[1],
            "sign_mode": delta_spec.sign_mode,
            "sigma": sigma_spec.kind,
            "sigma_min": sigma_spec.value_range[0],
            "sigma_max": sigma_spec.value_range[1],
            "sigma_condition": sigma_spec.condition,
        },
    )
    print(f"wrote scenario p={args.p} to {args.out}")
    return EXIT_OK


def _load_estimate_inputs(args):
    """Check the inputs against every rule, then read both regimes.

    Returns (flags, data, sigmas, counts, factor): each regime's input
    flag, its sample array or covariance, its injection covariance (the
    identity under the sqrt estimator) and its number of observations, as
    two-item lists, and the function that makes a regime's precision
    factor from those four, a NotPsdError naming the regime's input flag.
    """
    use_samples = args.samples1 is not None or args.samples2 is not None
    use_cov = args.cov1 is not None or args.cov2 is not None
    if use_samples and use_cov:
        raise InvalidInputError("give sample CSVs or covariance CSVs, not both")
    if not use_samples and not use_cov:
        raise InvalidInputError("inputs required: --samples1/--samples2 or --cov1/--cov2")
    if use_samples and (args.samples1 is None or args.samples2 is None):
        raise InvalidInputError("both --samples1 and --samples2 are required")
    if use_cov and (args.cov1 is None or args.cov2 is None):
        raise InvalidInputError("both --cov1 and --cov2 are required")
    if use_samples and (args.n1 is not None or args.n2 is not None):
        flag = "--n1" if args.n1 is not None else "--n2"
        raise InvalidInputError(f"{flag} needs --cov1/--cov2; sample CSVs give n as their row count")
    if args.estimator == "plugin" and use_cov:
        raise InvalidInputError("the plugin estimator needs sample CSVs, not covariances")
    if use_cov:
        for flag, n in (("--n1", args.n1), ("--n2", args.n2)):
            if n is None:
                raise InvalidInputError(
                    f"covariance inputs need {flag}, the number of observations behind the covariance"
                )
            if n < 1:
                raise InvalidInputError(f"{flag} must be an integer >= 1, got {n}")
    unknown_sigma = args.estimator == "sqrt"
    if unknown_sigma and (args.sigma_x1 is not None or args.sigma_x2 is not None):
        raise InvalidInputError("--estimator sqrt conflicts with --sigma-x1/--sigma-x2")
    if not unknown_sigma and (args.sigma_x1 is None or args.sigma_x2 is None):
        raise InvalidInputError("--sigma-x1 and --sigma-x2 are required unless --estimator is sqrt")

    # the factor functions are looked up in this module at call time
    if use_samples:
        flags, read = ["--samples1", "--samples2"], read_samples_csv
        make = lambda y, sigma, n: precision_factor(y, sigma)
    else:
        flags, read = ["--cov1", "--cov2"], read_matrix_csv
        # a covariance read from text is judged at the precision of its digits
        make = lambda c, sigma, n: precision_factor_from_covariance(
            c, sigma, n_used=n, _precision=TEXT_PRECISION
        )

    def factor(flag, *inputs):
        try:
            return make(*inputs)
        except NotPsdError as exc:
            raise NotPsdError(f"{flag}: {exc}") from None

    paths = [getattr(args, flag[2:]) for flag in flags]
    for path in paths + [args.sigma_x1, args.sigma_x2]:
        if path is not None:
            require_readable(path, "input")

    data = [read(path) for path in paths]
    first, second = (d.shape for d in data)
    if use_samples:
        if first[1] != second[1]:
            raise InvalidInputError(f"sample files disagree on dimension: {first[1]} vs {second[1]}")
        counts = [first[0], second[0]]
    else:
        if first != second or first[0] != first[1]:
            raise InvalidInputError(
                f"covariance files must be square and same-shaped, got {first} and {second}"
            )
        counts = [args.n1, args.n2]

    p = first[1]
    if unknown_sigma:
        return flags, data, [np.eye(p)] * 2, counts, factor
    sigmas = [read_matrix_csv(path) for path in (args.sigma_x1, args.sigma_x2)]
    if any(sigma.shape != (p, p) for sigma in sigmas):
        raise InvalidInputError(
            f"injection covariances must be {p} x {p}, got "
            f"{sigmas[0].shape} and {sigmas[1].shape}"
        )
    return flags, data, sigmas, counts, factor


def cmd_estimate(args):
    settings = _settings(args, _SOLVER_KEYS)
    flags, data, sigmas, counts, factor = _load_estimate_inputs(args)
    p = len(sigmas[0])

    lam = args.lam
    if lam is None:
        lam = default_lambda(p, min(counts), **_pick(settings, "lambda_scale"))
    config = SolverConfig(lam=lam, **_pick(settings, "rho", "max_iter"))

    report = {
        "estimator": args.estimator,
        "unknown_sigma": args.estimator == "sqrt",
        "p": p,
        "lambda": lam,
        "n1": counts[0],
        "n2": counts[1],
    }

    if args.estimator == "plugin":
        delta_hat = plugin_delta(*data, *sigmas)
        report.update(iterations=0, converged=True)
    else:
        est = estimate_delta(*map(factor, flags, data, sigmas, counts), config)
        delta_hat = est.delta
        report.update(
            rho=config.rho,
            max_iter=config.max_iter,
            iterations=est.iterations,
            converged=est.converged,
            objective=est.objective,
            stop=est.stop,
            cg_steps=est.cg_steps,
        )

    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(os.path.join(args.out, "delta_hat.csv"), delta_hat)
    write_keyvalue(os.path.join(args.out, "report.txt"), report)
    if not report["converged"]:
        print(
            f"error: solver did not converge within {report['max_iter']} iterations",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    print(f"wrote delta_hat.csv and report.txt to {args.out}")
    return EXIT_OK


def _sweep_axes(settings, default_ratios=None):
    """Resolve the ratios-vs-explicit-sample-sizes axis, rejecting conflicts.

    With neither given, default_ratios applies, or ExperimentConfig's own
    default when it is None.
    """
    has_ratios = "ratios" in settings
    has_sizes = "sample_sizes" in settings
    if has_ratios and has_sizes:
        raise InvalidInputError("give ratios or sample_sizes, not both")
    if has_sizes:
        return {"ratios": (), "sample_sizes": settings["sample_sizes"]}
    if has_ratios:
        return {"ratios": settings["ratios"]}
    return {} if default_ratios is None else {"ratios": default_ratios}


def _common_config_kwargs(settings, full_scale, desk_instances):
    return dict(
        _pick(
            settings, "lambda_scale", "support_epsilon", "seed", "estimators", "rho", "max_iter"
        ),
        instances=settings.get("instances", 100 if full_scale else desk_instances),
        delta_spec=_delta_spec(settings),
        sigma_spec=_sigma_spec(settings),
    )


def _synth_jobs(args):
    settings = _settings(args, _SYNTH_KEYS)
    cfg = ExperimentConfig(
        dims=settings.get("dims", (16, 64, 256) if args.full_scale else (16, 64)),
        base_spec=RandomBaseSpec(**_pick(settings, "density", "margin", scale="base_scale")),
        **_sweep_axes(settings),
        **_common_config_kwargs(settings, args.full_scale, 20),
    )
    return [(cfg, args.out)]


def _power_jobs(args):
    settings = _settings(args, _POWER_KEYS)
    base_spec = MatpowerBaseSpec(**_pick(settings, "weight_mode", path="case", scale="base_scale"))
    if base_spec.path is not None:
        require_readable(base_spec.path, "case")
    cfg = ExperimentConfig(
        dims=(base_spec.matrix.shape[0],),
        base_spec=base_spec,
        **_sweep_axes(settings, None if args.full_scale else (1.0, 3.0, 5.0)),
        **_common_config_kwargs(settings, args.full_scale, 10),
    )
    return [(cfg, args.out)]


def _plugin_compare_jobs(args):
    settings = _settings(args, _PLUGIN_COMPARE_KEYS)
    p = settings.get("p", 60)
    sample_sizes = settings.get("sample_sizes", (2 * p, 4 * p))
    common = _common_config_kwargs(settings, args.full_scale, 20)
    common.setdefault("estimators", ("dtrace", "plugin"))
    jobs = []
    for s in settings.get("densities", (0.2, 0.5, 0.8)):
        cfg = ExperimentConfig(
            dims=(p,),
            ratios=(),
            sample_sizes=sample_sizes,
            base_spec=RandomBaseSpec(density=s, **_pick(settings, "margin", scale="base_scale")),
            **common,
        )
        jobs.append((cfg, f"{args.out}_s{s:g}.csv"))
    return jobs


def cmd_experiment(args):
    for cfg, out_path in args.jobs(args):
        try:
            result = run_sweep(cfg)
        except SweepInterrupted as exc:
            write_sweep_csv(out_path, exc.rows)
            print(
                f"interrupted: flushed {len(exc.rows)} completed rows to {out_path}",
                file=sys.stderr,
            )
            return EXIT_INTERRUPTED
        write_sweep_csv(out_path, result.rows)
        print(f"wrote {len(result.rows)} rows to {out_path}")
    return EXIT_OK


def cmd_parse_matpower(args):
    require_readable(args.case, "case")
    with open(args.case) as fh:
        case = parse_case(fh)
    lap, ground_index = case_laplacian(case, args.weight_mode, ground_bus=args.ground)
    reduced = reduce_ground_node(lap, ground_index)

    os.makedirs(args.out, exist_ok=True)
    write_matrix_csv(os.path.join(args.out, "laplacian.csv"), lap)
    write_matrix_csv(os.path.join(args.out, "reduced.csv"), reduced)
    summary = {
        "case_name": case.name,
        "bus_count": len(case.buses),
        "branch_count": len(case.branches),
        "in_service_branches": sum(1 for b in case.branches if b.status == 1),
        "ground_bus": case.bus_ids[ground_index],
        "weight_mode": args.weight_mode,
        "p_full": lap.shape[0],
        "p_reduced": reduced.shape[0],
        "connected": True,
    }
    write_keyvalue(os.path.join(args.out, "summary.txt"), summary)
    print(
        f"parsed {case.name}: {len(case.buses)} buses, {len(case.branches)} branches, "
        f"reduced to {reduced.shape[0]} x {reduced.shape[0]}"
    )
    return EXIT_OK


def _add_key_flags(parser, keys):
    """One flag per settings key: --some-key stores into dest some_key."""
    for key, spec in keys.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            choices=spec.choices,
            help=spec.help,
        )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lapdiff",
        description="Estimate sparse differences between network Laplacians "
        "from node-potential observations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic two-regime scenario")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".")
    _add_key_flags(gen, _GEN_KEYS)
    gen.set_defaults(entry=cmd_gen)

    est = sub.add_parser("estimate", help="estimate the difference from CSV inputs")
    est.add_argument("--samples1")
    est.add_argument("--samples2")
    est.add_argument("--cov1")
    est.add_argument("--cov2")
    est.add_argument("--sigma-x1", dest="sigma_x1")
    est.add_argument("--sigma-x2", dest="sigma_x2")
    est.add_argument(
        "--estimator",
        choices=ESTIMATOR_TAGS,
        default="dtrace",
        help="sqrt is for unknown injection covariances: it whitens with the identity",
    )
    est.add_argument("--lambda", type=float, dest="lam")
    est.add_argument("--n1", type=int, help="observations behind --cov1 (required with it)")
    est.add_argument("--n2", type=int, help="observations behind --cov2 (required with it)")
    est.add_argument("--out", default=".")
    _add_key_flags(est, _SOLVER_KEYS)
    est.set_defaults(entry=cmd_estimate)

    exp = sub.add_parser("experiment", help="run a sweep and write its rows as CSV")
    variants = exp.add_subparsers(dest="variant", required=True)
    for name, keys, jobs, help_text in (
        ("synth", _SYNTH_KEYS, _synth_jobs, "random base matrices, lattice differences"),
        ("power", _POWER_KEYS, _power_jobs, "base matrix from a power case file"),
        (
            "plugin-compare",
            _PLUGIN_COMPARE_KEYS,
            _plugin_compare_jobs,
            "paired sweep against the plug-in baseline, one CSV per density",
        ),
    ):
        sp = variants.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key = value settings file; flags override it")
        sp.add_argument("--out", required=True, help="output CSV path (prefix for plugin-compare)")
        sp.add_argument(
            "--full-scale",
            action="store_true",
            dest="full_scale",
            help="publication-scale defaults (more instances and dimensions); slow",
        )
        _add_key_flags(sp, keys)
        sp.set_defaults(entry=cmd_experiment, jobs=jobs)

    pm = sub.add_parser("parse-matpower", help="convert a power case to Laplacian CSVs")
    pm.add_argument("--case", required=True)
    pm.add_argument("--weight-mode", choices=WEIGHT_MODES, default="dc", dest="weight_mode")
    pm.add_argument("--ground", type=int, help="bus id to ground (default: the slack bus)")
    pm.add_argument("--out", default=".")
    pm.set_defaults(entry=cmd_parse_matpower)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _termination_as_interrupt():
            return args.entry(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (InvalidInputError, CaseFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
