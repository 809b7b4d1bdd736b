"""Command line front end.

Report subcommands: ``simulate`` (replicated experiments), ``bounds`` (one
variance/bias bound report), ``select`` (rank candidate clusterings),
``mc-moments`` (Monte Carlo moment estimation), and ``oracle``
(exhaustive expectation over a design's support). Artifact subcommands:
``cluster`` and ``model gen`` write the clustering/model that the report
subcommands would build from the same options, and ``estimate`` runs one
estimator on one sampled draw. Each input has one spelling, parsed by one
shared builder, so an option means the same in every subcommand that takes
it. Every option can also be given in a flat key=value config file via
--config; explicit flags win. Reports are CSV, to --out or stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

import numpy as np

from .bounds import variance_bound
from .clustering import (
    Clustering,
    cluster_stats,
    contiguous_cycle_clusters,
    load_clustering,
    louvain,
    save_clustering,
    singleton_clustering,
)
from .design import Design, bernoulli_gcr, bernoulli_unit, complete_gcr, sample
from .errors import (
    CapacityError,
    GeometryError,
    InputError,
    PositivityError,
    PreconditionError,
)
from .estimator import EstimatorSpec, estimate
from .graph import InterferenceGraph, _read_lines, cycle_power, load_edge_list, sbm_sample
from .harness import (
    ExperimentConfig,
    exhaustive_expectation,
    mc_convergence_report,
    report_rows,
    run_experiment,
    select_clustering,
    write_csv,
)
from .moments import analytic_cluster_moments, monte_carlo_moments
from .outcomes import (
    LowOrderModel,
    cluster_aggregate,
    evaluate,
    gen_cycle_model,
    gen_named_model,
    load_model,
    outcome_bound,
    save_model,
    true_tte,
)

__all__ = ["main"]

_ERRORS = (InputError, GeometryError, CapacityError, PositivityError, PreconditionError)


def _parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; # starts a comment; blank lines are skipped."""
    vals: dict[str, str] = {}
    for where, raw in _read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise InputError(f"{where}: expected key=value, got {raw.strip()!r}")
        vals[key.strip().replace("-", "_")] = value.strip()
    return vals


class _Opts:
    """Merge parsed flags over config-file values over defaults.

    A config file may hold any key that some subcommand accepts, so one file
    can serve several subcommands; any other key is an error."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        cfg_path = self._args.get("config")
        self._file = _parse_config_file(cfg_path) if cfg_path else {}
        known = {opt.replace("-", "_") for _, opts, _ in _SUBCOMMANDS.values() for opt in opts}
        unknown = sorted(self._file.keys() - known)
        if unknown:
            raise InputError(f"{cfg_path}: unknown keys {', '.join(unknown)}")

    def get(self, name, parse, default=None, required=False):
        raw = self._args.get(name)
        if raw is None:
            raw = self._file.get(name)
        if raw is None:
            if required:
                raise InputError(f"missing required option --{name.replace('_', '-')}")
            return default
        return parse(raw)


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"expected an integer, got {raw!r}")


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InputError(f"expected a number, got {raw!r}")


def _str(raw: str) -> str:
    return raw


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise InputError(f"expected true/false, got {raw!r}")


def _ints(raw: str) -> list[int]:
    return [_int(part) for part in raw.split(",") if part.strip()]


def _floats(raw: str) -> list[float]:
    return [_float(part) for part in raw.split(",") if part.strip()]


def _specs(raw: str) -> list[EstimatorSpec]:
    return [EstimatorSpec.parse(part) for part in raw.split(",") if part.strip()]


def _gamma(raw: str) -> str:
    # "mc" is the CLI spelling of the Monte Carlo source
    names = {"closed": "closed", "quadform": "quadform", "mc": "monte_carlo"}
    if raw not in names:
        raise InputError(f"gamma source must be closed, quadform, or mc; got {raw!r}")
    return names[raw]


# ---------------------------------------------------------------------------
# builders shared by the subcommands
# ---------------------------------------------------------------------------


def _build_graph(o: _Opts) -> InterferenceGraph:
    kind = o.get("graph", _str, default="cycle")
    if kind == "cycle":
        n = o.get("n", _int, default=120)
        return cycle_power(n, o.get("radius", _int, default=3))
    if kind == "sbm":
        n = o.get("n", _int, default=200)
        return sbm_sample(
            n,
            o.get("blocks", _int, default=8),
            o.get("pi_in", _float, default=0.5),
            o.get("pi_out", _float, default=0.0),
            o.get("graph_seed", _int, default=0),
        )
    return load_edge_list(kind)


def _build_clustering(o: _Opts, g: InterferenceGraph, width: int | None = None) -> Clustering:
    kind = o.get("clustering", _str, default="singleton")
    if kind == "singleton":
        return singleton_clustering(g.n)
    if kind == "contiguous":
        w = width if width is not None else o.get("width", _int, default=1)
        return contiguous_cycle_clusters(g.n, w)
    if kind == "louvain":
        return louvain(
            g,
            o.get("resolution", _float, default=1.0),
            o.get("cluster_seed", _int, default=0),
        )
    return load_clustering(kind, g.n)


def _build_model(o: _Opts, g: InterferenceGraph, required: bool = True) -> LowOrderModel | None:
    kind = o.get("model", _str)
    if kind is None:
        if required:
            raise InputError("missing required option --model")
        return None
    if kind == "cycle":
        return gen_cycle_model(g, o.get("beta_star", _int, default=1))
    if kind in ("null", "weak", "strong"):
        return gen_named_model(g, kind, o.get("model_seed", _int, default=0))
    return load_model(kind, g.n)


_DESIGN_NAMES = {"bern": "bernoulli_unit", "gcr": "bernoulli_gcr", "crd": "complete_gcr"}


def _design_kind(o: _Opts) -> str:
    raw = o.get("design", _str, default="gcr")
    if raw not in _DESIGN_NAMES:
        raise InputError(f"unknown design {raw!r} (expected bern, gcr, or crd)")
    return _DESIGN_NAMES[raw]


def _build_design(o: _Opts, g: InterferenceGraph, c: Clustering) -> Design:
    kind = _design_kind(o)
    if kind == "bernoulli_unit":
        clustering = o.get("clustering", _str, default="singleton")
        if clustering != "singleton":
            raise InputError(f"--design bern treats units: it takes no --clustering {clustering}")
        return bernoulli_unit(g.n, o.get("p", _float, default=0.25))
    if kind == "bernoulli_gcr":
        return bernoulli_gcr(c, o.get("p", _float, default=0.25))
    return complete_gcr(c, o.get("k", _int, required=True))


def _resolve_B(o: _Opts, g: InterferenceGraph, model: LowOrderModel | None) -> float:
    B = o.get("B_bound", _float)
    if B is not None:
        return B
    if model is None:
        raise InputError("give --B-bound or a --model to derive the outcome bound from")
    return outcome_bound(model, g)


# ---------------------------------------------------------------------------
# report subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(o: _Opts) -> None:
    g = _build_graph(o)
    model = _build_model(o, g)
    specs = o.get("estimator", _specs, default=[EstimatorSpec("pinv", 1)])
    replications = o.get("replications", _int, default=500)
    seed = o.get("seed", _int, default=0)
    gamma = o.get("gamma", _gamma, default="quadform")
    clustering_kind = o.get("clustering", _str, default="singleton")
    if clustering_kind == "contiguous":
        widths = o.get("width", _ints, default=[1])
        if not widths:
            raise InputError("--width needs at least one cluster width")
        cells = [(f"w={w}", _build_clustering(o, g, width=w)) for w in widths]
    else:
        cells = [("", _build_clustering(o, g))]
    rows = []
    for tag, c in cells:
        cfg = ExperimentConfig(
            graph=g,
            model=model,
            design=_build_design(o, g, c),
            estimators=tuple(specs),
            replications=replications,
            seed=seed,
            gamma_source=gamma,
            tag=tag,
        )
        for report in run_experiment(cfg):
            rows.extend(report_rows(report))
    names = ["estimator", "beta", "tag", "replications", "true_tte", "metric", "value"]
    write_csv(rows, names, o.get("out", _str), seed=seed)


def _cmd_bounds(o: _Opts) -> None:
    g = _build_graph(o)
    c = _build_clustering(o, g)
    d = _build_design(o, g, c)
    model = _build_model(o, g, required=False)
    beta = o.get("beta", _int, default=1)
    B = _resolve_B(o, g, model)
    stats = cluster_stats(g, d.clustering)
    rep = variance_bound(
        stats, d, beta, B,
        gamma_source=o.get("gamma", _gamma, default="quadform"),
        agg=None if model is None else cluster_aggregate(model, stats),
        monotone=o.get("monotone", _bool, default=False),
    )
    row = asdict(rep)
    write_csv([row], list(row), o.get("out", _str))


def _cmd_select(o: _Opts) -> None:
    # checked before the graph is built and clustered
    if _design_kind(o) == "bernoulli_unit":
        raise InputError("select needs a cluster design (gcr or crd)")
    g = _build_graph(o)
    model = _build_model(o, g, required=False)
    grid = o.get(
        "resolution_grid", _floats, default=[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    )
    cluster_seed = o.get("cluster_seed", _int, default=0)
    candidates = [louvain(g, res, cluster_seed) for res in grid]
    designs = []
    for res, c in zip(grid, candidates):
        try:
            designs.append(_build_design(o, g, c))
        except InputError as exc:
            raise InputError(f"resolution {res}: {exc}") from None
    beta = o.get("beta", _int, default=1)
    B = _resolve_B(o, g, model)
    chosen, ranking = select_clustering(g, designs, beta, B)
    rows = []
    for rank, (idx, rep) in enumerate(ranking):
        rows.append(
            {
                "rank": rank,
                "candidate": idx,
                "resolution": grid[idx],
                "clusters": designs[idx].m,
                "var_bound_pairwise": rep.var_bound_pairwise,
                "var_bound_simplified": rep.var_bound_simplified,
                "C_max": rep.C_max,
                "N_max": rep.N_max,
                "chosen": int(idx == chosen),
            }
        )
    names = list(rows[0].keys())
    write_csv(rows, names, o.get("out", _str), seed=cluster_seed)


def _cmd_oracle(o: _Opts) -> None:
    g = _build_graph(o)
    model = _build_model(o, g)
    c = _build_clustering(o, g)
    d = _build_design(o, g, c)
    specs = o.get("estimator", _specs, default=[EstimatorSpec("pinv", 1)])
    tte = true_tte(model)
    rows = []
    for spec, (mean, var) in zip(specs, exhaustive_expectation(g, model, d, specs)):
        rows.append(
            {
                "estimator": spec.kind,
                "beta": spec.beta,
                "true_tte": tte,
                "mean": mean,
                "variance": var,
                "bias": mean - tte,
            }
        )
    names = ["estimator", "beta", "true_tte", "mean", "variance", "bias"]
    write_csv(rows, names, o.get("out", _str))


def _cmd_mc_moments(o: _Opts) -> None:
    samples = o.get("samples", _int)
    # each mode rejects the other's options rather than ignore them
    other = ["units", "r_grid", "mc_seeds"] if samples is not None else ["unit"]
    given = [f"--{key.replace('_', '-')}" for key in other if o.get(key, _str) is not None]
    if given:
        mode = "with" if samples is not None else "without"
        raise InputError(f"mc-moments {mode} --samples takes no {', '.join(given)}")
    g = _build_graph(o)
    c = _build_clustering(o, g)
    d = _build_design(o, g, c)
    beta = o.get("beta", _int, default=1)
    if samples is not None:
        # single-shot mode: one unit, one R, one seed; emit the estimated
        # matrix, its pseudoinverse, and the Frobenius error vs analytic
        unit = o.get("unit", _int, default=0)
        seed = o.get("seed", _int, default=0)
        mc = monte_carlo_moments(d, g, unit, beta, samples, seed)
        analytic = analytic_cluster_moments(d, mc.index.ground, beta)
        err = float(np.linalg.norm(mc.M_pinv - analytic.M_pinv))
        rows = []
        for section, mat in (("M", mc.M), ("M_pinv", mc.M_pinv)):
            for r in range(mat.shape[0]):
                for col in range(mat.shape[1]):
                    rows.append({"section": section, "row": r, "col": col, "value": mat[r, col]})
        rows.append({"section": "fro_error", "value": err})
        write_csv(rows, ["section", "row", "col", "value"], o.get("out", _str), seed=seed)
        return
    tables = mc_convergence_report(
        d,
        g,
        o.get("units", _ints, default=[0]),
        beta,
        o.get("r_grid", _ints, default=[400, 4000, 40000]),
        o.get("mc_seeds", _ints, default=[0, 1, 2, 3, 4]),
    )
    names = [
        "table",
        "R",
        "seed",
        "unit",
        "fro_error",
        "median_fro_error",
        "std_fro_error",
        "log10_R",
        "log10_median_fro_error",
    ]
    rows = [dict(row, table=table) for table in ("detail", "summary") for row in tables[table]]
    write_csv(rows, names, o.get("out", _str))


# ---------------------------------------------------------------------------
# artifact subcommands
# ---------------------------------------------------------------------------


def _cmd_cluster(o: _Opts) -> None:
    g = _build_graph(o)
    save_clustering(_build_clustering(o, g), o.get("out", _str) or sys.stdout)


def _cmd_model(o: _Opts) -> None:
    g = _build_graph(o)
    save_model(_build_model(o, g), o.get("out", _str) or sys.stdout)


def _cmd_estimate(o: _Opts) -> None:
    g = _build_graph(o)
    model = _build_model(o, g)
    c = _build_clustering(o, g)
    d = _build_design(o, g, c)
    spec = o.get("estimator", EstimatorSpec.parse, default=EstimatorSpec("pinv", 1))
    seed = o.get("seed", _int, default=0)
    draw = sample(d, seed, o.get("replicate", _int, default=0))
    Y = evaluate(model, g, draw.z)
    breakdown = estimate(g, Y, draw, d, spec.kind, spec.beta)
    base = {"estimator": breakdown.kind, "beta": spec.beta}
    rows = [dict(base, metric="tte_hat", value=breakdown.tte_hat)]
    if o.get("weights", _bool, default=False):
        rows += [
            dict(base, metric="weight", unit=i, value=wi) for i, wi in enumerate(breakdown.weights)
        ]
    names = ["estimator", "beta", "metric", "unit", "value"]
    write_csv(rows, names, o.get("out", _str), seed=seed)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_GRAPH_OPTS = ["graph", "n", "radius", "blocks", "pi-in", "pi-out", "graph-seed"]
_CLUSTER_OPTS = ["clustering", "width", "resolution", "cluster-seed"]
_MODEL_OPTS = ["model", "beta-star", "model-seed"]
_DESIGN_OPTS = ["design", "p", "k"]
_IO_OPTS = ["out", "config"]

_SUBCOMMANDS = {
    "simulate": (
        _cmd_simulate,
        _GRAPH_OPTS + _CLUSTER_OPTS + _MODEL_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["estimator", "replications", "seed", "gamma"],
        "run a replicated experiment and emit tidy metric rows",
    ),
    "bounds": (
        _cmd_bounds,
        _GRAPH_OPTS + _CLUSTER_OPTS + _MODEL_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["beta", "B-bound", "gamma", "monotone"],
        "compute one variance/bias bound report",
    ),
    "select": (
        _cmd_select,
        _GRAPH_OPTS + _MODEL_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["resolution-grid", "cluster-seed", "beta", "B-bound"],
        "rank candidate clusterings by variance bound",
    ),
    "oracle": (
        _cmd_oracle,
        _GRAPH_OPTS + _CLUSTER_OPTS + _MODEL_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["estimator"],
        "exhaustive mean and variance over the design support",
    ),
    "mc-moments": (
        _cmd_mc_moments,
        _GRAPH_OPTS + _CLUSTER_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["beta", "units", "r-grid", "mc-seeds", "unit", "samples", "seed"],
        "Monte Carlo moment-estimation tables",
    ),
    "cluster": (
        _cmd_cluster,
        _GRAPH_OPTS + _CLUSTER_OPTS + _IO_OPTS,
        "write the --clustering partition as a unit/label file",
    ),
    "model": (
        _cmd_model,
        _GRAPH_OPTS + _MODEL_OPTS + _IO_OPTS,
        "write the --model response model as a coefficient file",
    ),
    "estimate": (
        _cmd_estimate,
        _GRAPH_OPTS + _CLUSTER_OPTS + _MODEL_OPTS + _DESIGN_OPTS + _IO_OPTS
        + ["estimator", "seed", "replicate", "weights"],
        "run one estimator on one sampled draw",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinvtte",
        description="Design-based treatment effect estimation under interference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts, help_text) in _SUBCOMMANDS.items():
        # no prefix abbreviations: "--beta" must not become "--beta-star"
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if name == "model":
            sp.add_argument("action", choices=["gen"])
        for opt in opts:
            sp.add_argument(f"--{opt}", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _SUBCOMMANDS[args.command][0]
    # the package's own errors (undecodable input files among them) and files
    # that cannot be opened or written end in one "error:" line and exit
    # status 2
    try:
        handler(_Opts(args))
    except (*_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
