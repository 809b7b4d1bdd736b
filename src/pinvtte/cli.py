"""Command line front end.

Report subcommands: ``simulate`` (replicated experiments), ``bounds`` (one
variance/bias bound report), ``select`` (rank candidate clusterings),
``mc-moments`` (Monte Carlo moment estimation), and ``oracle``
(exhaustive expectation over a design's support). Artifact subcommands:
``cluster`` and ``model gen`` write the clustering/model that the report
subcommands would build from the same options, and ``estimate`` runs one
estimator on one sampled draw. Each input has one spelling, read by one
shared builder, so an option means the same in every subcommand that takes
it. Every option can also be given in a flat key=value config file via
--config; explicit flags win. Reports are CSV, to --out or stdout. A run
reads and checks every option, unread flags last, before it builds a graph,
clustering or model or opens an input file other than --config.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from dataclasses import asdict
from functools import partial

import numpy as np

from .bounds import variance_bound
from .clustering import (
    Clustering,
    cluster_stats,
    contiguous_cycle_clusters,
    load_clustering,
    louvain,
    louvain_grid,
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
    can serve several subcommands; any other key is an error. A flag given
    on the command line must be read by the run: out() names the ones that
    were not."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._read = {"command", "action", "config"}
        cfg_path = self._args.get("config")
        self._file = _parse_config_file(cfg_path) if cfg_path else {}
        known = {opt.replace("-", "_") for _, opts, _ in _SUBCOMMANDS.values() for opt in opts}
        unknown = sorted(self._file.keys() - known)
        if unknown:
            raise InputError(f"{cfg_path}: unknown keys {', '.join(unknown)}")

    def get(self, name, parse, default=None, required=False):
        self._read.add(name)
        raw = self._args.get(name)
        if raw is None:
            raw = self._file.get(name)
        if raw is None:
            if required:
                raise InputError(f"missing required option --{name.replace('_', '-')}")
            return default
        return parse(raw)

    def out(self) -> str | None:
        """The --out path (None for stdout), asked for once every other
        option is read and before anything is built or written."""
        path = self.get("out", str)
        unread = [
            f"--{key.replace('_', '-')}"
            for key, raw in self._args.items()
            if raw is not None and key not in self._read
        ]
        if unread:
            raise InputError(f"this run does not read {', '.join(unread)}")
        return path


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


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise InputError(f"expected true/false, got {raw!r}")


def _list(parse: Callable[[str], object]) -> Callable[[str], list]:
    """A comma-separated list of parse's values; empty parts are skipped."""
    return lambda raw: [parse(part) for part in raw.split(",") if part.strip()]


def _gamma(raw: str) -> str:
    # "mc" is the CLI spelling of the Monte Carlo source
    names = {"closed": "closed", "quadform": "quadform", "mc": "monte_carlo"}
    if raw not in names:
        raise InputError(f"gamma source must be closed, quadform, or mc; got {raw!r}")
    return names[raw]


# ---------------------------------------------------------------------------
# builders shared by the subcommands: each reads its options, returns a builder
# ---------------------------------------------------------------------------


def _graph(o: _Opts) -> Callable[[], InterferenceGraph]:
    kind = o.get("graph", str, default="cycle")
    if kind == "cycle":
        n = o.get("n", _int, default=120)
        return partial(cycle_power, n, o.get("radius", _int, default=3))
    if kind == "sbm":
        return partial(
            sbm_sample,
            o.get("n", _int, default=200),
            o.get("blocks", _int, default=8),
            o.get("pi_in", _float, default=0.5),
            o.get("pi_out", _float, default=0.0),
            o.get("graph_seed", _int, default=0),
        )
    return partial(load_edge_list, kind)


def _clustering(o: _Opts) -> Callable[[InterferenceGraph], Clustering]:
    kind = o.get("clustering", str, default="singleton")
    if kind == "singleton":
        return lambda g: singleton_clustering(g.n)
    if kind == "contiguous":
        width = o.get("width", _int, default=1)
        return lambda g: contiguous_cycle_clusters(g.n, width)
    if kind == "louvain":
        resolution = o.get("resolution", _float, default=1.0)
        seed = o.get("cluster_seed", _int, default=0)
        return lambda g: louvain(g, resolution, seed)
    return lambda g: load_clustering(kind, g.n)


def _model(o: _Opts, required: bool = True) -> Callable[[InterferenceGraph], LowOrderModel] | None:
    """The --model builder; None when the model is optional and not given."""
    kind = o.get("model", str, required=required)
    if kind is None:
        return None
    if kind == "cycle":
        return partial(gen_cycle_model, beta_star=o.get("beta_star", _int, default=1))
    if kind in ("null", "weak", "strong"):
        return partial(gen_named_model, kind=kind, seed=o.get("model_seed", _int, default=0))
    return lambda g: load_model(kind, g.n)


def _design(o: _Opts, own: bool = True) -> Callable[..., Design]:
    """The --design builder (g, c=None): a cluster design on c, or on --clustering's
    when c is None; own=False leaves --clustering to a caller that passes c."""
    kind = o.get("design", str, default="gcr")
    if kind == "bern":
        clustering = o.get("clustering", str, default="singleton")
        if clustering != "singleton":
            raise InputError(f"--design bern treats units: it takes no --clustering {clustering}")
        p = o.get("p", _float, default=0.25)
        return lambda g, c=None: bernoulli_unit(g.n, p)
    if kind not in ("gcr", "crd"):
        raise InputError(f"unknown design {kind!r} (expected bern, gcr, or crd)")
    clustering = _clustering(o) if own else None
    if kind == "gcr":
        make, arg = bernoulli_gcr, o.get("p", _float, default=0.25)
    else:
        make, arg = complete_gcr, o.get("k", _int, required=True)
    return lambda g, c=None: make(clustering(g) if c is None else c, arg)


def _bound(o: _Opts, need_model: bool) -> tuple[float | None, Callable | None]:
    """(--B-bound, --model builder); the model is read if needed or if B is not
    given, and a B of None is derived from it."""
    B = o.get("B_bound", _float)
    model = _model(o, required=False) if need_model or B is None else None
    if B is None and model is None:
        raise InputError("give --B-bound or a --model to derive the outcome bound from")
    return B, model


def _emit(path: str | None, rows: list[dict], seed: int | None = None) -> None:
    """Write a report whose columns are its rows' keys in first-seen order."""
    write_csv(rows, list(dict.fromkeys(k for row in rows for k in row)), path, seed=seed)


# ---------------------------------------------------------------------------
# report subcommands: each reads every option, asks o.out(), then builds
# ---------------------------------------------------------------------------


def _cmd_simulate(o: _Opts) -> None:
    graph = _graph(o)
    model = _model(o)
    if o.get("clustering", str, default="singleton") == "contiguous":
        widths = o.get("width", _list(_int), default=[1])
        if not widths:
            raise InputError("--width needs at least one cluster width")
        design = _design(o, own=False)
        cells = [
            (f"w={w}", lambda g, w=w: design(g, contiguous_cycle_clusters(g.n, w)))
            for w in widths
        ]
    else:
        cells = [("", _design(o))]
    specs = o.get("estimator", _list(EstimatorSpec.parse), default=[EstimatorSpec("pinv", 1)])
    replications = o.get("replications", _int, default=500)
    seed = o.get("seed", _int, default=0)
    gamma = o.get("gamma", _gamma, default="quadform")
    path = o.out()
    g = graph()
    m = model(g)
    rows = []
    for tag, cell in cells:
        cfg = ExperimentConfig(
            graph=g,
            model=m,
            design=cell(g),
            estimators=tuple(specs),
            replications=replications,
            seed=seed,
            gamma_source=gamma,
            tag=tag,
        )
        for report in run_experiment(cfg):
            rows.extend(report_rows(report))
    _emit(path, rows, seed)


def _cmd_bounds(o: _Opts) -> None:
    graph = _graph(o)
    design = _design(o)
    B, model = _bound(o, need_model=True)
    beta = o.get("beta", _int, default=1)
    gamma = o.get("gamma", _gamma, default="quadform")
    monotone = o.get("monotone", _bool, default=False)
    path = o.out()
    g = graph()
    d = design(g)
    m = None if model is None else model(g)
    stats = cluster_stats(g, d.clustering)
    rep = variance_bound(
        stats, d, beta, outcome_bound(m, g) if B is None else B,
        gamma_source=gamma,
        agg=None if m is None else cluster_aggregate(m, stats),
        monotone=monotone,
    )
    _emit(path, [asdict(rep)])


def _cmd_select(o: _Opts) -> None:
    if o.get("design", str, default="gcr") == "bern":
        raise InputError("select needs a cluster design (gcr or crd)")
    graph = _graph(o)
    B, model = _bound(o, need_model=False)  # --model only derives B
    grid = o.get("resolution_grid", _list(_float), default=[0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0])
    if not grid:
        raise InputError("--resolution-grid needs at least one resolution")
    cluster_seed = o.get("cluster_seed", _int, default=0)
    design = _design(o, own=False)
    beta = o.get("beta", _int, default=1)
    path = o.out()
    g = graph()
    if B is None:
        B = outcome_bound(model(g), g)
    candidates = louvain_grid(g, grid, cluster_seed)
    designs = []
    for res, c in zip(grid, candidates):
        try:
            designs.append(design(g, c))
        except InputError as exc:
            raise InputError(f"resolution {res}: {exc}") from None
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
    _emit(path, rows, cluster_seed)


def _cmd_oracle(o: _Opts) -> None:
    graph = _graph(o)
    model = _model(o)
    design = _design(o)
    specs = o.get("estimator", _list(EstimatorSpec.parse), default=[EstimatorSpec("pinv", 1)])
    path = o.out()
    g = graph()
    m = model(g)
    tte = true_tte(m)
    rows = []
    for spec, (mean, var) in zip(specs, exhaustive_expectation(g, m, design(g), specs)):
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
    _emit(path, rows)


def _cmd_mc_moments(o: _Opts) -> None:
    samples = o.get("samples", _int)
    graph = _graph(o)
    design = _design(o)
    beta = o.get("beta", _int, default=1)
    if samples is None:
        units = o.get("units", _list(_int), default=[0])
        r_grid = o.get("r_grid", _list(_int), default=[400, 4000, 40000])
        mc_seeds = o.get("mc_seeds", _list(_int), default=[0, 1, 2, 3, 4])
        seed = None
    else:
        unit = o.get("unit", _int, default=0)
        seed = o.get("seed", _int, default=0)
    path = o.out()
    g = graph()
    d = design(g)
    if samples is None:
        tables = mc_convergence_report(d, g, units, beta, r_grid, mc_seeds)
        rows = [{"table": t, **row} for t in ("detail", "summary") for row in tables[t]]
    else:
        # single-shot mode: one unit, one R, one seed; emit the estimated
        # matrix, its pseudoinverse, and the Frobenius error vs analytic
        mc = monte_carlo_moments(d, g, unit, beta, samples, seed)
        analytic = analytic_cluster_moments(d, mc.index.ground, beta)
        err = float(np.linalg.norm(mc.M_pinv - analytic.M_pinv))
        rows = []
        for section, mat in (("M", mc.M), ("M_pinv", mc.M_pinv)):
            for r in range(mat.shape[0]):
                for col in range(mat.shape[1]):
                    rows.append({"section": section, "row": r, "col": col, "value": mat[r, col]})
        rows.append({"section": "fro_error", "value": err})
    _emit(path, rows, seed)


# ---------------------------------------------------------------------------
# artifact subcommands
# ---------------------------------------------------------------------------


def _cmd_cluster(o: _Opts) -> None:
    graph = _graph(o)
    clustering = _clustering(o)
    path = o.out()
    save_clustering(clustering(graph()), path or sys.stdout)


def _cmd_model(o: _Opts) -> None:
    graph = _graph(o)
    model = _model(o)
    path = o.out()
    save_model(model(graph()), path or sys.stdout)


def _cmd_estimate(o: _Opts) -> None:
    graph = _graph(o)
    model = _model(o)
    design = _design(o)
    spec = o.get("estimator", EstimatorSpec.parse, default=EstimatorSpec("pinv", 1))
    seed = o.get("seed", _int, default=0)
    replicate = o.get("replicate", _int, default=0)
    weights = o.get("weights", _bool, default=False)
    path = o.out()
    g = graph()
    m = model(g)
    d = design(g)
    draw = sample(d, seed, replicate)
    breakdown = estimate(g, evaluate(m, g, draw.z), draw, d, spec.kind, spec.beta)
    base = {"estimator": breakdown.kind, "beta": spec.beta}
    rows = [dict(base, metric="tte_hat", unit=None, value=breakdown.tte_hat)]
    if weights:
        rows += [
            dict(base, metric="weight", unit=i, value=wi) for i, wi in enumerate(breakdown.weights)
        ]
    _emit(path, rows, seed)


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
    # status 2; a reader that closed stdout early (`| head`) ends the run
    # quietly with status 1, stdout pointed at os.devnull so the flush at
    # exit raises nothing
    to_stdout = False
    try:
        opts = _Opts(args)
        to_stdout = opts.get("out", str) is None
        handler(opts)
        if to_stdout:
            sys.stdout.flush()
    except (*_ERRORS, OSError) as exc:
        if to_stdout and isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
