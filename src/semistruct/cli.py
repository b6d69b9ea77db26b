"""Command-line experiment harness.

Subcommands: ``synth`` (dataset generators), ``fit`` (single run producing a
model and trace), ``predict``, ``cv``, ``baseline`` and ``sweep``. Exit
codes: 0 on success, 1 on validation or configuration errors and on files
that cannot be read, 2 when the solver diverges (for ``cv`` and
``baseline``: in every fold).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import data_io, evaluate
from .errors import (
    ContractViolation,
    DataFormatError,
    Diverged,
    UnsupportedConfiguration,
)
from .graph import build_knn_graph, edges_csv
from .solver import SolverConfig, fit, load_model, save_model
from .spaces import (
    ChainSequenceSpace,
    MulticlassSpace,
    TaxonomySpace,
    three_level_taxonomy,
)


def _add_solver_flags(p):
    p.add_argument("--c1", type=float, default=1.0, help="loss-bound tradeoff (> 0)")
    p.add_argument("--c2", type=float, default=1.0, help="weight-penalty tradeoff (> 0)")
    p.add_argument("--eta", type=float, default=None,
                   help="gradient step size (default 1/c2)")
    p.add_argument("--iters", type=int, default=50, help="number of iterations")
    p.add_argument("--z-init", choices=["nearest-labeled", "uniform-random"],
                   default="nearest-labeled")


def _add_space_flags(p):
    p.add_argument("--space", choices=["multiclass", "taxonomy", "chain"],
                   required=True)
    p.add_argument("--taxonomy", help="taxonomy JSON file (taxonomy space)")
    p.add_argument("--classes", type=int, default=None,
                   help="class count (multiclass; inferred from data when omitted)")
    p.add_argument("--alphabet", type=int, default=None,
                   help="label count (chain; inferred from data when omitted)")
    p.add_argument("--loss", choices=["zero-one", "hamming"], default=None,
                   help="chain loss mode (default hamming)")


def _add_graph_flags(p):
    p.add_argument("--k", type=int, default=5, help="neighbors per node")
    p.add_argument("--sigma", type=float, default=None,
                   help="Gaussian bandwidth (default: median squared edge distance)")


def _build_space(args, records):
    """Construct the output space from flags, inferring sizes from records."""
    x0 = records.inputs[0]
    dim = int(x0.shape[-1]) if x0.ndim else 1
    ys = [y for y in records.ys if y is not None]
    if args.space == "multiclass":
        labels = [y for y in ys if isinstance(y, int)]
        return MulticlassSpace(_label_count(args.classes, labels, "--classes"), dim)
    if args.space == "taxonomy":
        if not args.taxonomy:
            raise ContractViolation("--taxonomy <file> is required for this space")
        return TaxonomySpace(data_io.load_taxonomy(args.taxonomy), dim)
    labels = [v for y in ys if isinstance(y, list) for v in y if isinstance(v, int)]
    return ChainSequenceSpace(_label_count(args.alphabet, labels, "--alphabet"), dim,
                              loss=args.loss or "hamming")


def _label_count(given, labels, flag):
    if given is not None:
        return given
    if not labels:
        raise ContractViolation(f"cannot infer {flag} from a file without labels")
    return max(labels) + 1


def _load_training_data(args):
    """Parse the data file once into the output space and labeled dataset."""
    records = data_io.read_records(args.data)
    space = _build_space(args, records)
    ds = data_io.dataset_from_records(records, args.data, space, require_labeled=True)
    return space, ds


def _solver_config(args):
    return SolverConfig(
        c1=args.c1,
        c2=args.c2,
        eta=args.eta,
        max_iters=args.iters,
        seed=args.seed,
        z_init=args.z_init,
    )


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(args):
    out = _out_dir(args)
    if args.space == "multiclass":
        ds = data_io.synth_blobs(args.classes or 8, args.per_class, args.dim,
                                 args.spread, args.seed)
        space = MulticlassSpace(args.classes or 8, args.dim)
    elif args.space == "taxonomy":
        if args.taxonomy:
            tree = data_io.load_taxonomy(args.taxonomy)
        else:
            tree = three_level_taxonomy()
        data_io.save_taxonomy(tree, out / "taxonomy.json")
        ds = data_io.synth_taxonomy_blobs(tree, args.per_leaf, args.dim,
                                          args.spread, args.seed)
        space = TaxonomySpace(tree, args.dim)
    else:
        ds = data_io.synth_chains(args.alphabet or 3,
                                  (args.min_len, args.max_len),
                                  args.count, args.dim, args.seed, args.spread)
        space = ChainSequenceSpace(args.alphabet or 3, args.dim)
    path = out / "data.jsonl"
    data_io.save_dataset(ds, path, space)
    print(f"wrote {len(ds)} points to {path}")
    return 0


def cmd_fit(args):
    out = _out_dir(args)
    space, ds = _load_training_data(args)
    cfg = _solver_config(args)
    g = build_knn_graph(ds, args.k, args.sigma)
    if args.dump_graph:
        (out / "graph.csv").write_text(edges_csv(g))
    start = time.perf_counter()
    state = fit(ds, g, space, cfg)
    elapsed = time.perf_counter() - start
    save_model(out / "model.json", state, space, cfg)
    (out / "trace.csv").write_text(evaluate.trace_csv(state.trace))
    last = state.trace[-1]
    print(f"fit {state.iteration} iterations in {elapsed:.2f}s; "
          f"final objective {last.total:.6g}")
    print(f"wrote {out / 'model.json'} and {out / 'trace.csv'}")
    return 0


def cmd_predict(args):
    out = _out_dir(args)
    w, space, _ = load_model(args.model)
    ds = data_io.load_dataset(args.data, space, require_labeled=False)
    ys = space.from_codes(space.argmax_score_all(w, ds.inputs))
    # one encoding per distinct output; line i equals
    # json.dumps({"id": i, "y": space.encode(ys[i])}) plus a newline
    text = {y: json.dumps(space.encode(y)) for y in set(ys)}
    path = out / "predictions.jsonl"
    with open(path, "w") as f:
        f.writelines('{"id": %d, "y": %s}\n' % (i, text[y]) for i, y in enumerate(ys))
    print(f"wrote {len(ys)} predictions to {path}")
    return 0


def _write_report(report, out):
    """Write the report files; raise Diverged when no fold has a score."""
    report.trace_paths = []
    for i, trace in enumerate(report.traces):
        p = out / f"trace_fold{i}.csv"
        p.write_text(evaluate.trace_csv(trace))
        report.trace_paths.append(p.name)
    (out / "folds.csv").write_text(evaluate.folds_csv(report))
    (out / "report.json").write_text(evaluate.report_json(report))
    if report.failure:
        raise Diverged(report.failure)


def _score(mean):
    """A mean score for the console; ``n/a`` when no fold has one."""
    return "n/a" if mean is None else f"{mean:.4f}"


def cmd_cv(args):
    out = _out_dir(args)
    space, ds = _load_training_data(args)
    report = evaluate.run_cv(ds, space, _solver_config(args),
                             k=args.k, sigma=args.sigma, seed=args.seed)
    _write_report(report, out)
    print(f"mean test ASL {_score(report.mean_test_asl)}, "
          f"mean transductive ASL {_score(report.mean_transductive_asl)} "
          f"({report.folds_diverged} diverged folds, {report.total_seconds:.1f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_baseline(args):
    out = _out_dir(args)
    space, ds = _load_training_data(args)
    report = evaluate.run_baseline_supervised(ds, space, _solver_config(args),
                                              seed=args.seed)
    _write_report(report, out)
    print(f"mean test ASL {_score(report.mean_test_asl)} "
          f"({report.folds_diverged} diverged folds, {report.total_seconds:.1f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_sweep(args):
    out = _out_dir(args)
    space, ds = _load_training_data(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    rows = evaluate.sweep(args.param, values, ds, space, _solver_config(args),
                          k=args.k, sigma=args.sigma, seed=args.seed)
    path = out / "sweep.csv"
    path.write_text(evaluate.sweep_csv(args.param, rows))
    for r in rows:
        status = _score(r.mean_test_asl) if r.error is None else f"failed: {r.error}"
        print(f"{args.param}={r.value:g}: {status}")
    print(f"wrote {path}")
    return 0


def build_parser():
    """A new parser for every subcommand. Each option is a plain store with
    an immutable default, so one parser serves any number of
    ``parse_args`` calls, each into a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="semistruct",
        description="Semi-supervised structured output prediction with "
                    "neighbor-graph regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--space", choices=["multiclass", "taxonomy", "chain"], required=True)
    p.add_argument("--classes", type=int, default=None, help="multiclass cluster count")
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--per-leaf", type=int, default=10)
    p.add_argument("--alphabet", type=int, default=None, help="chain label count")
    p.add_argument("--count", type=int, default=100, help="chain sequence count")
    p.add_argument("--min-len", type=int, default=4)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--spread", type=float, default=0.5)
    p.add_argument("--taxonomy", help="taxonomy JSON (default: built-in 19-node tree)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit on one dataset, write model and trace")
    p.add_argument("--data", required=True)
    _add_space_flags(p)
    _add_solver_flags(p)
    _add_graph_flags(p)
    p.add_argument("--dump-graph", action="store_true",
                   help="also write the edge list as graph.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict outputs with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    for name, handler, semi in (("cv", cmd_cv, True),
                                ("baseline", cmd_baseline, False)):
        p = sub.add_parser(
            name,
            help="ten-fold cross validation"
            + ("" if semi else " of the labeled-only baseline"),
        )
        p.add_argument("--data", required=True)
        _add_space_flags(p)
        _add_solver_flags(p)
        if semi:
            _add_graph_flags(p)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True)
        p.set_defaults(func=handler)

    p = sub.add_parser("sweep", help="cross-validated sweep over c1 or c2")
    p.add_argument("--param", choices=["c1", "c2"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--data", required=True)
    _add_space_flags(p)
    _add_solver_flags(p)
    _add_graph_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser():
    """The parser :func:`main` builds on its first call and then reuses."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Diverged as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 2
    except (ContractViolation, DataFormatError, UnsupportedConfiguration, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
