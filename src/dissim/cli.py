"""Command line harness: generate, train, experiment, gradcheck.

Exit codes: 0 on success, 2 on input or configuration errors (including
malformed flags, which argparse reports by flag name, and files that
cannot be read or written), 3 on solver failures.  Every command is
deterministic given identical flags, except that experiment rows carry
measured wallclock times unless --no-timings is passed.  experiment fits
the (loss, fold, C) cells of all its losses in --workers children started
by os.fork (default: the usable CPUs), which read the cells from one
queue; its files are the same for any worker count, a failing cell ends
it with that cell's exit code, and a child that dies without replying
with exit 2 (out of memory).  Every file is written whole or not at all:
the text is encoded first, then written to a new file (unnamed until
complete, on Linux) that replaces the target.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import load_dataset, save_dataset, save_model, save_results, write_atomic
from .errors import ConfigError, DissimError, SolverError
from .losses import LOSS_KINDS, HyperParams, make_loss
from .model import Dataset
from .gradcheck import run_gradient_checks
from .synth import TaskSpec, generate
from .thetasolver import SSDConfig
from .trainer import DEFAULT_C_GRID, METHODS, TrainConfig, _fit, run_protocols


def _check_loss_compatible(loss_kind: str, dataset: Dataset) -> None:
    if loss_kind == "overlap" and not dataset.geometric:
        raise ConfigError(
            "--loss overlap needs box annotations; the dataset is abstract"
        )


def _check_out(out: str) -> None:
    """Refuse an output path that names a directory or lies in a missing
    one, before any work is done."""
    path = Path(out)
    if not path.parent.is_dir():
        raise ConfigError(f"--out: directory {path.parent} does not exist")
    if path.is_dir():
        raise ConfigError(f"--out: {path} is a directory")


def cmd_generate(args) -> int:
    _check_out(args.out)
    spec = TaskSpec(
        num_classes=args.classes,
        per_class=args.per_class,
        grid=args.grid,
        boxes=args.boxes,
        box_cells=args.box_cells,
        feature_dim=args.feature_dim,
        clutter=args.clutter,
        noise=args.noise,
        seed=args.seed,
    )
    dataset, _ = generate(spec)
    save_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset)} samples "
        f"({spec.num_classes} classes, {spec.boxes} boxes) to {args.out}"
    )
    return 0


def _train_config(args, methods: list[str], c_grid: tuple[float, ...]) -> TrainConfig:
    """The TrainConfig of train and experiment, at the first C of the grid.
    J and beta left unset keep their defaults; set while no fitted method
    is dissim, they draw a warning."""
    given = {}
    for flag in ("J", "beta"):
        value = getattr(args, flag)
        if value is None:
            continue
        if "dissim" not in methods:
            print(
                f"warning: --{flag} has no effect for method {', '.join(methods)}",
                file=sys.stderr,
            )
        given[flag] = value
    return TrainConfig(
        hyper=HyperParams(C=c_grid[0], epsilon=args.epsilon, **given),
        ssd=SSDConfig(steps_per_sample=args.ssd_factor, seed=args.seed),
        inner_tol=args.inner_tol,
        max_outer_rounds=args.max_rounds,
        C_grid=c_grid,
        split_seed=args.seed,
    )


def cmd_train(args) -> int:
    _check_out(args.out)
    dataset = load_dataset(args.data)
    _check_loss_compatible(args.loss, dataset)
    config = _train_config(args, [args.method], (args.C,))
    record = _fit(args.method, dataset, make_loss(args.loss), config)
    save_model(record, args.out)
    print(
        f"{args.method} trained on {len(dataset)} samples: "
        f"objective {record.trace[-1]:.6f}, {record.termination}, "
        f"model at {args.out}"
    )
    return 0


def cmd_experiment(args) -> int:
    _check_out(args.out)
    dataset = load_dataset(args.data)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    losses = [l.strip() for l in args.losses.split(",") if l.strip()]
    for flag, names in (("--methods", methods), ("--losses", losses)):
        if not names:
            raise ConfigError(f"{flag}: no names given")
        repeated = next((n for i, n in enumerate(names) if n in names[:i]), None)
        if repeated is not None:
            raise ConfigError(f"{flag}: {repeated!r} given more than once")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"--methods: unknown method {m!r}")
    for l in losses:
        if l not in LOSS_KINDS:
            raise ConfigError(f"--losses: unknown loss {l!r}")
        _check_loss_compatible(l, dataset)
    try:
        c_grid = tuple(float(v) for v in args.C_grid.split(","))
    except ValueError as err:
        raise ConfigError(f"--C-grid: {err}") from err
    config = _train_config(args, methods, c_grid)
    out = Path(args.out)
    base = out.with_suffix("")
    rows = []
    summary_lines: list[str] = []
    results = run_protocols(
        dataset,
        [make_loss(kind) for kind in losses],
        config,
        n_folds=args.folds,
        split=args.split,
        methods=tuple(methods),
        workers=args.workers,
    )
    for loss_kind, result in zip(losses, results):
        rows += (
            [replace(r, wallclock_seconds=0.0) for r in result.rows]
            if args.no_timings
            else result.rows
        )
        for method in methods:
            curve = [p for p in result.summary if p.method == method]
            curve_path = Path(f"{base}_curve_{loss_kind}_{method}.tsv")
            curve_lines = ["# C\tmean\tstd"]
            for point in curve:
                curve_lines.append(
                    f"{point.C!r}\t{point.mean!r}\t{point.std!r}"
                )
                summary_lines.append(
                    f"method={method} loss={loss_kind} C={point.C!r} "
                    f"mean={point.mean:.4f} std={point.std:.4f}"
                )
            write_atomic(curve_path, ["\n".join(curve_lines) + "\n"])
            best = min(curve, key=lambda p: p.mean)
            line = (
                f"{method} / {loss_kind}: best C {best.C!r} "
                f"mean test loss {best.mean:.4f} +- {best.std:.4f}"
            )
            summary_lines.append(line)
            print(line)
    save_results(rows, out)
    write_atomic(f"{base}_summary.txt", ["\n".join(summary_lines) + "\n"])
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    dataset = load_dataset(args.data)
    kinds = ["zero_one"]
    if dataset.geometric:
        kinds.append("overlap")
    corrupt = (lambda g: g + 1e-3) if args.corrupt else None
    failed = False
    for kind in kinds:
        loss = make_loss(kind)
        result = run_gradient_checks(
            dataset, loss, seed=args.seed, draws=args.draws, corrupt=corrupt
        )
        for term, err in result.worst.items():
            status = "ok" if err <= result.tolerance else "FAIL"
            print(f"{kind} {term}: worst relative error {err:.3e} {status}")
        failed = failed or not result.passed
    return 1 if failed else 0


def _worker_count(text: str) -> int:
    """A positive worker count; argparse names the flag in its error."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return count


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    """The flags train and experiment share, defaulting to the config
    dataclasses' own defaults; --J and --beta default to None, so that
    ``_train_config`` tells a flag given from one left unset."""
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument(
        "--J", type=float, default=None, help="theta regularizer weight"
    )
    p.add_argument(
        "--beta", type=float, default=None, help="self-term weight in (0, 1)"
    )
    p.add_argument(
        "--epsilon", type=float, default=HyperParams.epsilon, help="stop tolerance"
    )
    p.add_argument(
        "--inner-tol",
        type=float,
        default=TrainConfig.inner_tol,
        help="cutting-plane tolerance",
    )
    p.add_argument(
        "--ssd-factor",
        type=int,
        default=SSDConfig.steps_per_sample,
        help="subgradient steps per training sample",
    )
    p.add_argument(
        "--max-rounds",
        type=int,
        default=TrainConfig.max_outer_rounds,
        help="outer round budget",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="stochastic solver seed (for experiment, also the split seed)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissim",
        description=(
            "Latent-variable model learning by dissimilarity-coefficient "
            "minimization, with latent-SVM baselines."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=6, help="number of classes")
    p.add_argument("--per-class", type=int, default=45, help="samples per class")
    p.add_argument("--grid", type=int, default=8, help="grid side, in cells")
    p.add_argument(
        "--boxes", type=int, default=16, help="candidate boxes (perfect square)"
    )
    p.add_argument("--box-cells", type=int, default=5, help="box side, in cells")
    p.add_argument("--feature-dim", type=int, default=8, help="cell feature dim")
    p.add_argument(
        "--clutter", type=float, default=0.3, help="decoy cell probability"
    )
    p.add_argument("--noise", type=float, default=0.5, help="feature noise scale")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", required=True, help="output dataset path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model")
    _add_fit_flags(p)
    p.add_argument("--method", choices=METHODS, default="dissim")
    p.add_argument("--loss", choices=LOSS_KINDS, default="zero_one")
    p.add_argument("--C", type=float, default=HyperParams.C, help="loss weight")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "experiment", help="cross-validated C sweep over methods and losses"
    )
    _add_fit_flags(p)
    p.add_argument(
        "--methods", default="dissim,lsvm,ilsvm", help="comma-separated methods"
    )
    p.add_argument(
        "--losses", default="zero_one,overlap", help="comma-separated losses"
    )
    p.add_argument(
        "--C-grid",
        dest="C_grid",
        default=",".join(repr(c) for c in DEFAULT_C_GRID),
        help="comma-separated C values, increasing",
    )
    p.add_argument("--folds", type=int, default=5, help="number of folds")
    p.add_argument(
        "--split", type=float, default=0.6, help="training fraction per fold"
    )
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="processes fitting the (loss, fold, C) cells (default: the "
        "usable CPUs, capped at the number of cells); results are the "
        "same for any count",
    )
    p.add_argument(
        "--no-timings",
        action="store_true",
        help="write zero wallclock columns for reproducible output",
    )
    p.add_argument("--out", required=True, help="results csv path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=50, help="checked draws per term")
    p.add_argument(
        "--corrupt",
        action="store_true",
        help="perturb analytic gradients (self-test; must exit 1)",
    )
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except (DissimError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # sizes too large to allocate
        detail = f": {err}" if str(err) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


def cli() -> None:
    raise SystemExit(main())
