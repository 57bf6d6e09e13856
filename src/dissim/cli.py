"""Command line harness: generate, train, experiment, gradcheck.

Exit codes: 0 on success, 2 on input or configuration errors (including
malformed flags, which argparse reports by flag name), 3 on solver
failures.  Every command is deterministic given identical flags, except
that experiment rows carry measured wallclock times unless --no-timings
is passed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dataio import (
    ModelRecord,
    ResultRow,
    load_dataset,
    save_dataset,
    save_model,
    save_results,
)
from .errors import ConfigError, DissimError, SolverError
from .losses import LOSS_KINDS, HyperParams, make_loss
from .model import Dataset
from .gradcheck import run_gradient_checks
from .synth import TaskSpec, generate
from .thetasolver import SSDConfig
from .trainer import DEFAULT_C_GRID, METHODS, TrainConfig, _fit, run_protocol


def _check_loss_compatible(loss_kind: str, dataset: Dataset) -> None:
    if loss_kind == "overlap" and not dataset.geometric:
        raise ConfigError(
            "--loss overlap needs box annotations; the dataset is abstract"
        )


def cmd_generate(args) -> int:
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


def _hyper_from_args(args, method: str) -> HyperParams:
    for flag, name in (("J", "--J"), ("beta", "--beta")):
        if method != "dissim" and getattr(args, flag) is not None:
            print(
                f"warning: {name} has no effect for method {method}",
                file=sys.stderr,
            )
    return HyperParams(
        C=args.C,
        J=args.J if args.J is not None else 0.1,
        beta=args.beta if args.beta is not None else 0.1,
        epsilon=args.epsilon,
    )


def cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    _check_loss_compatible(args.loss, dataset)
    loss = make_loss(args.loss)
    hyper = _hyper_from_args(args, args.method)
    config = TrainConfig(
        hyper=hyper,
        ssd=SSDConfig(steps_per_sample=args.ssd_factor, seed=args.seed),
        inner_tol=args.inner_tol,
        max_outer_rounds=args.max_rounds,
    )
    params, trace, termination = _fit(args.method, dataset, loss, config)
    save_model(
        ModelRecord(
            params=params,
            method=args.method,
            loss_kind=args.loss,
            termination=termination,
            trace=trace,
        ),
        args.out,
    )
    print(
        f"{args.method} trained on {len(dataset)} samples: "
        f"objective {trace[-1]:.6f}, {termination}, model at {args.out}"
    )
    return 0


def cmd_experiment(args) -> int:
    dataset = load_dataset(args.data)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    losses = [l.strip() for l in args.losses.split(",") if l.strip()]
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
    config = TrainConfig(
        hyper=HyperParams(C=c_grid[0], J=args.J, beta=args.beta, epsilon=args.epsilon),
        ssd=SSDConfig(
            steps_per_sample=args.ssd_factor if args.ssd_factor else 50,
            seed=args.seed,
        ),
        inner_tol=args.inner_tol,
        max_outer_rounds=args.max_rounds,
        C_grid=c_grid,
        split_seed=args.seed,
    )
    out = Path(args.out)
    base = out.with_suffix("")
    rows: list[ResultRow] = []
    summary_lines: list[str] = []
    for loss_kind in losses:
        loss = make_loss(loss_kind)
        for method in methods:
            result = run_protocol(
                dataset,
                loss,
                config,
                n_folds=args.folds,
                split=args.split,
                method=method,
            )
            for r in result.rows:
                rows.append(
                    ResultRow(
                        method=method,
                        loss_kind=loss_kind,
                        C=r.C,
                        fold=r.fold,
                        test_loss=r.test_loss,
                        train_objective=r.train_objective,
                        wallclock_seconds=0.0
                        if args.no_timings
                        else r.wallclock_seconds,
                    )
                )
            curve_path = Path(f"{base}_curve_{loss_kind}_{method}.tsv")
            curve_lines = ["# C\tmean\tstd"]
            for point in result.summary:
                curve_lines.append(
                    f"{point.C!r}\t{point.mean!r}\t{point.std!r}"
                )
                summary_lines.append(
                    f"method={method} loss={loss_kind} C={point.C!r} "
                    f"mean={point.mean:.4f} std={point.std:.4f}"
                )
            curve_path.write_text("\n".join(curve_lines) + "\n")
            best = min(result.summary, key=lambda p: p.mean)
            line = (
                f"{method} / {loss_kind}: best C {best.C!r} "
                f"mean test loss {best.mean:.4f} +- {best.std:.4f}"
            )
            summary_lines.append(line)
            print(line)
    save_results(rows, out)
    Path(f"{base}_summary.txt").write_text("\n".join(summary_lines) + "\n")
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
    p.add_argument("--data", required=True, help="dataset path")
    p.add_argument("--method", choices=METHODS, default="dissim")
    p.add_argument("--loss", choices=LOSS_KINDS, default="zero_one")
    p.add_argument("--C", type=float, default=1.0, help="loss weight")
    p.add_argument(
        "--J", type=float, default=None, help="theta regularizer weight"
    )
    p.add_argument(
        "--beta", type=float, default=None, help="self-term weight in (0, 1)"
    )
    p.add_argument("--epsilon", type=float, default=1e-3, help="stop tolerance")
    p.add_argument(
        "--inner-tol", type=float, default=1e-4, help="cutting-plane tolerance"
    )
    p.add_argument(
        "--ssd-factor",
        type=int,
        default=50,
        help="subgradient steps per training sample",
    )
    p.add_argument(
        "--max-rounds", type=int, default=40, help="outer round budget"
    )
    p.add_argument("--seed", type=int, default=0, help="stochastic solver seed")
    p.add_argument("--out", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "experiment", help="cross-validated C sweep over methods and losses"
    )
    p.add_argument("--data", required=True, help="dataset path")
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
    p.add_argument("--J", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--inner-tol", type=float, default=1e-4)
    p.add_argument(
        "--ssd-factor",
        type=int,
        default=None,
        help="subgradient steps per training sample (default 50)",
    )
    p.add_argument("--max-rounds", type=int, default=40)
    p.add_argument("--seed", type=int, default=0, help="split and solver seed")
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
    except DissimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def cli() -> None:
    raise SystemExit(main())
