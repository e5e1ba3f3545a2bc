"""Command-line entry point.

Subcommands: verify, sections, diffuse, probe, covgraph, lift. Every command
is a deterministic function of its input files, flags and seed; randomized
commands require an explicit --seed (no wall-clock seeding). Exit codes:
0 success, 1 check failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import THREAD_ENV, jsonio, thread_cap, verify
from .covgraph import TFGraphConfig, build_tf_graph
from .errors import DomainError, InvalidInputError, NotApplicableError, ParseError
from .sheaf import NULL_TOL, section_space_summary, sym_dim
from .stream import (
    canonicalize,
    diffusion_run,
    lift_coordinates,
    local_frame,
    planarity_experiment,
)

def _check_thread_cap():
    """Reject an invalid SPD_SHEAF_THREADS; importing the package applied a valid one."""
    try:
        thread_cap()
    except ValueError:
        raise InvalidInputError(
            f"{THREAD_ENV} must be a positive integer, got {os.environ[THREAD_ENV]!r}") from None


def _check_at_least(args, **bounds):
    """Reject a flag value below its lower bound."""
    for name, low in bounds.items():
        if getattr(args, name) < low:
            raise InvalidInputError(f"--{name} must be >= {low}, got {getattr(args, name)}")


def _write_report(obj, path: str | None):
    """Write a JSON report to `path`, or print it when `path` is None."""
    text = jsonio._dump_json(obj, path)
    if path is None:
        print(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    fields = {"checks": tuple(args.check) if args.check else verify.ALL_CHECKS,
              "seed": args.seed, "trials": args.trials}
    if args.n:
        fields["stalk_dims"] = tuple(args.n)
    if args.config:
        # config values override the flags; SuiteConfig validates them
        cfg = jsonio.load_json(args.config)
        if not isinstance(cfg, dict):
            raise ParseError("verify config must be a JSON object")
        unknown = sorted(set(cfg) - verify.CONFIG_KEYS)
        if unknown:
            raise ParseError(f"verify config: unknown key(s) {unknown}")
        fields.update(cfg)
    config = verify.SuiteConfig(dump_dir=args.out, **fields)
    verdicts, code = verify.run_suite(config)

    header = f"{'check':<16}{'trials':>8}{'max residual':>16}{'tolerance':>12}  status"
    print(header)
    print("-" * len(header))
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"{v.check:<16}{v.trials:>8}{v.max_residual:>16.3e}{v.tolerance:>12.1e}  {status}")
    report = {"seed": config.seed, "passed": code == 0,
              "verdicts": [dataclasses.asdict(v) for v in verdicts]}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_report(report, os.path.join(args.out, "verdicts.json"))
    return code


def cmd_sections(args) -> int:
    sheaf, _ = jsonio.load_sheaf(args.sheaf)
    summary = section_space_summary(sheaf, args.tol)
    basis, residuals = summary["basis"], summary["edge_residuals"]
    m = sym_dim(sheaf.n_stalk)
    basis_entries = [{
        "log_upper": {str(v): basis[i * m:(i + 1) * m, col].tolist()
                      for i, v in enumerate(sheaf.vertices)},
        "edge_residuals": residuals[col].tolist(),
    } for col in range(basis.shape[1])]
    report = {
        "n_stalk": sheaf.n_stalk,
        "n_vertices": sheaf.n_vertices,
        "n_edges": sheaf.n_edges,
        "kernel_dim": summary["kernel_dim"],
        "index": summary["index"],
        "components": summary["components"],
        "holonomy_fixed_dims": summary["holonomy_fixed_dims"],
        "holonomy_fixed_total": summary["holonomy_fixed_total"],
        "basis": basis_entries,
    }
    _write_report(report, args.out)
    return 0


def cmd_diffuse(args) -> int:
    _check_at_least(args, seed=0, layers=0)
    pc = jsonio.load_cloud(args.cloud)
    final, trace = diffusion_run(
        pc, layers=args.layers, seed=args.seed,
        identity_maps=args.identity_maps, residual=not args.no_residual,
        normalize=not args.no_normalize)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "trace.csv"), "w", encoding="utf-8") as fh:
        fh.write(trace.to_csv())
    jsonio.cochain0_to_json(3, dict(zip(pc.ids, final)),
                            path=os.path.join(args.out, "final_cochain.json"))
    run_params = {
        "cloud": os.path.basename(args.cloud),
        "layers": args.layers,
        "seed": args.seed,
        "identity_maps": args.identity_maps,
        "residual": not args.no_residual,
        "normalize": not args.no_normalize,
    }
    _write_report(run_params, os.path.join(args.out, "run.json"))
    print(f"wrote trace.csv, final_cochain.json, run.json to {args.out}")
    return 0


def cmd_probe(args) -> int:
    _check_at_least(args, seed=0, samples=1, repeats=1, layers=0)
    rng = np.random.default_rng(args.seed)
    seeds = [int(rng.integers(0, 2**31)) for _ in range(args.repeats)]
    runs, controls = zip(*(planarity_experiment(s, n_per_class=args.samples,
                                                n_layers=args.layers) for s in seeds))
    test_acc = [r["test_accuracy"] for r in runs]
    ctrl_acc = [r["test_accuracy"] for r in controls]
    report = {
        "seed": args.seed,
        "repeats": args.repeats,
        "samples_per_class": args.samples,
        "layers": args.layers,
        "runs": runs,
        "test_accuracy_mean": float(np.mean(test_acc)),
        "test_accuracy_sd": float(np.std(test_acc)),
        "shuffle_control": controls,
        "shuffle_control_mean": float(np.mean(ctrl_acc)),
        "shuffle_control_sd": float(np.std(ctrl_acc)),
    }
    _write_report(report, args.out)
    return 0


def cmd_covgraph(args) -> int:
    segments = jsonio.load_segments(args.segments)
    cfg = TFGraphConfig(eps1=args.eps1, eps2=args.eps2, eps=args.eps,
                        bandwidth=args.bandwidth, shrinkage=args.shrinkage,
                        normalize_samples=args.normalize)
    result = build_tf_graph(segments, cfg)
    os.makedirs(args.out, exist_ok=True)
    jsonio.sheaf_to_json(result.sheaf, cochain0=result.cochain,
                         path=os.path.join(args.out, "sheaf.json"))
    jsonio.weights_to_json(result.sheaf.edges, result.weights,
                           path=os.path.join(args.out, "weights.json"))
    w = result.weights
    stats = (f"min={min(w):.6g} max={max(w):.6g} mean={float(np.mean(w)):.6g}"
             if w else "none")
    print(f"|V|={result.sheaf.n_vertices} |E|={result.sheaf.n_edges} weights: {stats}")
    print(f"wrote sheaf.json, weights.json to {args.out}")
    return 0


def cmd_lift(args) -> int:
    pc = jsonio.load_cloud(args.cloud)
    sigma = lift_coordinates(pc, eps_dir=args.eps_dir, eps_spd=args.eps_spd)
    if args.canonicalize:
        frames, _ = local_frame(pc)
        sigma = canonicalize(sigma, frames)
    text = jsonio.cochain0_to_json(3, dict(zip(pc.ids, sigma)), path=args.out)
    if args.out is None:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spd-sheaf",
        description="SPD-stalk cellular sheaves: verification, sections, diffusion, "
                    "probes and covariance graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the brute-force property suite")
    p.add_argument("--all", action="store_true", help="run every check (default)")
    p.add_argument("--check", action="append", choices=verify.ALL_CHECKS,
                   help="run a single check (repeatable)")
    p.add_argument("--n", action="append", type=int, help="stalk dimension (repeatable)")
    p.add_argument("--seed", type=int, default=verify.SuiteConfig.seed)
    p.add_argument("--trials", type=int, default=verify.SuiteConfig.trials)
    p.add_argument("--config", help="JSON config overriding checks and sizes")
    p.add_argument("--out", help="directory for verdicts.json and failure dumps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sections", help="kernel basis, index and holonomy of a sheaf file")
    p.add_argument("sheaf", help="sheaf JSON file")
    p.add_argument("--tol", type=float, default=NULL_TOL)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("diffuse", help="diffusion run on a point cloud with rank trace")
    p.add_argument("cloud", help="point-cloud JSON file")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--identity-maps", action="store_true")
    p.add_argument("--no-residual", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_diffuse)

    p = sub.add_parser("probe", help="synthetic planarity probe with shuffle control")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--samples", type=int, default=200, help="samples per class")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("covgraph", help="time-frequency covariance graph from segments")
    p.add_argument("segments", help="segments JSON file")
    p.add_argument("--eps1", type=float, required=True, help="time window width (s)")
    p.add_argument("--eps2", type=float, required=True, help="frequency window height (Hz)")
    p.add_argument("--eps", type=float, required=True, help="squared-distance gate")
    p.add_argument("--bandwidth", type=float, required=True, help="RBF bandwidth")
    p.add_argument("--shrinkage", type=float, default=TFGraphConfig.shrinkage)
    p.add_argument("--normalize", action="store_true", help="divide covariances by sample count")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_covgraph)

    p = sub.add_parser("lift", help="lift a point cloud to an SPD 0-cochain")
    p.add_argument("cloud", help="point-cloud JSON file")
    p.add_argument("--eps-dir", type=float, default=1e-8)
    p.add_argument("--eps-spd", type=float, default=1e-4)
    p.add_argument("--canonicalize", action="store_true",
                   help="express values in equivariant local frames")
    p.add_argument("--out", help="write the cochain here instead of stdout")
    p.set_defaults(func=cmd_lift)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_thread_cap()
        return args.func(args)
    except (ParseError, InvalidInputError, DomainError, NotApplicableError,
            FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
