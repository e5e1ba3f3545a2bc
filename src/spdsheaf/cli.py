"""Command-line entry point.

Subcommands: verify, sections, diffuse, probe, covgraph, lift. Every command
is a deterministic function of its input files, flags and seed; randomized
commands require an explicit --seed (no wall-clock seeding). Exit codes:
0 success, 1 check failure, 2 usage or I/O error or a refused allocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import jsonio, thread_cap, verify
from .covgraph import TFGraphConfig, build_tf_graph
from .errors import DomainError, InvalidInputError, NotApplicableError, ParseError
from .sheaf import section_space_summary
from .stream import (
    canonicalize,
    diffusion_run,
    lift_coordinates,
    local_frame,
    planarity_experiment,
)


def _check_at_least(args, **bounds):
    """Reject a flag value below its lower bound."""
    for name, low in bounds.items():
        if getattr(args, name) < low:
            raise InvalidInputError(f"--{name} must be >= {low}, got {getattr(args, name)}")


def _emit(text: str, path: str | None):
    """Print `text`, or write it to the file `path` when one is given."""
    if path is None:
        print(text)
    else:
        jsonio.write_text(path, text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    config = verify.SuiteConfig(checks=tuple(args.check) if args.check else verify.ALL_CHECKS,
                                seed=args.seed, dump_dir=args.out)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
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
        _emit(jsonio._dump_json(report), os.path.join(args.out, "verdicts.json"))
    return code


def cmd_sections(args) -> int:
    sheaf, _ = jsonio.load_sheaf(args.sheaf)
    # the report keys vertices by string, where the ids 1 and "1" would merge
    clash = sorted({str(v) for v in sheaf.vertices if isinstance(v, int)} & set(sheaf.vertices))
    if clash:
        raise InvalidInputError(f"vertex ids {clash} are given both as integers and as strings")
    _emit(jsonio._sections_to_json(sheaf, section_space_summary(sheaf)), args.out)
    return 0


def cmd_diffuse(args) -> int:
    _check_at_least(args, seed=0, layers=0)
    pc = jsonio.load_cloud(args.cloud)
    os.makedirs(args.out, exist_ok=True)
    final, trace = diffusion_run(
        pc, layers=args.layers, seed=args.seed,
        identity_maps=args.identity_maps, residual=not args.no_residual,
        normalize=not args.no_normalize)
    _emit(trace.to_csv(), os.path.join(args.out, "trace.csv"))
    _emit(jsonio.cochain0_to_json(pc.ids, final), os.path.join(args.out, "final_cochain.json"))
    run_params = {
        "cloud": os.path.basename(args.cloud),
        "layers": args.layers,
        "seed": args.seed,
        "identity_maps": args.identity_maps,
        "residual": not args.no_residual,
        "normalize": not args.no_normalize,
    }
    _emit(jsonio._dump_json(run_params), os.path.join(args.out, "run.json"))
    print(f"wrote trace.csv, final_cochain.json, run.json to {args.out}")
    return 0


def cmd_probe(args) -> int:
    _check_at_least(args, seed=0, samples=2, repeats=1, layers=0)
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
    _emit(jsonio._dump_json(report), args.out)
    return 0


def cmd_covgraph(args) -> int:
    segments = jsonio.load_segments(args.segments)
    cfg = TFGraphConfig(eps1=args.eps1, eps2=args.eps2, eps=args.eps, bandwidth=args.bandwidth)
    os.makedirs(args.out, exist_ok=True)
    result = build_tf_graph(segments, cfg)
    _emit(jsonio.sheaf_to_json(result.sheaf, cochain0=result.cochain),
          os.path.join(args.out, "sheaf.json"))
    _emit(jsonio.weights_to_json(result.sheaf.edges, result.weights),
          os.path.join(args.out, "weights.json"))
    w = result.weights
    stats = (f"min={min(w):.6g} max={max(w):.6g} mean={float(np.mean(w)):.6g}"
             if w else "none")
    print(f"|V|={result.sheaf.n_vertices} |E|={result.sheaf.n_edges} weights: {stats}")
    print(f"wrote sheaf.json, weights.json to {args.out}")
    return 0


def cmd_lift(args) -> int:
    pc = jsonio.load_cloud(args.cloud)
    sigma = lift_coordinates(pc)
    if args.canonicalize:
        frames, _ = local_frame(pc)
        sigma = canonicalize(sigma, frames)
    _emit(jsonio.cochain0_to_json(pc.ids, sigma), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spd-sheaf",
        description="SPD-stalk cellular sheaves: verification, sections, diffusion, "
                    "probes and covariance graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the brute-force property suite")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--all", action="store_true", help="run every check (default)")
    which.add_argument("--check", action="append", choices=verify.ALL_CHECKS,
                       help="run a single check (repeatable, once per check)")
    p.add_argument("--seed", type=int, default=verify.SuiteConfig.seed)
    p.add_argument("--out", help="directory for verdicts.json and failure dumps")

    p = sub.add_parser("sections", help="kernel basis, index and holonomy of a sheaf file")
    p.add_argument("sheaf", help="sheaf JSON file")
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("diffuse", help="diffusion run on a point cloud with rank trace")
    p.add_argument("cloud", help="point-cloud JSON file")
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--identity-maps", action="store_true")
    p.add_argument("--no-residual", action="store_true")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("probe", help="synthetic planarity probe with shuffle control")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--samples", type=int, default=200, help="samples per class")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("covgraph", help="time-frequency covariance graph from segments")
    p.add_argument("segments", help="segments JSON file")
    p.add_argument("--eps1", type=float, required=True, help="time window width (s)")
    p.add_argument("--eps2", type=float, required=True, help="frequency window height (Hz)")
    p.add_argument("--eps", type=float, required=True, help="squared-distance gate")
    p.add_argument("--bandwidth", type=float, required=True, help="RBF bandwidth")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("lift", help="lift a point cloud to an SPD 0-cochain")
    p.add_argument("cloud", help="point-cloud JSON file")
    p.add_argument("--canonicalize", action="store_true",
                   help="express values in equivariant local frames")
    p.add_argument("--out", help="write the cochain here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # importing the package applied a valid cap; an invalid one is reported here
        thread_cap()
        # looked up per call, so the one cached parser holds no command function
        command = {"verify": cmd_verify, "sections": cmd_sections, "diffuse": cmd_diffuse,
                   "probe": cmd_probe, "covgraph": cmd_covgraph, "lift": cmd_lift}
        return command[args.command](args)
    except (ParseError, InvalidInputError, DomainError, NotApplicableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
