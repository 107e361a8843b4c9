"""Command-line front end.

Subcommands: validate, fk, jacobian, identify, bench.  Results go to stdout
as a schema-versioned JSON document (CSV available for fk poses);
diagnostics go to stderr.  Exit codes: 0 success, 2 URDF/file errors and
unknown options (argparse's usage error), 3 chain errors, 4 shape/config
errors, 5 identification budget exhausted.  fk, jacobian and identify take
--seed and --no-timing, bench takes --seed, validate neither.

With a fixed --seed and --no-timing, fk and jacobian output is byte-stable
across runs: floats are serialized with 17 significant digits and key order
is fixed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from .bench import run_bench
from .identify import IdentifyConfig, run_identification
from .kinematics import FkEngine, ShapeError, pose_jacobian
from .transforms import pose_batch_from_transforms
from .urdf import ChainError, UrdfError, extract_chain, parse_urdf

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CHAIN = 3
EXIT_SHAPE = 4
EXIT_BUDGET = 5

# Exit code of each error a handler raises; the first match wins, and
# UrdfError, ChainError and ShapeError are ValueErrors.
_EXIT_CODES = ((UrdfError, EXIT_PARSE), (ChainError, EXIT_CHAIN), (OSError, EXIT_PARSE), (ValueError, EXIT_SHAPE))

_SCALARS = (str, bool, int, float, np.integer, np.floating, type(None))


def _scalar_json(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # 17 significant digits: parses back to the identical float64
    return format(float(value), ".17g")


def _dump_json(value, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = [
            f"{pad}  {json.dumps(str(key))}: {_dump_json(item, indent + 1)}"
            for key, item in value.items()
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            return "[]"
        if all(isinstance(item, _SCALARS) for item in items):
            return "[" + ", ".join(_scalar_json(item) for item in items) + "]"
        lines = [f"{pad}  {_dump_json(item, indent + 1)}" for item in items]
        return "[\n" + ",\n".join(lines) + "\n" + pad + "]"
    if isinstance(value, _SCALARS):
        return _scalar_json(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _read_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _flat(array):
    return [float(x) for x in np.asarray(array, dtype=float).reshape(-1)]


def _read_json(path, what):
    try:
        return json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise ShapeError(f"{what} {path}: invalid JSON ({exc})") from None


def _load_configs(path, m):
    """Configuration rows from JSON (array of arrays) or CSV (one row per line)."""
    if path.endswith(".json"):
        rows = _read_json(path, "configs file")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ShapeError(f"configs file {path}: expected an array of arrays")
    else:
        lines = _read_file(path).splitlines()
        if m == 0:
            # zero-dof chains: every line (even blank) is one configuration,
            # and an empty file means a single one
            return [[] for _ in lines] if lines else [[]]
        rows = []
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            tokens = [tok.strip() for tok in stripped.split(",")]
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ShapeError(f"configs file {path} line {lineno}: non-numeric entry") from None
    if not rows:
        raise ShapeError(f"configs file {path}: no configurations")
    out = []
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ShapeError(
                f"configs file {path}: configuration {i} has {len(row)} values, chain needs {m}"
            )
        # CSV rows are floats already; a JSON value must be a number, and a
        # JSON true or "0.5" is not one
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row):
            raise ShapeError(f"configs file {path}: configuration {i} has a non-numeric entry")
        try:
            out.append([float(v) for v in row])
        except OverflowError:
            raise ShapeError(f"configs file {path}: configuration {i} has an entry beyond float range") from None
    return out


def _chain_header(chain):
    return {"base": chain.base_link, "end": chain.end_link, "n": chain.n, "m": chain.m}


def _seed_of(args, fallback=0):
    return args.seed if args.seed is not None else fallback


def _document(args, body, seconds=None, **extra):
    """The schema-1 document of ``body``; a timed command (``seconds`` given)
    ends with its diagnostics: ``extra``, then the timing unless --no-timing."""
    doc = {"schema": 1, "command": args.command, **body}
    if seconds is not None:
        doc["diagnostics"] = extra
        if not args.no_timing:
            extra["timing"] = {"seconds": seconds}
    return doc


def _timed_on_chain(args, call):
    """(chain, result, seconds) of one ``call(engine, thetas)`` on a fresh
    FkEngine for the base -> end chain and the configs file's rows."""
    chain = extract_chain(parse_urdf(_read_file(args.urdf)), args.base, args.end)
    thetas = np.array(_load_configs(args.configs, chain.m), dtype=float)
    engine = FkEngine(chain, len(thetas))
    start = time.perf_counter()
    result = call(engine, thetas)
    return chain, result, time.perf_counter() - start


# -- subcommand handlers (return (document or CSV text, exit code)) ----------


def _cmd_validate(args):
    model = parse_urdf(_read_file(args.urdf))
    joints = [
        {
            "name": j.name,
            "type": j.joint_type.value,
            "dof": j.dof,
            "parent": j.parent_link,
            "child": j.child_link,
            "axis": list(j.axis) if j.axis is not None else None,
            "limits": {"lower": j.limits.lower, "upper": j.limits.upper} if j.limits else None,
        }
        for j in model.joints
    ]
    chains = [
        [model.root_link] + [j.child_link for j in extract_chain(model, model.root_link, leaf).joints]
        for leaf in sorted(model.leaf_links())
    ]
    body = {
        "name": model.name,
        "root": model.root_link,
        "links": model.link_names(),
        "joints": joints,
        "dof_total": sum(j.dof for j in model.joints),
        "leaf_chains": chains,
    }
    return _document(args, body), EXIT_OK


def _cmd_fk(args):
    if args.intermediates and args.format == "csv":
        raise ShapeError("--intermediates needs --format json: the CSV output holds only the poses")

    def forward(engine, thetas):
        if not args.intermediates:
            return engine.forward(thetas), None
        inters = engine.forward(thetas, want_intermediates=True)
        return (inters[:, -1].copy() if engine.n else engine.forward(thetas)), inters

    chain, (finals, inters), elapsed = _timed_on_chain(args, forward)
    # finite configurations can still overflow, and JSON has no inf or NaN
    if not all(np.isfinite(a).all() for a in (finals, inters) if a is not None):
        raise ShapeError("non-finite value in fk output")
    poses, degenerate = pose_batch_from_transforms(finals)
    if args.format == "csv":
        lines = ["index,x,y,z,alpha,beta,gamma"]
        for k, pose in enumerate(poses):
            lines.append(str(k) + "," + ",".join(format(float(v), ".17g") for v in pose))
        return "\n".join(lines) + "\n", EXIT_OK
    results = []
    for k in range(len(finals)):
        entry = {
            "index": k,
            "transform": _flat(finals[k]),
            "pose": _flat(poses[k]),
            "degenerate": bool(degenerate[k]),
        }
        if inters is not None:
            entry["intermediates"] = [
                {"joint": joint.name, "transform": _flat(inters[k, i])}
                for i, joint in enumerate(chain.joints)
            ]
        results.append(entry)
    body = {"seed": _seed_of(args), "chain": _chain_header(chain), "results": results}
    return _document(args, body, elapsed, degenerate_count=int(degenerate.sum())), EXIT_OK


def _cmd_jacobian(args):
    chain, jacobians, elapsed = _timed_on_chain(args, pose_jacobian)
    results = [
        {"index": k, "shape": [6, chain.m], "jacobian": _flat(jac)}
        for k, jac in enumerate(jacobians)
    ]
    body = {"seed": _seed_of(args), "chain": _chain_header(chain), "results": results}
    return _document(args, body, elapsed), EXIT_OK


def _cmd_identify(args):
    model = parse_urdf(_read_file(args.urdf))
    raw = _read_json(args.config, "config file")
    if not isinstance(raw, dict):
        raise ShapeError(f"config file {args.config}: expected a JSON object")
    # the target and the chain are run_identification's arguments; the rest
    # of the object is the IdentifyConfig
    names = {key: raw.pop(key, None) for key in ("target_link", "base", "end")}
    for key, name in names.items():
        if name is not None and not isinstance(name, str):
            raise ShapeError(f"config file {args.config}: {key!r} must be a link name string, got {name!r}")
    target_link, base, end = names.values()
    try:
        cfg = IdentifyConfig.from_mapping(raw)
    except ValueError as exc:
        raise ShapeError(f"config file {args.config}: {exc}") from None
    if not (target_link and base and end):
        raise ShapeError(f"config file {args.config}: target_link, base and end are required")
    try:
        cfg = replace(cfg, seed=_seed_of(args, cfg.seed))
    except ValueError as exc:
        raise ShapeError(f"--seed {args.seed}: {exc}") from None
    result = run_identification(model, target_link, base, end, cfg)
    body = {
        "seed": cfg.seed,
        "target_link": target_link,
        "chain": {"base": base, "end": end},
        "status": result.status,
        "steps": result.steps,
        "final_loss": result.final_loss,
        "params": _flat(result.params),
        "init_hint": _flat(result.init_hint),
        "pose_error": _flat(result.pose_error),
        "param_error": _flat(result.param_error),
    }
    code = EXIT_OK if result.status == "converged" else EXIT_BUDGET
    return _document(args, body, result.seconds), code


def _cmd_bench(args):
    model = parse_urdf(_read_file(args.urdf))
    chain = extract_chain(model, args.base, args.end)
    try:
        batch_sizes = [int(tok) for tok in args.batch_sizes.split(",") if tok.strip()]
    except ValueError:
        raise ShapeError(f"invalid --batch-sizes value {args.batch_sizes!r}") from None
    if not batch_sizes:
        raise ShapeError("at least one batch size is required")
    report = run_bench(
        chain,
        batch_sizes,
        min_seconds=args.seconds,
        rng_seed=_seed_of(args),
        with_baseline=not args.skip_baseline,
        repeats=args.repeats,
    )
    results = [
        {
            "batch_size": m.batch_size,
            "iterations": m.iterations,
            "seconds": m.seconds,
            "ops_per_sec": m.ops_per_sec,
        }
        for m in report.measurements
    ]
    body = {
        "seed": _seed_of(args),
        "chain": _chain_header(chain),
        "results": results,
        "baseline_ops_per_sec": report.baseline_ops_per_sec,
        "ratios": report.ratios(),
        "machine": report.machine,
        "threads": report.threads,
    }
    return _document(args, body), EXIT_OK


def _build_parser():
    # --seed for the commands that echo it, --no-timing for those that time
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed (default 0; always echoed in output)")
    timed = argparse.ArgumentParser(add_help=False, parents=[seeded])
    timed.add_argument("--no-timing", action="store_true", help="omit wall-time diagnostics for byte-stable output")
    on_chain = argparse.ArgumentParser(add_help=False)
    for name in ("urdf", "base", "end"):
        on_chain.add_argument(name)

    parser = argparse.ArgumentParser(prog="diffkin", description="Batched differentiable forward kinematics for URDF robots")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a URDF and report tree statistics")
    p.add_argument("urdf")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("fk", parents=[on_chain, timed], help="forward kinematics for a batch of configurations")
    p.add_argument("configs", help="CSV (m columns per row) or .json (array of arrays)")
    p.add_argument("--intermediates", action="store_true", help="include every cumulative chain transform")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=_cmd_fk)

    p = sub.add_parser("jacobian", parents=[on_chain, timed], help="6 x m pose Jacobians for a batch of configurations")
    p.add_argument("configs")
    p.set_defaults(handler=_cmd_jacobian)

    p = sub.add_parser("identify", parents=[timed], help="recover a substituted joint's six parameters")
    p.add_argument("urdf")
    p.add_argument("config", help="JSON: {target_link, base, end[, batch_size, max_steps, seed]}")
    p.set_defaults(handler=_cmd_identify)

    p = sub.add_parser("bench", parents=[on_chain, seeded], help="forward-kinematics throughput across batch sizes")
    p.add_argument("--batch-sizes", default="1,256,1024,4096")
    p.add_argument("--seconds", type=float, default=0.5, help="minimum wall time per measurement")
    p.add_argument("--repeats", type=int, default=3, help="repetitions per batch size; fastest is reported")
    p.add_argument("--skip-baseline", action="store_true")
    p.set_defaults(handler=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        body, code = args.handler(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    sys.stdout.write(body if isinstance(body, str) else _dump_json(body) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
