"""Batch command-line front end.

Subcommands: build, eval, audit, rate-study, manifold-study, risk-study,
adv-study, net-io.  Exit codes: 0 success, 1 failed acceptance check,
2 configuration error (a bad config, model file, point or grid, or an output
path that cannot be written), 3 internal error (traceback on stderr).
"""

import argparse
import json
import math
import sys
import traceback

from pathlib import Path

import numpy as np

from . import serialize
from .metrics import EvalGrid
from .netcore import resnet_forward_batch
from .studies import (
    ConfigError,
    audit_document,
    load_target,
    run_study,
    validate_config,
    write_json,
)
from .taylor import build_euclidean


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def cmd_build(args):
    cfg = _load_config(args.config)
    if args.seed is not None and isinstance(cfg, dict):
        cfg["seed"] = args.seed
    cfg = validate_config(cfg, kind="build")
    target = load_target(cfg["target"], cfg["alpha"], cfg["dim"])
    approx = build_euclidean(
        target,
        s=0,
        p=math.inf,
        Mt=cfg["Mt"],
        Jt=cfg["Jt"],
        N=cfg["N"],
        compile_model=cfg["compile"],
        seed=cfg["seed"],
    )
    out = Path(args.out or "build-out")
    out.mkdir(parents=True, exist_ok=True)
    record = dict(approx.record)
    record["target"] = target.name
    if approx.model is not None:
        serialize.save(out / "model.json", approx.model)
        record["model"] = "model.json"
        record["class_params"] = vars(approx.class_params)
    write_json(out / "coeffs.json", approx.coeffs.to_json_dict())
    write_json(out / "record.json", record)
    print(f"built {target.name}: N={approx.N} eta={approx.eta:.3e} -> {out}")
    return 0


def _parse_point(text, dim):
    try:
        x = [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"--at {text!r}: coordinates must be numbers") from None
    if len(x) != dim:
        raise ConfigError(f"--at {text!r} has {len(x)} coordinates; the network takes {dim}")
    if not all(0.0 <= t <= 1.0 for t in x):
        raise ConfigError(f"--at {text!r} lies outside the domain [0, 1]^{dim}")
    return x


def cmd_eval(args):
    if args.grid < 1:
        raise ConfigError(f"--grid must be an integer >= 1, got {args.grid}")
    net = serialize.load(args.net)
    if args.at:
        X = np.array([_parse_point(point, net.input_dim) for point in args.at])
    else:
        X = EvalGrid(net.input_dim, args.grid, offset=0.0).points
    vals = resnet_forward_batch(net, X)
    lines = [",".join(["x%d" % i for i in range(net.input_dim)] + ["value"])]
    for x, v in zip(X, vals):
        lines.append(",".join(repr(float(t)) for t in x) + "," + repr(float(v)))
    text = "\n".join(lines) + "\n"
    if args.out:
        serialize.atomic_write_text(Path(args.out) / "eval.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_audit(args):
    doc = audit_document(args.net)
    if args.out:
        write_json(Path(args.out) / "audit.json", doc)
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_net_io(args):
    if args.mode == "copy":
        if not args.dest:
            raise ConfigError("net-io copy needs --dest")
        serialize.save(args.dest, serialize.load(args.net))
        return 0
    obj = serialize.load(args.net)
    doc1 = serialize.to_dict(obj)
    doc2 = serialize.to_dict(serialize.from_dict(json.loads(json.dumps(doc1))))
    if doc1 != doc2:
        print("roundtrip mismatch", file=sys.stderr)
        return 1
    print(f"roundtrip ok: {args.net}")
    return 0


def _study_command(kind):
    def run(args):
        doc = _load_config(args.config)
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        doc.setdefault("kind", kind)
        if doc["kind"] != kind:
            raise ConfigError(f"config kind {doc['kind']!r} does not match subcommand {kind!r}")
        if args.seed is not None:
            doc["seed"] = args.seed
        code, summary = run_study(doc, args.out or "study-out")
        status = "PASS" if code == 0 else "FAIL"
        print(f"[{status}] {kind} -> {args.out or 'study-out'}")
        for key in ("slope_k0", "slope_k1", "success_fraction", "theoretical_floor"):
            if key in summary:
                print(f"  {key} = {summary[key]}")
        return code

    return run


def _shared_flags(for_subcommand):
    # Subcommand copies suppress their defaults so they never clobber values
    # parsed from the flags' pre-subcommand position.
    default = argparse.SUPPRESS if for_subcommand else None
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=default, help="override config seed")
    p.add_argument("--out", default=default, help="output directory")
    return p


def main(argv=None):
    shared = _shared_flags(for_subcommand=True)
    top = argparse.ArgumentParser(
        prog="sobolev-forge", description=__doc__, parents=[_shared_flags(False)]
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[shared],
                       help="compile a registry target into a network")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("eval", parents=[shared], help="evaluate a saved network")
    p.add_argument("--net", required=True)
    p.add_argument("--at", action="append", help="point as comma-separated floats")
    p.add_argument("--grid", type=int, default=11)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("audit", parents=[shared],
                       help="report class parameters of a saved network")
    p.add_argument("--net", required=True)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("net-io", parents=[shared], help="serialization roundtrip utilities")
    p.add_argument("mode", choices=["check", "copy"])
    p.add_argument("--net", required=True)
    p.add_argument("--dest", default=None)
    p.set_defaults(fn=cmd_net_io)

    for kind, name in [
        ("euclidean-rate", "rate-study"),
        ("manifold-rate", "manifold-study"),
        ("risk", "risk-study"),
        ("adversarial", "adv-study"),
    ]:
        p = sub.add_parser(name, parents=[shared],
                           help=f"run a {kind} study from a config file")
        p.add_argument("--config", required=True)
        p.set_defaults(fn=_study_command(kind))

    args = top.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except serialize.SerializationError as e:
        print(f"network file error: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # reading inputs raises the two above: this is an output
        print(f"config error: cannot write output: {e}", file=sys.stderr)
        return 2
    except Exception:
        # never exit 1 on a crash: 1 means a failed acceptance check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
