"""Study runner: schema-validated configs in, CSV/JSON/SVG artifacts out.

Every study is reproducible from (config, seed): reruns produce identical
CSV bytes.  Pass/fail logic reads only the computed values; the SVG plots
are presentation-only.
"""

import json
import math

from pathlib import Path

from . import serialize
from .metrics import EvalGrid, fit_loglog_slope, grid_norm, grid_norms
from .netcore import audit_class
from .manifold import LEAST_N, build_atlas, build_manifold_approx, manifold_norms
from .risk import RiskConfig, adversarial_gap_check, empirical_residual_study
from .targets import EUCLIDEAN_TARGETS, MANIFOLD_TARGETS, get_manifold_target, get_target
from .taylor import ConfigError, build_euclidean


STUDY_KINDS = ("euclidean-rate", "manifold-rate", "risk", "adversarial")

_SCHEMAS = {
    "euclidean-rate": {
        "required": {"target", "alpha", "N_list"},
        "optional": {
            "dim": 2,
            "p": "inf",
            "grid": 61,
            "slope_window_k0": None,
            "slope_window_k1": None,
        },
    },
    "manifold-rate": {
        "required": {"target", "alpha", "N_list"},
        "optional": {
            "ambient_dim": 3,
            "r": None,
            "resolution": 40,
            "slope_window_k0": None,
            "slope_window_k1": None,
            "separation_slope": -1.2,
        },
    },
    "risk": {
        "required": {"target", "alpha", "N"},
        "optional": {"dim": 2, "n": 2000, "sigma": 0.2, "eps": 0.1, "reps": 200},
    },
    "adversarial": {
        "required": {"target", "alpha", "N"},
        "optional": {"dim": 2, "n_data": 200, "deltas": [0.01, 0.02, 0.05], "eps": None},
    },
    # the config of ``cli build``, which is not a study and names no kind
    "build": {
        "required": {"target", "alpha"},
        "optional": {"dim": 2, "N": None, "Mt": None, "Jt": None, "compile": True},
    },
}


def _is_int(value, least):
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _int_rule(least):
    return (lambda v: _is_int(v, least)), f"an integer >= {least}"


def _is_window(value):
    return (isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))
            and value[0] <= value[1])


# Every key of every config kind: (test, what a value must be).  A key whose
# default is null also takes null.
_RULES = {
    "target": (lambda v: isinstance(v, str), "a target name"),
    "alpha": _int_rule(1),
    "dim": _int_rule(1),
    "ambient_dim": _int_rule(2),
    "N": _int_rule(2),  # every build needs N >= 2
    "Mt": _int_rule(1),
    "Jt": _int_rule(1),
    "compile": (lambda v: isinstance(v, bool), "true or false"),
    "N_list": (lambda v: isinstance(v, list) and all(_is_int(N, 2) for N in v),
               "a list of integers >= 2"),
    "p": (lambda v: v == "inf" or _is_int(v, 1), '"inf" or an integer >= 1'),
    "grid": _int_rule(1),
    "resolution": _int_rule(1),
    "r": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "slope_window_k0": (_is_window, "a list [low, high] of numbers, low <= high"),
    "slope_window_k1": (_is_window, "a list [low, high] of numbers, low <= high"),
    "separation_slope": (_is_number, "a number"),
    "n": _int_rule(1),
    "sigma": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "eps": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "reps": _int_rule(1),
    "n_data": _int_rule(1),
    "deltas": (lambda v: isinstance(v, list) and v and all(_is_number(d) and d >= 0 for d in v),
               "a non-empty list of numbers >= 0"),
    "seed": _int_rule(0),
}


def validate_config(doc, kind=None):
    """The config with its defaults filled in; a ConfigError names the first
    unknown, missing or malformed key.  A study config names its kind; a
    build config is validated with kind="build" and has no kind key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind or 'study'} config must be a JSON object")
    keys = set(doc)
    if kind is None:
        kind = doc.get("kind")
        if kind not in STUDY_KINDS:
            raise ConfigError(f"missing or unknown study kind {kind!r}; known: {STUDY_KINDS}")
        keys.discard("kind")
    schema = _SCHEMAS[kind]
    allowed = schema["required"] | set(schema["optional"]) | {"seed"}
    unknown = keys - allowed
    if unknown:
        raise ConfigError(f"unknown {kind} config keys {sorted(unknown)}")
    missing = sorted(schema["required"] - keys)
    if missing:
        raise ConfigError(f"{kind} config is missing required key {', '.join(map(repr, missing))}")
    out = {"seed": 0, **schema["optional"], **doc}
    nullable = {key for key, default in schema["optional"].items() if default is None}
    for key in sorted(allowed):
        test, what = _RULES[key]
        if not (out[key] is None and key in nullable or test(out[key])):
            raise ConfigError(f"{key} must be {what}, got {out[key]!r}")
    if kind == "risk" and not (out["sigma"] == 0 or out["eps"] < min(out["sigma"], 1.0)):
        raise ConfigError(f"eps must be below min(sigma, 1) = {min(out['sigma'], 1.0)!r} "
                          f"unless sigma is 0, got {out['eps']!r}")
    if "target" in out:
        known = MANIFOLD_TARGETS if kind == "manifold-rate" else EUCLIDEAN_TARGETS
        if out["target"] not in known:
            raise ConfigError(f"unknown target {out['target']!r} for kind {kind!r}; "
                              f"known: {sorted(known)}")
    if kind == "manifold-rate" and any(N < LEAST_N for N in out["N_list"]):
        raise ConfigError(f"N_list must be a list of integers >= {LEAST_N} on a manifold, "
                          f"got {out['N_list']!r}")
    if "N_list" in out and len(set(out["N_list"])) < 2:
        raise ConfigError(f"N_list needs at least 2 distinct values to fit a slope, "
                          f"got {out['N_list']}")
    return out


def load_target(name, alpha, dim):
    """The registry target of a validated config; an order beyond the
    target's derivative table is a ConfigError."""
    try:
        return get_target(name, alpha=alpha, dim=dim)
    except KeyError as e:
        raise ConfigError(e.args[0]) from None


def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    serialize.atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, doc):
    serialize.atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_svg_loglog(path: Path, series, title, xlabel="N", ylabel="error"):
    """Minimal hand-rolled log-log plot: axes, ticks, one polyline per series."""
    W, H, M = 480, 360, 50
    xs_all = [x for pts, _ in series.values() for x in pts]
    ys_all = [y for _, pts in series.values() for y in pts]
    lx0, lx1 = math.log10(min(xs_all)), math.log10(max(xs_all))
    ly0, ly1 = math.log10(min(ys_all)), math.log10(max(ys_all))
    lx1 = lx1 if lx1 > lx0 else lx0 + 1
    ly1 = ly1 if ly1 > ly0 else ly0 + 1

    def px(x):
        return M + (math.log10(x) - lx0) / (lx1 - lx0) * (W - 2 * M)

    def py(y):
        return H - M - (math.log10(y) - ly0) / (ly1 - ly0) * (H - 2 * M)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{M}" y1="{H-M}" x2="{W-M}" y2="{H-M}" stroke="black"/>',
        f'<line x1="{M}" y1="{M}" x2="{M}" y2="{H-M}" stroke="black"/>',
        f'<text x="{W/2}" y="{H-10}" text-anchor="middle" font-size="11">{xlabel} (log)</text>',
        f'<text x="14" y="{H/2}" font-size="11" transform="rotate(-90 14 {H/2})" '
        f'text-anchor="middle">{ylabel} (log)</text>',
    ]
    for i, (label, (xs, ys)) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{W-M+4}" y="{M+14*i+10}" font-size="10" fill="{color}">{label}</text>'
        )
    for x in sorted(set(xs_all)):
        parts.append(
            f'<text x="{px(x):.1f}" y="{H-M+14}" text-anchor="middle" font-size="9">{x:g}</text>'
        )
    parts.append("</svg>")
    serialize.atomic_write_text(path, "\n".join(parts))


def _window(cfg_value, nominal):
    if cfg_value is not None:
        return tuple(cfg_value)
    return (nominal - 0.6, nominal + 0.6)


def _rate_result(cfg, out: Path, summary, errs, labels, title):
    """The tail both rate studies share: fit the k = 0 and k = 1 slopes over
    N_list, check each against its window (default -(alpha - k) +- 0.6) and,
    for a manifold study, slope_k0 against separation_slope; write
    summary.json and rates.svg, with the series of k labelled labels[k]."""
    N_list = list(cfg["N_list"])
    summary.update(alpha=cfg["alpha"], N_list=N_list, checks={})
    for k in (0, 1):
        slope, _ = fit_loglog_slope(N_list, errs[k])
        w = _window(cfg[f"slope_window_k{k}"], -float(cfg["alpha"] - k))
        summary[f"slope_k{k}"], summary[f"window_k{k}"] = slope, list(w)
        summary[f"errors_k{k}"] = errs[k]
        summary["checks"][f"slope_k{k}_in_window"] = w[0] <= slope <= w[1]
    if "separation_slope" in cfg:
        summary["separation_slope"] = cfg["separation_slope"]
        summary["checks"]["intrinsic_rate_separated"] = summary["slope_k0"] < cfg["separation_slope"]
    summary["pass"] = all(summary["checks"].values())
    write_json(out / "summary.json", summary)
    write_svg_loglog(out / "rates.svg", {labels[k]: (N_list, errs[k]) for k in (0, 1)}, title)
    return (0 if summary["pass"] else 1), summary


def run_euclidean_rate(cfg, out: Path):
    target = load_target(cfg["target"], cfg["alpha"], cfg["dim"])
    p = math.inf if cfg["p"] == "inf" else int(cfg["p"])
    grid = EvalGrid(target.dim, cfg["grid"])
    rows, errs = [], {0: [], 1: []}
    for N in cfg["N_list"]:
        ap = build_euclidean(target, s=0, p=p, N=int(N), compile_model=False)
        diff = lambda X: ap.eval(X) - target(X)
        for k, val in enumerate(grid_norms(diff, p, grid)):
            errs[k].append(val)
            rows.append(
                [target.name, N, int(N) ** target.dim, k, cfg["p"], val, cfg["grid"], cfg["seed"]]
            )
    write_csv(out / "rates.csv", ["target", "N", "MJ", "s_or_k", "p", "value", "grid", "seed"], rows)
    summary = {"kind": "euclidean-rate", "target": target.name}
    return _rate_result(cfg, out, summary, errs, ("W0", "W1"), f"{target.name}: error vs N")


def run_manifold_rate(cfg, out: Path):
    mspec, target = get_manifold_target(cfg["target"], cfg["ambient_dim"], order=cfg["alpha"])
    r = cfg["r"] if cfg["r"] is not None else 0.8 * mspec.reach / 4.0
    if not r < mspec.reach / 4.0:
        raise ConfigError(f"r must be below reach/4 = {mspec.reach / 4.0!r} on the "
                          f"{mspec.name}, got {r!r}")
    atlas = build_atlas(mspec, r)
    rows, errs = [], {0: [], 1: []}
    for N in cfg["N_list"]:
        ap = build_manifold_approx(target, mspec, N=int(N), atlas=atlas)
        diff = lambda X: ap.eval(X) - target(X)
        for k, (val, _) in enumerate(manifold_norms(diff, atlas, resolution=cfg["resolution"])):
            errs[k].append(val)
            rows.append(
                [mspec.name, mspec.ambient_dim, mspec.intrinsic_dim, N, k, val, atlas.chart_count]
            )
    write_csv(out / "rates.csv", ["manifold", "D", "d", "N", "k", "error", "charts"], rows)
    summary = {"kind": "manifold-rate", "target": target.name, "manifold": mspec.name,
               "chart_count": atlas.chart_count}
    title = f"{target.name} on {mspec.name}: error vs N"
    return _rate_result(cfg, out, summary, errs, ("W0(M)", "W1(M)"), title)


def run_risk(cfg, out: Path):
    target = load_target(cfg["target"], cfg["alpha"], cfg["dim"])
    ap = build_euclidean(target, s=0, p=math.inf, N=cfg["N"], compile_model=False)
    rc = RiskConfig(
        n=cfg["n"],
        sigma=cfg["sigma"],
        eps=cfg["eps"],
        reps=cfg["reps"],
        seed=cfg["seed"],
    )
    report = empirical_residual_study(rc, target, ap)
    report["kind"] = "risk"
    report["pass"] = bool(report["success_fraction"] >= report["theoretical_floor"])
    write_json(out / "summary.json", report)
    write_csv(
        out / "risk.csv",
        ["n", "sigma", "eps", "reps", "success_fraction", "theoretical_floor"],
        [
            [
                cfg["n"],
                cfg["sigma"],
                cfg["eps"],
                cfg["reps"],
                report["success_fraction"],
                report["theoretical_floor"],
            ]
        ],
    )
    return (0 if report["pass"] else 1), report


def run_adversarial(cfg, out: Path):
    target = load_target(cfg["target"], cfg["alpha"], cfg["dim"])
    ap = build_euclidean(target, s=0, p=math.inf, N=cfg["N"], compile_model=False)
    eps = cfg["eps"]
    if eps is None:
        grid = EvalGrid(target.dim, 41)
        eps = grid_norm(lambda X: ap.eval(X) - target(X), 0, math.inf, grid) * 1.05
    rc = RiskConfig(eps=eps, deltas=tuple(cfg["deltas"]), seed=cfg["seed"])
    report = adversarial_gap_check(rc, target, ap, n_data=cfg["n_data"])
    report["kind"] = "adversarial"
    report["eps"] = eps
    report["pass"] = bool(report["all_ok"])
    write_json(out / "summary.json", report)
    write_csv(
        out / "gaps.csv",
        ["delta", "gap", "bound"],
        [[row["delta"], row["gap"], row["bound"]] for row in report["gap_table"]],
    )
    return (0 if report["pass"] else 1), report


def audit_document(net_path):
    """Class parameters of the saved network at ``net_path`` as the audit
    document that ``audit`` prints and writes to audit.json."""
    params = audit_class(serialize.load(net_path))
    return {
        "kind": "audit",
        "net": net_path,
        "M": params.M,
        "L": params.L,
        "J": params.J,
        "K": params.K,
        "kappa1": params.kappa1,
        "kappa2": params.kappa2,
    }


def run_study(doc, out_dir):
    """Validate and execute one study; returns (exit_code, summary)."""
    cfg = validate_config(doc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = cfg["kind"]
    if kind == "euclidean-rate":
        return run_euclidean_rate(cfg, out)
    if kind == "manifold-rate":
        return run_manifold_rate(cfg, out)
    if kind == "risk":
        return run_risk(cfg, out)
    return run_adversarial(cfg, out)
