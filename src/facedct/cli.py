"""Command-line front door.

Subcommands: enroll, evaluate, identify, det-export, fuse-eval, sigsize,
synth-data.  Experiments are driven by a JSON config file, one file for
``enroll``, ``evaluate`` and ``fuse-eval``; each accepts and validates every
field (see :func:`load_config`).  Each command takes only the config flags
it reads:

- ``enroll``: ``--window --dim --channel --train-indices``;
- ``evaluate``: ``--metric --test-indices``; the window, dim and channel
  are the gallery's, and the config's ``window`` is read only for a gallery
  without ``meta.window``;
- ``fuse-eval``: ``--window --dim --metric --train-indices --test-indices``.

A flag replaces its config field before the one conversion and validation
of the config, so a flag and a field with the same value give the same
setting or the same error.  Exit codes are stable:
0 success, 1 validation error, 2 data error, 3 internal error.  Each command
raises the rule errors of its inputs as ValidationError or DataError, so any
other exception that escapes it, a ValueError included, is exit 3.  An input
that cannot be read or decoded exits 1 when it is the config and 2 when it
is a manifest, image, score or gallery file; an output that cannot be
written exits 1.  Each message names the file.

Each command needs only the sample indices it reads: enroll the training
indices, evaluate the test indices, fuse-eval both.  A subject with fewer
samples than the largest index a command needs is a data error naming it.

``evaluate`` writes, for each metric, ``scores{tag}.npy``,
``scores{tag}.csv`` and ``scores{tag}.json`` (the score file and its pinned
sidecars, see ``matching``), ``det{tag}.csv`` and, with ``--svg``,
``det{tag}.svg``; the tag is empty for one metric and ``_<metric>``
otherwise.  It writes ``results.json`` last.  ``enroll`` writes the three
gallery files, then ``provenance.json``.  ``det-export`` reads the cells
from the sidecars of its ``--scores`` file when they match it.

``results.json`` (evaluate) and ``provenance.json`` (enroll) record a run.
Each command removes the old one from its output directory before its first
write and writes the new one last, so a run that fails half-way leaves no
record that its files could be mistaken for.  ``evaluate`` also removes every
other file name listed above, for every tag, so no file of an older run
stays beside the new run's files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DataError, ValidationError, parse_json, read_bytes, remove_file, write_atomic
from .features import DEFAULT_DIM
from .fusion import apply_fusion, parse_fusion_spec, run_channel_pipeline
from .gallery import (
    GalleryError,
    SplitSpec,
    check_window,
    load_gallery,
    save_gallery,
    select_samples,
)
from .imageio import CHANNELS, load_manifest, write_json
from .matching import (
    METRICS,
    build_score_tensor,
    check_metric,
    load_scores_csv,
    save_scores_csv,
    subject_distances,
)
from .pipeline import (
    DEFAULT_WINDOW,
    extract_subject_features,
    featurize_image,
    summarize_tensor,
)
from .significance import (
    SignificanceParams,
    min_resolvable_error_rate,
    required_n,
    simplified_n,
)
from .synth import PLACEMENTS, SynthSpec, generate_dataset
from .verification import (
    DcfParams,
    det_vertices,
    eer as eer_of,
    render_det_svg,
    save_det_csv,
    split_intra_inter,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _UsageError(ValidationError):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse failures through our exit-code contract (1, not 2)
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@dataclass
class ExperimentConfig:
    """Aggregated experiment parameters; :func:`load_config` gives the JSON
    schema, and these defaults are its defaults."""

    manifest: Path
    train_indices: tuple[int, ...] = (1, 2, 3, 4, 5)
    test_indices: tuple[int, ...] = (6, 7, 8, 9, 10)
    window: int = DEFAULT_WINDOW
    dim: int = DEFAULT_DIM
    metrics: tuple[str, ...] = ("mse",)
    channel: str = "gray"
    c_miss: float = 1.0
    c_fa: float = 1.0
    output_dir: Path | None = None

    def split(self) -> SplitSpec:
        return SplitSpec.from_iterables(self.train_indices, self.test_indices)

    def validate(self) -> None:
        """The config's own rules; each other rule is asked of its module."""
        # a manifest that exists but cannot be read is a data error (exit 2);
        # os.path.exists is False for a name too long for any file to have
        if not os.path.exists(self.manifest):
            raise ValidationError(f"manifest file does not exist: {self.manifest}")
        _ask("fields 'window' and 'dim'", check_window, self.window, self.dim)
        if not self.metrics:
            raise ValidationError(f"config field 'metrics' names no metric (choose from {METRICS})")
        for i, m in enumerate(self.metrics):
            _ask("field 'metrics'", check_metric, m)
            if m in self.metrics[:i]:
                raise ValidationError(f"'metrics' lists {m!r} more than once")
        if self.channel not in CHANNELS:
            raise ValidationError(f"config field 'channel': {self.channel!r} is none of {CHANNELS}")
        _ask("field 'dcf'", DcfParams, self.c_miss, self.c_fa)
        try:
            self.split()
        except ValueError as exc:
            raise ValidationError(f"bad split: {exc}") from exc

    def payload(self) -> dict:
        return {
            "manifest": str(self.manifest),
            "train_indices": list(self.train_indices),
            "test_indices": list(self.test_indices),
            "window": self.window,
            "dim": self.dim,
            "metrics": list(self.metrics),
            "channel": self.channel,
            "dcf": {"c_miss": self.c_miss, "c_fa": self.c_fa},
            "output_dir": str(self.output_dir) if self.output_dir else None,
        }

    def sha256(self) -> str:
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


#: Each config field: the setting it gives and the kind it is read as; a
#: ``[kind]`` field is a list of that kind or a comma-separated string.
_FIELDS = {
    "manifest": ("manifest", Path), "output_dir": ("output_dir", Path),
    "train_indices": ("train_indices", [int]), "test_indices": ("test_indices", [int]),
    "window": ("window", int), "dim": ("dim", int), "channel": ("channel", str),
    "metrics": ("metrics", [str]), "metric": ("metrics", [str]),
    "dcf.c_miss": ("c_miss", float), "dcf.c_fa": ("c_fa", float),
}


def _convert(kind, value):
    """``value`` read as ``kind``, see :data:`_FIELDS`.  A bool is no
    number, a name (``str``, lowercased) or path must be a string, a path
    holds no NUL, and an int has no fractional part."""
    if isinstance(kind, list):
        if isinstance(value, str):
            value = [v for v in value.split(",") if v.strip()]
        elif not isinstance(value, list):
            raise TypeError(f"expected a list or a comma-separated string, got {value!r}")
        return tuple(_convert(kind[0], v) for v in value)
    if (
        isinstance(value, bool)
        or (kind in (str, Path) and not isinstance(value, str))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    if kind is Path and "\0" in value:
        raise ValueError(f"a path cannot hold a NUL character, got {value!r}")
    return value.lower() if kind is str else kind(value)


def _ask(name: str, rule, *args):
    """``rule(*args)``, its failure raised as a ValidationError naming the
    config ``name``."""
    try:
        return rule(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"config {name}: {exc}") from None


def load_config(path: str | Path, overrides: argparse.Namespace) -> ExperimentConfig:
    """Read the JSON config, apply flag overrides, convert, validate.

    The config is a JSON object with these fields; any other field is an
    error:

    - ``manifest`` (required): path of the dataset manifest.
    - ``train_indices``, ``test_indices``: disjoint, non-empty lists of
      1-based sample indices; default ``[1, 2, 3, 4, 5]`` and
      ``[6, 7, 8, 9, 10]``.
    - ``window``: side of the analysis window; default 64.  ``evaluate``
      reads it only for a gallery without ``meta.window``.
    - ``dim``: count of DCT coefficients kept; default 100.  Both are
      bounded by :func:`~facedct.gallery.check_window`.
    - ``metrics``: distinct names from ``METRICS``; default ``["mse"]``.
      ``metric`` is an alias, read when ``metrics`` is absent.
    - ``channel``: one of ``CHANNELS``; default ``"gray"``.
    - ``dcf``: object with the costs ``c_miss`` and ``c_fa``, finite and
      >= 0; each defaults to 1.0.  Any other key is an unknown field
      ``dcf.<key>``.
    - ``output_dir``: results directory of ``evaluate`` and ``fuse-eval``;
      absent, null or ``""`` means ``results`` in the working directory.

    Every field is converted one way.  A list field may also be a
    comma-separated string.  An integer is a whole number or its digits, a
    cost is a number or its digits, and a bool is neither.  A path or a name
    must be a string, and a path holds no NUL; names are case-insensitive,
    and a path is relative to the config's directory.  Each attribute of
    ``overrides`` named like a field and not None replaces that field before
    the conversion, so a flag is read exactly as the field would be.  Every failure, and a config that
    cannot be read or is not JSON, is a ValidationError naming the field or
    the file.
    """
    path = Path(path)
    raw = parse_json(read_bytes(path, ValidationError), f"config {path}", ValidationError)
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")
    dcf = raw.pop("dcf", {})
    if not isinstance(dcf, dict):
        raise ValidationError("config field 'dcf' must be an object with c_miss and c_fa")
    raw.update((f"dcf.{k}", v) for k, v in dcf.items())
    unknown = set(raw) - set(_FIELDS)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    raw.update((k, v) for k, v in vars(overrides).items() if k in _FIELDS and v is not None)
    if "manifest" not in raw:
        raise ValidationError("config is missing the 'manifest' field")
    if "metrics" in raw:
        raw.pop("metric", None)
    if raw.get("output_dir") in (None, ""):
        raw.pop("output_dir", None)

    settings = {}
    for name, value in raw.items():
        setting, kind = _FIELDS[name]
        value = _ask(f"field {name!r}", _convert, kind, value)
        settings[setting] = path.parent / value if kind is Path else value
    cfg = ExperimentConfig(**settings)
    cfg.validate()
    return cfg


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "tool_version": __version__,
        "config_sha256": cfg.sha256(),
        "config": cfg.payload(),
    }


def cmd_enroll(args) -> int:
    """Enroll the training samples; the test indices need not exist."""
    cfg = load_config(args.config, args)
    out = Path(args.out)
    train = select_samples(load_manifest(cfg.manifest), cfg.split().train_indices)
    gallery = extract_subject_features(train, (cfg.channel,), cfg.dim, cfg.window)[cfg.channel]
    meta = {
        "window": cfg.window,
        "tool_version": __version__,
        "config_sha256": cfg.sha256(),
    }
    remove_file(out / "provenance.json")
    save_gallery(gallery, out, meta=meta)
    write_json(out / "provenance.json", _provenance(cfg))
    print(
        f"enrolled {gallery.n_templates} templates for {gallery.n_subjects} subjects "
        f"(dim={gallery.feature_dim}, channel={gallery.channel}) -> {out}"
    )
    return EXIT_OK


def _summary_row(summary) -> dict:
    return {
        "metric": summary.metric,
        "identification_rate": summary.identification.rate,
        "successes": summary.identification.successes,
        "errors": summary.identification.errors,
        "eer": summary.eer,
        "min_dcf": summary.min_dcf,
        # JSON has no infinity; float() reads these strings back
        "min_dcf_threshold": {
            label: t if math.isfinite(t) else str(t)
            for label, t in summary.min_dcf_threshold.items()
        },
    }


def cmd_evaluate(args) -> int:
    """Score the test samples; the training indices need not exist."""
    cfg = load_config(args.config, args)
    gallery, meta = load_gallery(args.gallery)
    window = meta.get("window", cfg.window)
    # a recorded meta.window was checked against the dim when the gallery loaded
    _ask(f"field 'window' for gallery {args.gallery}", check_window, window, gallery.feature_dim)
    out = Path(args.out) if args.out else (cfg.output_dir or Path("results"))

    test = select_samples(load_manifest(cfg.manifest), cfg.split().test_indices)
    features = extract_subject_features(test, (gallery.channel,), gallery.feature_dim, window)
    probes = features[gallery.channel]

    single = len(cfg.metrics) == 1
    rows = []
    remove_file(out / "results.json")
    for tag in ["", *(f"_{m}" for m in METRICS)]:
        for name in (f"scores{tag}.npy", f"scores{tag}.csv", f"scores{tag}.json",
                     f"det{tag}.csv", f"det{tag}.svg"):
            remove_file(out / name)
    for metric in cfg.metrics:
        tensor = build_score_tensor(probes, gallery, metric)
        trials = split_intra_inter(tensor)
        summary = summarize_tensor(tensor, cfg.c_miss, cfg.c_fa, trials=trials)
        rows.append(_summary_row(summary))

        tag = "" if single else f"_{metric}"
        save_scores_csv(tensor, out / f"scores{tag}.csv")
        svg = out / f"det{tag}.svg" if args.svg else None
        _write_det(trials, out / f"det{tag}.csv", svg, summary.eer)
        print(
            f"[{metric}] identification rate {summary.identification.rate:.4f} "
            f"({summary.identification.successes}/{summary.identification.trials}), "
            f"EER {summary.eer:.4f}, min DCF {summary.min_dcf}"
        )

    total = summary.n_genuine + summary.n_impostor
    results = {
        **_provenance(cfg),
        "window": window,
        "dim": gallery.feature_dim,
        "channel": gallery.channel,
        "trial_counts": {
            "genuine": summary.n_genuine,
            "impostor": summary.n_impostor,
            "total": total,
        },
        "min_resolvable_error_rate_simplified": min_resolvable_error_rate(total),
        "rows": rows,
    }
    write_json(out / "results.json", results)
    print(f"results -> {out / 'results.json'}")
    return EXIT_OK


def cmd_identify(args) -> int:
    """Nearest enrolled subject of one probe image.

    Subjects are in lexicographic order and argmin takes the first minimum,
    so a tie goes to the lexicographically first subject.  For a gallery
    that records ``meta.window`` the distance is the probe's ``scores.csv``
    cell, bit for bit; without it, identify uses the default window, and
    evaluate the config's.
    """
    gallery, meta = load_gallery(args.gallery)
    window = meta.get("window", DEFAULT_WINDOW)
    try:
        check_window(window, gallery.feature_dim)
    except ValueError:
        raise GalleryError(
            f"gallery {args.gallery}: dim {gallery.feature_dim} does not fit the default "
            f"window {DEFAULT_WINDOW} (at most {DEFAULT_WINDOW * DEFAULT_WINDOW})"
        ) from None
    metric = args.metric
    (probe,) = featurize_image(args.image, (gallery.channel,), gallery.feature_dim, window)
    dists = subject_distances(probe, gallery, metric)
    best = int(np.argmin(dists))
    print(
        json.dumps(
            {"subject": gallery.subject_ids[best], "distance": float(dists[best]), "metric": metric}
        )
    )
    return EXIT_OK


def _write_det(trials, csv_path, svg_path, eer_value: float | None) -> int:
    """Write the vertices of the DET curve of ``trials`` to ``csv_path`` and,
    when ``svg_path`` is given, its plot with ``eer_value`` marked; returns
    the number of vertices."""
    points = det_vertices(trials)
    save_det_csv(points, csv_path)
    if svg_path:
        write_atomic(svg_path, render_det_svg(points, eer_value).encode())
    return len(points)


def cmd_det_export(args) -> int:
    trials = split_intra_inter(load_scores_csv(args.scores))
    n_points = _write_det(trials, args.out, args.svg, eer_of(trials) if args.svg else None)
    print(f"det curve ({n_points} points) -> {args.out}")
    return EXIT_OK


def cmd_fuse_eval(args) -> int:
    cfg = load_config(args.config, args)
    # fusion_results.csv has no metric column, so it holds one metric's rows
    if len(cfg.metrics) != 1:
        raise ValidationError(
            f"fuse-eval scores one metric, got {len(cfg.metrics)}: {', '.join(cfg.metrics)}"
        )
    specs = [parse_fusion_spec(s) for s in args.fusion]
    out = Path(args.out) if args.out else (cfg.output_dir or Path("results"))

    channels = {c for spec in specs for c in spec.channels}
    if args.include_y:
        channels.add("y")
    # rows in CHANNELS order, but gray after the colour channels
    channels = tuple(sorted(channels, key=lambda c: (c == "gray", CHANNELS.index(c))))
    runs = run_channel_pipeline(
        load_manifest(cfg.manifest), cfg.split(), channels, cfg.metrics[0],
        cfg.dim, cfg.window, cfg.c_miss, cfg.c_fa,
    )
    table = [(channel.upper(), run.summary) for channel, run in runs.items()]
    tensors = {c: r.tensor for c, r in runs.items()}
    for spec in specs:
        fused = apply_fusion(spec, tensors)
        table.append((f"score-fusion:{spec.label()}", summarize_tensor(fused, cfg.c_miss, cfg.c_fa)))

    csv_path = out / "fusion_results.csv"
    # no label holds a comma, quote or newline, so csv.writer would quote none
    lines = ["input_signal,identification_rate,eer,min_dcf_ptrue_0.5,min_dcf_ptrue_empirical"]
    for label, summary in table:
        lines.append(
            f"{label},{summary.identification.rate:.6f},{summary.eer:.6f},"
            f"{summary.min_dcf['0.5']:.6f},{summary.min_dcf['empirical']:.6f}"
        )
    write_atomic(csv_path, ("\n".join(lines) + "\n").encode())
    for label, summary in table:
        print(
            f"{label}: rate {summary.identification.rate:.4f}, eer {summary.eer:.4f}, "
            f"min DCF@0.5 {summary.min_dcf['0.5']:.4f}"
        )
    print(f"fusion table -> {csv_path}")
    return EXIT_OK


def cmd_sigsize(args) -> int:
    if (args.p is None) == (args.n is None):
        raise _UsageError("sigsize: provide exactly one of --p or --n")
    if not args.iid:
        print(
            "note: the sizing bound assumes i.i.d. errors; correlated samples "
            "need a larger N (pass --iid to silence this)",
            file=sys.stderr,
        )
    try:
        if args.p is not None:
            params = SignificanceParams(args.alpha, args.beta, args.p)
            payload = {
                "alpha": args.alpha,
                "beta": args.beta,
                "p": args.p,
                "required_n_exact": required_n(params),
                "required_n_simplified": simplified_n(args.p),
            }
            print(
                f"error rate {args.p:g} needs N >= {payload['required_n_exact']} "
                f"(exact rule) / {payload['required_n_simplified']} (simplified 100/P rule)"
            )
        else:
            payload = {
                "alpha": args.alpha,
                "beta": args.beta,
                "n": args.n,
                "min_error_rate_exact": min_resolvable_error_rate(
                    args.n, "exact", args.alpha, args.beta
                ),
                "min_error_rate_simplified": min_resolvable_error_rate(args.n, "simplified"),
            }
            print(
                f"N = {args.n} resolves error rates down to "
                f"{payload['min_error_rate_simplified']:.6g} (simplified) / "
                f"{payload['min_error_rate_exact']:.6g} (exact)"
            )
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_synth_data(args) -> int:
    try:
        spec = SynthSpec(
            subjects=args.subjects,
            samples=args.samples,
            noise=args.noise,
            seed=args.seed,
            width=args.width,
            height=args.height,
            placement=args.placement,
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    manifest_path = generate_dataset(spec, args.out)
    print(f"synthetic dataset ({spec.subjects} subjects x {spec.samples} samples) -> {manifest_path}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="facedct", description=__doc__)
    parser.add_argument("--version", action="version", version=f"facedct {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each dest is the config field the flag replaces; load_config converts it
    config_flags = {
        "--window": dict(help="canonical analysis window side"),
        "--dim": dict(help="retained DCT coefficients per face"),
        "--channel": dict(help=f"input signal, one of {', '.join(CHANNELS)}"),
        "--metric": dict(dest="metrics", action="append", metavar="METRIC",
                         help=f"distance metric, one of {', '.join(METRICS)} (repeatable)"),
        "--train-indices": dict(dest="train_indices", help="comma-separated 1-based sample indices"),
        "--test-indices": dict(dest="test_indices", help="comma-separated 1-based sample indices"),
    }

    def add_config_flags(p, *flags):
        p.add_argument("--config", required=True, help="experiment config JSON")
        for flag in flags:
            p.add_argument(flag, **config_flags[flag])

    p = sub.add_parser("enroll", help="build and persist a gallery from the training split")
    add_config_flags(p, "--window", "--dim", "--channel", "--train-indices")
    p.add_argument("--out", required=True, help="gallery output directory")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("evaluate", help="score the test split against a gallery")
    add_config_flags(p, "--metric", "--test-indices")
    p.add_argument("--gallery", required=True, help="gallery directory from 'enroll'")
    p.add_argument("--out", help="results directory (default: config output_dir)")
    p.add_argument("--svg", action="store_true", help="also render det.svg")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("identify", help="identify a single probe image")
    p.add_argument("--gallery", required=True)
    p.add_argument("--image", required=True, help="probe PGM/PPM file")
    p.add_argument("--metric", type=str.lower, choices=METRICS, default="mse")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("det-export", help="DET curve vertices CSV from a scores CSV")
    p.add_argument(
        "--scores", required=True,
        help="scores.csv written by 'evaluate'; the scores.npy beside it is read instead "
        "of its rows when scores.json pins both by sha256",
    )
    p.add_argument("--out", required=True, help="DET vertices CSV output path")
    p.add_argument("--svg", help="optional det SVG output path")
    p.set_defaults(func=cmd_det_export)

    p = sub.add_parser("fuse-eval", help="per-channel runs plus score-level fusion")
    add_config_flags(p, "--window", "--dim", "--metric", "--train-indices", "--test-indices")
    p.add_argument(
        "--fusion",
        action="append",
        required=True,
        help="fusion spec, e.g. 'sum:R,G,B' or 'w:0.3R+0.59G+0.11B' (repeatable)",
    )
    p.add_argument("--include-y", action="store_true", help="add a feature-level luminance row")
    p.add_argument("--out", help="results directory")
    p.set_defaults(func=cmd_fuse_eval)

    p = sub.add_parser("sigsize", help="test-set size for statistical significance")
    p.add_argument("--alpha", type=float, default=0.05, help="risk of understating the error rate")
    p.add_argument("--beta", type=float, default=0.2, help="relative error margin")
    p.add_argument("--p", type=float, help="expected error rate (solve for N)")
    p.add_argument("--n", type=int, help="trial count (solve for smallest resolvable rate)")
    p.add_argument("--iid", action="store_true", help="assert samples are independent")
    p.set_defaults(func=cmd_sigsize)

    p = sub.add_parser("synth-data", help="generate a deterministic synthetic dataset")
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma in [0,1] units")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--placement", choices=PLACEMENTS, default="gray", help="where the identity signal lives")
    p.add_argument("--out", required=True, help="dataset directory")
    p.set_defaults(func=cmd_synth_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:  # a write to an output path the caller gave
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
