"""Command-line front end: register, phantom, evaluate, selftest.

Every flag can also be given in a ``--config`` file as a ``key=value``
line (the key is the flag name without the leading dashes); values given
on the command line override the file.  Exit codes: 0 success, 1 usage or
configuration error, 2 file I/O error, 3 numerical failure.
"""

import argparse
import os
import sys
import tempfile

import numpy as np

from . import io as vio
from .correlation import CostTensor6D, dissimilarity_tensor, flop_estimate
from .features import extract_ssc
from .geometry import (ControlGrid, DisplacementField, DisplacementSpace,
                       Volume3D, index_to_normalized, normalized_to_index)
from .metrics import RegistrationReport, dice, jacobian_stats
from .parallel import resolve_workers
from .phantom import PhantomSpec, generate
from .pipeline import register_pair
from .refine import RefineConfig, refine
from .regularizer import (RegularizerParams, exact_lower_envelope,
                          min_convolution)
from .transform import (RegistrationConfig, diffusion_penalty,
                        expected_displacement, nonlocal_label_loss,
                        softmax_probabilities, upsample_field, warp)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(1) from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_triple(text: str):
    parts = [int(p) for p in str(text).split(",")]
    if len(parts) == 1:
        return (parts[0],) * 3
    if len(parts) != 3:
        raise ValueError(f"expected one value or three comma-separated "
                         f"values, got {text!r}")
    return tuple(parts)


# per-subcommand config-file keys: name -> conversion
_COMMON_KEYS = {"seed": int, "threads": int}
_REGISTER_KEYS = {
    "fixed": str, "moving": str, "fixed-labels": str, "moving-labels": str,
    "out-dir": str, "q": float, "steps": _parse_triple,
    "grid": _parse_triple, "lambda": float, "no-mean-field": _parse_bool,
    "no-nonlocal-loss": _parse_bool, "refine": _parse_bool, "report": str,
    **_COMMON_KEYS,
}
_PHANTOM_KEYS = {
    "out-dir": str, "dims": _parse_triple, "deformation": str,
    "magnitude": float, "noise-sigma": float, "organs": int,
    **_COMMON_KEYS,
}
_EVALUATE_KEYS = {
    "fixed-labels": str, "moving-labels": str, "field": str, "report": str,
}


def _load_config(path: str, allowed: dict) -> dict:
    """Parse a key=value config file against the subcommand's key table."""
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in allowed:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = allowed[key](value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for "
                                 f"{key!r}: {exc}") from None
    return values


def _merge(args: argparse.Namespace, allowed: dict) -> dict:
    """Flags override config-file values; both default to None."""
    merged = {}
    if getattr(args, "config", None) is not None:
        merged.update(_load_config(args.config, allowed))
    for key in allowed:
        dest = "lambda_" if key == "lambda" else key.replace("-", "_")
        flag_value = getattr(args, dest, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _pick(merged: dict, key: str, default):
    value = merged.get(key)
    return default if value is None else value


def _build_parser() -> _Parser:
    parser = _Parser(prog="densereg",
                     description="Deformable 3D registration by dense "
                                 "displacement sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="register a moving volume onto a "
                                          "fixed volume")
    reg.add_argument("--fixed", help="fixed (reference) volume path")
    reg.add_argument("--moving", help="moving volume path")
    reg.add_argument("--fixed-labels", help="fixed label volume path")
    reg.add_argument("--moving-labels", help="moving label volume path")
    reg.add_argument("--out-dir", help="directory for output artifacts")
    reg.add_argument("--config", help="key=value config file")
    reg.add_argument("--q", type=float, help="displacement capture range "
                                             "in normalized units")
    reg.add_argument("--steps", type=_parse_triple,
                     help="quantization steps per axis (one int or three)")
    reg.add_argument("--grid", type=_parse_triple,
                     help="control-grid points per axis (one int or three)")
    reg.add_argument("--lambda", dest="lambda_", type=float,
                     help="diffusion regularization weight of the "
                          "--refine descent (read only with --refine)")
    reg.add_argument("--no-mean-field", action="store_true", default=None,
                     help="skip cost smoothing (ablation wiring)")
    reg.add_argument("--no-nonlocal-loss", action="store_true", default=None,
                     help="report plain warped-label MSE instead of the "
                          "probability-weighted loss")
    reg.add_argument("--refine", action=argparse.BooleanOptionalAction,
                     default=None, help="instance-wise gradient refinement "
                                        "of the estimate (default off)")
    reg.add_argument("--seed", type=int, help="run seed recorded in the "
                                              "report")
    reg.add_argument("--threads", type=int, help="worker threads for the "
                     "SSC features, the 6D tensor stages, the warps and "
                     "the Jacobian statistics (default: the usable cores); "
                     "outputs are identical for any count")
    reg.add_argument("--report", help="also write the report as CSV here")

    pha = sub.add_parser("phantom", help="generate a synthetic labeled "
                                         "volume pair")
    pha.add_argument("--out-dir", help="directory for the phantom files")
    pha.add_argument("--config", help="key=value config file")
    pha.add_argument("--seed", type=int, help="generation seed")
    pha.add_argument("--dims", type=_parse_triple,
                     help="volume dims (one int or three)")
    pha.add_argument("--deformation", choices=("translation", "smooth-random"),
                     help="ground-truth deformation family")
    pha.add_argument("--magnitude", type=float,
                     help="maximum displacement component, normalized units")
    pha.add_argument("--noise-sigma", type=float,
                     help="additive noise standard deviation")
    pha.add_argument("--organs", type=int, help="number of label structures")
    pha.add_argument("--threads", type=int, help=argparse.SUPPRESS)

    ev = sub.add_parser("evaluate", help="score label overlap, optionally "
                                         "after warping by a field")
    ev.add_argument("--fixed-labels", help="reference label volume path")
    ev.add_argument("--moving-labels", help="label volume path to score")
    ev.add_argument("--field", help="displacement field applied to the "
                                    "moving labels before scoring")
    ev.add_argument("--report", help="also write the scores as CSV here")
    ev.add_argument("--config", help="key=value config file")

    sub.add_parser("selftest", help="run the built-in sanity suite")
    return parser


def _require(merged: dict, keys, command: str):
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        raise SystemExit(_fail(f"{command}: missing required {flags}", 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_register(args) -> int:
    merged = _merge(args, _REGISTER_KEYS)
    _require(merged, ("fixed", "moving", "out-dir"), "register")
    threads = merged.get("threads")
    if threads is not None and threads < 1:
        raise SystemExit(_fail(f"register: --threads must be >= 1, got "
                               f"{threads}", 1))
    workers = resolve_workers(threads)

    fixed = vio.read_volume(merged["fixed"])
    moving = vio.read_volume(merged["moving"])
    fixed_labels = moving_labels = None
    if merged.get("fixed-labels") is not None:
        fixed_labels = vio.read_volume(merged["fixed-labels"], as_labels=True)
    if merged.get("moving-labels") is not None:
        moving_labels = vio.read_volume(merged["moving-labels"],
                                        as_labels=True)

    q = _pick(merged, "q", 0.4)
    steps = _pick(merged, "steps", (15, 15, 15))
    cfg_kwargs = {"space": DisplacementSpace(q, steps),
                  "grid_counts": _pick(merged, "grid", (32, 32, 32))}
    if merged.get("no-mean-field"):
        cfg_kwargs["reg_params"] = RegularizerParams(iterations=0)
    cfg = RegistrationConfig(**cfg_kwargs)

    # Built even without --refine, so a bad --lambda is still rejected.
    refinement = RefineConfig(diffusion_weight=_pick(merged, "lambda", 1.5))
    if not merged.get("refine"):
        refinement = None

    result = register_pair(fixed, moving, cfg,
                           fixed_labels=fixed_labels,
                           moving_labels=moving_labels,
                           refinement=refinement,
                           use_nonlocal_loss=not merged.get("no-nonlocal-loss"),
                           threads=workers)

    report = result.report
    if merged.get("seed") is not None:
        report.notes["seed"] = str(merged["seed"])

    out_dir = merged["out-dir"]
    os.makedirs(out_dir, exist_ok=True)
    vio.write_field(result.field, os.path.join(out_dir, "field.hdr"))
    vio.write_volume(result.warped, os.path.join(out_dir, "warped.hdr"))
    if result.warped_labels is not None:
        vio.write_volume(result.warped_labels,
                         os.path.join(out_dir, "warped_labels.hdr"))
    text = report.to_text()
    with open(os.path.join(out_dir, "report.txt"), "w",
              encoding="ascii") as fh:
        fh.write(text)
    with open(os.path.join(out_dir, "timings.txt"), "w",
              encoding="ascii") as fh:
        fh.write(report.timings_text())
        fh.write(f"threads={workers}\n")
    if merged.get("report") is not None:
        with open(merged["report"], "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    sys.stdout.write(text)
    return 0


def _cmd_phantom(args) -> int:
    merged = _merge(args, _PHANTOM_KEYS)
    _require(merged, ("out-dir",), "phantom")
    spec = PhantomSpec(seed=_pick(merged, "seed", 0),
                       dims=_pick(merged, "dims", (64, 64, 64)),
                       organs=_pick(merged, "organs", 5),
                       deformation=_pick(merged, "deformation", "translation"),
                       magnitude=_pick(merged, "magnitude", 0.2),
                       noise_sigma=_pick(merged, "noise-sigma", 0.02))
    pair = generate(spec)
    out_dir = merged["out-dir"]
    os.makedirs(out_dir, exist_ok=True)
    vio.write_volume(pair.fixed, os.path.join(out_dir, "fixed.hdr"))
    vio.write_volume(pair.moving, os.path.join(out_dir, "moving.hdr"))
    vio.write_volume(pair.fixed_labels,
                     os.path.join(out_dir, "fixed_labels.hdr"))
    vio.write_volume(pair.moving_labels,
                     os.path.join(out_dir, "moving_labels.hdr"))
    vio.write_field(pair.truth, os.path.join(out_dir, "truth_field.hdr"))
    print(f"phantom seed={spec.seed} dims={'x'.join(map(str, spec.dims))} "
          f"deformation={spec.deformation} magnitude={spec.magnitude:g} "
          f"written to {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    merged = _merge(args, _EVALUATE_KEYS)
    _require(merged, ("fixed-labels", "moving-labels"), "evaluate")
    fixed_labels = vio.read_volume(merged["fixed-labels"], as_labels=True)
    moving_labels = vio.read_volume(merged["moving-labels"], as_labels=True)
    # Without a field the Jacobian statistics are not computed and read nan.
    report = RegistrationReport()
    if merged.get("field") is not None:
        field = vio.read_field(merged["field"])
        moving_labels = warp(moving_labels, field)
        report.std_jac, report.folding_fraction = jacobian_stats(field)
        report.notes["field"] = merged["field"]
    report.per_label_dice = dice(fixed_labels, moving_labels)
    if merged.get("report") is not None:
        with open(merged["report"], "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    sys.stdout.write(report.to_text())
    return 0


def _selftest_checks():
    """Yield (name, callable) pairs; each callable asserts one basic fact."""
    space9 = DisplacementSpace(0.4, 9)
    grid4 = ControlGrid((4, 4, 4))

    def softmax_uniform():
        space15 = DisplacementSpace(0.4, 15)
        cost = CostTensor6D(np.zeros((2, 2, 2) + space15.steps),
                            ControlGrid((2, 2, 2)), space15)
        prob = softmax_probabilities(cost, 1.0).values
        assert np.allclose(prob, 1.0 / 3375.0), "uniform cost not uniform"
        sums = prob.sum(axis=(3, 4, 5))
        assert np.all(np.abs(sums - 1.0) < 1e-5), "sums off"

    def softmax_degenerate():
        values = np.full((1, 1, 1) + space9.steps, 1e6)
        values[0, 0, 0, 4, 4, 4] = 0.0
        prob = softmax_probabilities(CostTensor6D(values, ControlGrid((1, 1, 1)),
                                                  space9), 1.0).values
        assert abs(prob[0, 0, 0, 4, 4, 4] - 1.0) < 1e-12, "not concentrated"

    def softmax_seeded_sums():
        for i in range(5):
            rng = np.random.default_rng(7000 + i)
            values = rng.uniform(0.0, 3.0, size=(8, 8, 8) + space9.steps)
            prob = softmax_probabilities(CostTensor6D(values,
                                                      ControlGrid((8, 8, 8)),
                                                      space9), 13.0).values
            sums = prob.sum(axis=(3, 4, 5))
            assert np.all(np.abs(sums - 1.0) < 1e-5), f"sums off, seed {i}"

    def expectation_symmetry():
        values = np.ones((1, 1, 1) + space9.steps)
        prob = softmax_probabilities(CostTensor6D(values, ControlGrid((1, 1, 1)),
                                                  space9), 2.0)
        phi = expected_displacement(prob).vectors
        assert np.all(np.abs(phi) < 1e-12), "uniform expectation not zero"

    def expectation_delta():
        values = np.full((1, 1, 1) + space9.steps, 1e9)
        values[0, 0, 0, 6, 2, 4] = 0.0
        prob = softmax_probabilities(CostTensor6D(values, ControlGrid((1, 1, 1)),
                                                  space9), 1.0)
        phi = expected_displacement(prob).vectors[0, 0, 0]
        target = (space9.axis_offsets(0)[6], space9.axis_offsets(1)[2],
                  space9.axis_offsets(2)[4])
        assert np.allclose(phi, target, atol=1e-9), "delta expectation off"

    def upsample_constant():
        ctrl = DisplacementField(np.full((3, 3, 3, 3), 0.125))
        full = upsample_field(ctrl, (10, 11, 12)).vectors
        assert np.allclose(full, 0.125), "constant upsample drifted"

    def warp_zero_field():
        rng = np.random.default_rng(11)
        labels = Volume3D((rng.uniform(0, 4, (9, 9, 9))).astype(np.int16),
                          is_label=True)
        zero = DisplacementField(np.zeros((9, 9, 9, 3)))
        out = warp(labels, zero)
        assert np.array_equal(out.data, labels.data), "zero warp not exact"

    def diffusion_basics():
        const = DisplacementField(np.full((4, 4, 4, 3), 0.2))
        assert diffusion_penalty(const, 1.5) == 0.0, "constant has gradient"
        rng = np.random.default_rng(3)
        field = DisplacementField(rng.normal(0, 0.05, (4, 4, 4, 3)))
        p1 = diffusion_penalty(field, 1.0)
        p2 = diffusion_penalty(field, 2.0)
        assert abs(p2 - 2.0 * p1) < 1e-12, "penalty not linear in weight"

    def label_loss_aligned():
        rng = np.random.default_rng(5)
        labels = Volume3D((rng.uniform(0, 3, (12, 12, 12))).astype(np.int16),
                          is_label=True)
        values = np.full((2, 2, 2) + space9.steps, 1e9)
        values[..., 4, 4, 4] = 0.0
        prob = softmax_probabilities(CostTensor6D(values, ControlGrid((2, 2, 2)),
                                                  space9), 1.0)
        loss = nonlocal_label_loss(prob, labels, labels, num_classes=3)
        assert loss < 1e-10, f"aligned loss {loss}"

    def refine_zero_steps():
        rng = np.random.default_rng(9)
        values = rng.uniform(0, 1, (2, 2, 2) + space9.steps)
        cost = CostTensor6D(values, ControlGrid((2, 2, 2)), space9)
        init = DisplacementField(rng.uniform(-0.3, 0.3, (2, 2, 2, 3)))
        out = refine(cost, init, RefineConfig(steps=0))
        assert np.array_equal(out.vectors, init.vectors), "steps=0 changed init"

    def envelope_basics():
        env = exact_lower_envelope(np.full(9, 2.5), 1.0)
        assert np.allclose(env, 2.5), "constant envelope changed"
        rng = np.random.default_rng(21)
        row = rng.uniform(0, 5, 15)
        env = exact_lower_envelope(row, 0.5)
        assert np.all(env <= row + 1e-12), "envelope above input"

    def minconv_constant():
        values = np.full((2, 2, 2) + space9.steps, 1.25)
        out = min_convolution(values)
        assert np.allclose(out, 1.25), "constant min-convolution moved"

    def correlation_self_match():
        rng = np.random.default_rng(17)
        vol = Volume3D(rng.uniform(0, 1, (12, 12, 12)))
        feats = extract_ssc(vol)
        space3 = DisplacementSpace(0.2, 3)
        cost = dissimilarity_tensor(feats, feats, ControlGrid((3, 3, 3)),
                                    space3).values
        center = cost[..., 1, 1, 1]
        assert np.all(np.abs(center) < 1e-10), "self dissimilarity not zero"
        assert np.all(cost >= -1e-12), "negative dissimilarity"

    def dice_extremes():
        ones = Volume3D(np.ones((6, 6, 6), dtype=np.int16), is_label=True)
        assert dice(ones, ones)[1] == 1.0, "identical dice"
        a = np.zeros((6, 6, 6), dtype=np.int16)
        b = np.zeros((6, 6, 6), dtype=np.int16)
        a[:3] = 1
        b[3:] = 1
        d = dice(Volume3D(a, is_label=True), Volume3D(b, is_label=True))[1]
        assert d == 0.0, "disjoint dice"

    def jacobian_zero_field():
        zero = DisplacementField(np.zeros((5, 5, 5, 3)))
        std, folding = jacobian_stats(zero)
        assert std == 0.0 and folding == 0.0, "zero field stats off"

    def io_round_trip():
        rng = np.random.default_rng(23)
        vol = Volume3D(rng.uniform(0, 1, (5, 6, 7)).astype(np.float32)
                       .astype(np.float64), spacing=(1.0, 1.5, 2.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.hdr")
            vio.write_volume(vol, path)
            back = vio.read_volume(path)
            assert np.array_equal(back.data, vol.data), "raw round trip"
            assert back.spacing == vol.spacing, "spacing lost"
            nii = os.path.join(tmp, "v.nii")
            vio.write_volume(vol, nii)
            back = vio.read_volume(nii)
            assert np.array_equal(back.data, vol.data), "nifti round trip"
            raw_payload = os.path.join(tmp, "v.raw")
            with open(raw_payload, "r+b") as fh:
                fh.truncate(10)
            try:
                vio.read_volume(path)
            except vio.TruncatedPayloadError:
                pass
            else:
                raise AssertionError("truncated payload accepted")

    def phantom_deterministic():
        a = generate(PhantomSpec(seed=4, dims=(12, 12, 12)))
        b = generate(PhantomSpec(seed=4, dims=(12, 12, 12)))
        assert np.array_equal(a.fixed.data, b.fixed.data), "fixed differs"
        assert np.array_equal(a.moving.data, b.moving.data), "moving differs"
        assert np.array_equal(a.truth.vectors, b.truth.vectors), \
            "truth differs"

    def coordinate_round_trip():
        for n in (7, 16):
            idx = np.arange(n, dtype=np.float64)
            back = normalized_to_index(index_to_normalized(idx, n), n)
            assert np.allclose(back, idx, atol=1e-12), "coords round trip"

    def flop_arithmetic():
        grid16 = ControlGrid((16, 16, 16))
        space15 = DisplacementSpace(0.4, 15)
        estimate = flop_estimate(grid16, space15, 16)
        assert estimate == 3 * 4096 * 3375 * 16, f"flop estimate {estimate}"
        assert estimate < 2e9, "flop budget exceeded"

    return [
        ("softmax uniform row", softmax_uniform),
        ("softmax degenerate row", softmax_degenerate),
        ("softmax seeded sums", softmax_seeded_sums),
        ("expectation symmetry", expectation_symmetry),
        ("expectation delta", expectation_delta),
        ("upsample constant field", upsample_constant),
        ("warp zero field exact", warp_zero_field),
        ("diffusion penalty basics", diffusion_basics),
        ("aligned label loss zero", label_loss_aligned),
        ("refine zero steps", refine_zero_steps),
        ("lower envelope basics", envelope_basics),
        ("min-convolution constant", minconv_constant),
        ("correlation self match", correlation_self_match),
        ("dice extremes", dice_extremes),
        ("jacobian zero field", jacobian_zero_field),
        ("volume io round trip", io_round_trip),
        ("phantom determinism", phantom_deterministic),
        ("coordinate round trip", coordinate_round_trip),
        ("flop estimate arithmetic", flop_arithmetic),
    ]


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            check()
        except Exception as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


_COMMANDS = {
    "register": _cmd_register,
    "phantom": _cmd_phantom,
    "evaluate": _cmd_evaluate,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    except (vio.VolumeIOError, OSError) as exc:
        return _fail(str(exc), 2)
    except ArithmeticError as exc:
        return _fail(f"numerical failure: {exc}", 3)
    except (ValueError, RuntimeError) as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
