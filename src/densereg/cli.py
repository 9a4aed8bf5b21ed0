"""Command-line front end: register, phantom, evaluate, selftest.

A flag's ``dest`` names the setting it fills (``--grid`` fills
``RegistrationConfig.grid_counts``, ``--lambda``
``RefineConfig.diffusion_weight``), and a setting the user leaves unset
keeps its dataclass default.  The config-file keys of a subcommand are
exactly its long flags without the dashes, ``--config`` and ``--help``
aside: a ``--config`` file holds ``key=value`` lines, each value is
converted as its flag's would be (flags that take no value read a
boolean), and values given on the command line override the file.  Exit
codes: 0 success, 1 usage or configuration error, 2 file I/O error, 3
numerical failure.
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
from .refine import RefineConfig, field_energy, refine_trace
from .regularizer import (RegularizerParams, exact_lower_envelope,
                          min_convolution)
from .transform import (RegistrationConfig, expected_displacement,
                        nonlocal_label_loss, softmax_probabilities,
                        upsample_field, warp)

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_triple(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(
            f"expected one int or three comma-separated ints, got {text!r}")
    return parts * 3 if len(parts) == 1 else parts


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {text!r}")
    return threads


def _load_config(path: str, command: _Parser) -> dict:
    """Values by ``dest`` from a key=value file whose keys are the long
    flags of ``command`` without the dashes."""
    actions = {a.option_strings[0][2:]: a for a in command._actions
               if a.option_strings and a.dest not in ("config", "help")}
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {line!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            action = actions.get(key)
            if action is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            convert = _parse_bool if action.nargs == 0 else action.type or str
            try:
                value = convert(text.strip())
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"expected one of "
                                     f"{', '.join(action.choices)}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad value for "
                                 f"{key!r}: {exc}") from None
            values[action.dest] = value
    return values


def _given(opts: dict, *names) -> dict:
    """The settings among ``names`` that the user gave; the others keep
    the defaults of the dataclass they are passed to."""
    return {n: opts[n] for n in names if opts[n] is not None}


def _build_parser():
    """The top-level parser and its subcommand parsers by name."""
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
    reg.add_argument("--grid", dest="grid_counts", type=_parse_triple,
                     help="control-grid points per axis (one int or three)")
    reg.add_argument("--lambda", dest="diffusion_weight", type=float,
                     help="diffusion regularization weight of the "
                          "--refine descent (read only with --refine)")
    reg.add_argument("--no-mean-field", action="store_true", default=None,
                     help="skip cost smoothing (ablation wiring)")
    reg.add_argument("--refine", action=argparse.BooleanOptionalAction,
                     help="instance-wise gradient refinement of the "
                          "estimate (default off)")
    reg.add_argument("--seed", type=int, help="run seed recorded in the "
                                              "report")
    reg.add_argument("--threads", type=_parse_threads,
                     help="worker threads for the SSC features, the 6D "
                          "tensor stages, the warps and the Jacobian "
                          "statistics (default: the usable cores); outputs "
                          "are identical for any count")
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

    ev = sub.add_parser("evaluate", help="score label overlap, optionally "
                                         "after warping by a field")
    ev.add_argument("--fixed-labels", help="reference label volume path")
    ev.add_argument("--moving-labels", help="label volume path to score")
    ev.add_argument("--field", help="displacement field applied to the "
                                    "moving labels before scoring")
    ev.add_argument("--threads", type=_parse_threads,
                    help="worker threads for the warp and the Jacobian "
                         "statistics (default: the usable cores); outputs "
                         "are identical for any count")
    ev.add_argument("--report", help="also write the scores as CSV here")
    ev.add_argument("--config", help="key=value config file")

    sub.add_parser("selftest", help="run the built-in sanity suite")
    return parser, sub.choices


def _require(opts: dict, dests, command: str):
    missing = [d for d in dests if opts[d] is None]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise SystemExit(_fail(f"{command}: missing required {flags}", 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_register(opts: dict) -> int:
    _require(opts, ("fixed", "moving", "out_dir"), "register")
    workers = resolve_workers(opts["threads"])

    fixed = vio.read_volume(opts["fixed"])
    moving = vio.read_volume(opts["moving"])
    fixed_labels = moving_labels = None
    if opts["fixed_labels"] is not None:
        fixed_labels = vio.read_volume(opts["fixed_labels"], as_labels=True)
    if opts["moving_labels"] is not None:
        moving_labels = vio.read_volume(opts["moving_labels"], as_labels=True)

    cfg_kwargs = _given(opts, "grid_counts")
    if opts["no_mean_field"]:
        cfg_kwargs["reg_params"] = RegularizerParams(iterations=0)
    cfg = RegistrationConfig(space=DisplacementSpace(**_given(opts, "q",
                                                              "steps")),
                             **cfg_kwargs)

    # Built even without --refine, so a bad --lambda is still rejected.
    refinement = RefineConfig(**_given(opts, "diffusion_weight"))
    if not opts["refine"]:
        refinement = None

    result = register_pair(fixed, moving, cfg,
                           fixed_labels=fixed_labels,
                           moving_labels=moving_labels,
                           refinement=refinement,
                           threads=workers)

    report = result.report
    if opts["seed"] is not None:
        report.notes["seed"] = str(opts["seed"])

    out_dir = opts["out_dir"]
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
    if opts["report"] is not None:
        with open(opts["report"], "w", encoding="ascii") as fh:
            fh.write(report.to_csv())
    sys.stdout.write(text)
    return 0


def _cmd_phantom(opts: dict) -> int:
    _require(opts, ("out_dir",), "phantom")
    spec = PhantomSpec(**_given(opts, "seed", "dims", "organs", "deformation",
                                "magnitude", "noise_sigma"))
    pair = generate(spec)
    out_dir = opts["out_dir"]
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


def _cmd_evaluate(opts: dict) -> int:
    _require(opts, ("fixed_labels", "moving_labels"), "evaluate")
    fixed_labels = vio.read_volume(opts["fixed_labels"], as_labels=True)
    moving_labels = vio.read_volume(opts["moving_labels"], as_labels=True)
    # Without a field the Jacobian statistics are not computed and read nan.
    report = RegistrationReport()
    if opts["field"] is not None:
        field = vio.read_field(opts["field"])
        moving_labels = warp(moving_labels, field, workers=opts["threads"])
        report.std_jac, report.folding_fraction = jacobian_stats(
            field, workers=opts["threads"])
        report.notes["field"] = opts["field"]
    report.per_label_dice = dice(fixed_labels, moving_labels)
    if opts["report"] is not None:
        with open(opts["report"], "w", encoding="ascii") as fh:
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
        # On an all-zero cost the data term is exactly 0.
        zero = CostTensor6D(np.zeros((4, 4, 4) + space9.steps), grid4, space9)
        const = np.full((4, 4, 4, 3), 0.2)
        assert field_energy(zero, const, 1.5) == 0.0, "constant has gradient"
        rng = np.random.default_rng(3)
        field = rng.normal(0, 0.05, (4, 4, 4, 3))
        p1 = field_energy(zero, field, 1.0)
        p2 = field_energy(zero, field, 2.0)
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
        out, _ = refine_trace(cost, init, RefineConfig(steps=0))
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


def _cmd_selftest(_opts) -> int:
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
    parser, commands = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        opts = vars(args)
        command = opts.pop("command")
        if unknown:
            commands[command].error(f"unrecognized arguments: "
                                    f"{' '.join(unknown)}")
        config = opts.pop("config", None)
        if config is not None:
            for dest, value in _load_config(config,
                                            commands[command]).items():
                if opts[dest] is None:
                    opts[dest] = value
        return _COMMANDS[command](opts)
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
