"""Command-line front end: register, phantom, evaluate, selftest.

A flag's ``dest`` names the setting it fills (``--grid`` fills
``RegistrationConfig.grid_counts``, ``--lambda``
``RefineConfig.diffusion_weight``), and a setting the user leaves unset
keeps its dataclass default.  The config-file keys of a subcommand are
exactly its long flags without the dashes, ``--config`` and ``--help``
aside: a ``--config`` file holds ``key=value`` lines, each value is
converted as its flag's would be (flags that take no value read a
boolean), and values given on the command line override the file.  Exit
codes: 0 success, 1 usage or configuration error or out of memory, 2
file I/O error, 3 numerical failure.

``selftest`` checks the installed program end to end: it generates a
small phantom, registers it twice through ``register`` and exits 0 only
if the two runs wrote the same bytes, the Dice rose above the
unregistered Dice and no voxel folded.
"""

import argparse
import os
import sys
import tempfile
from contextlib import contextmanager, redirect_stdout
from io import StringIO
from pathlib import Path

from . import io as vio
from .geometry import DisplacementSpace
from .metrics import RegistrationReport, dice, jacobian_stats, mean_dice
from .parallel import resolve_workers
from .phantom import PhantomSpec, generate
from .pipeline import register_pair
from .refine import RefineConfig
from .transform import RegistrationConfig, warp

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


def _load_config(path: str, command: _Parser) -> dict:
    """Values by ``dest`` from a key=value file whose keys are the long
    flags of ``command`` without the dashes."""
    actions = {a.option_strings[0][2:]: a for a in command._actions
               if a.option_strings and a.dest not in ("config", "help")}
    values = {}
    for lineno, key, text in vio._key_values(path, ValueError):
        action = actions.get(key)
        if action is None:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        convert = _parse_bool if action.nargs == 0 else action.type or str
        try:
            value = convert(text)
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
    reg.add_argument("--refine", action=argparse.BooleanOptionalAction,
                     help="instance-wise gradient refinement of the "
                          "estimate (default off)")
    reg.add_argument("--threads", type=int,
                     help="worker threads for the SSC features, the 6D "
                          "tensor stages, the warps and the Jacobian "
                          "statistics (default: the usable cores); outputs "
                          "are identical for any count")

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
    ev.add_argument("--threads", type=int,
                    help="worker threads for the warp and the Jacobian "
                         "statistics (default: the usable cores); outputs "
                         "are identical for any count")
    ev.add_argument("--config", help="key=value config file")

    sub.add_parser("selftest", help="register a small phantom twice and "
                                    "check determinism, Dice and folding")
    return parser, sub.choices


def _require(opts: dict, dests, command: str):
    missing = [d for d in dests if opts[d] is None]
    if missing:
        flags = ", ".join("--" + d.replace("_", "-") for d in missing)
        raise SystemExit(_fail(f"{command}: missing required {flags}", 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


@contextmanager
def _new_dirs(path: str):
    """Create directory ``path`` and its missing parents before the
    body runs, so an unusable path fails before the work; if the body
    raises, remove the directories this made, deepest first."""
    made = []
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise


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

    cfg = RegistrationConfig(space=DisplacementSpace(**_given(opts, "q",
                                                              "steps")),
                             **_given(opts, "grid_counts"))

    # Built even without --refine, so a bad --lambda is still rejected.
    refinement = RefineConfig(**_given(opts, "diffusion_weight"))
    if not opts["refine"]:
        refinement = None

    out_dir = opts["out_dir"]
    with _new_dirs(out_dir):
        result = register_pair(fixed, moving, cfg,
                               fixed_labels=fixed_labels,
                               moving_labels=moving_labels,
                               refinement=refinement,
                               threads=workers)

    report = result.report
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
    sys.stdout.write(text)
    return 0


def _cmd_phantom(opts: dict) -> int:
    _require(opts, ("out_dir",), "phantom")
    spec = PhantomSpec(**_given(opts, "seed", "dims", "organs", "deformation",
                                "magnitude", "noise_sigma"))
    out_dir = opts["out_dir"]
    with _new_dirs(out_dir):
        pair = generate(spec)
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
    workers = resolve_workers(opts["threads"])
    fixed_labels = vio.read_volume(opts["fixed_labels"], as_labels=True)
    moving_labels = vio.read_volume(opts["moving_labels"], as_labels=True)
    # Without a field the Jacobian statistics are not computed and read nan.
    report = RegistrationReport()
    if opts["field"] is not None:
        field = vio.read_field(opts["field"])
        moving_labels = warp(moving_labels, field, workers=workers)
        report.std_jac, report.folding_fraction = jacobian_stats(
            field, workers=workers)
        report.notes["field"] = opts["field"]
    report.per_label_dice = dice(fixed_labels, moving_labels)
    sys.stdout.write(report.to_text())
    return 0


_SELFTEST_PHANTOM = ["--dims", "32", "--organs", "3", "--deformation",
                     "smooth-random", "--magnitude", "0.2"]
_SELFTEST_REGISTER = ["--grid", "8", "--steps", "9", "--q", "0.4"]
_SELFTEST_OUTPUTS = ("field.raw", "warped.raw", "warped_labels.raw",
                     "report.txt")


def _cmd_selftest(_opts) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        pair, runs = Path(tmp), [Path(tmp, "a"), Path(tmp, "b")]
        inputs = [f"--{stem.replace('_', '-')}={pair / stem}.hdr" for stem
                  in ("fixed", "moving", "fixed_labels", "moving_labels")]
        with redirect_stdout(StringIO()):
            codes = [main(["phantom", "--out-dir", tmp] + _SELFTEST_PHANTOM)]
            codes += [main(["register", "--out-dir", str(run)] + inputs
                           + _SELFTEST_REGISTER) for run in runs]
        if any(codes):
            print(f"FAIL phantom, register, register exited {codes}")
            return 1

        def read(path):
            return vio.read_volume(str(path), as_labels=True)

        fixed = read(pair / "fixed_labels.hdr")
        before = mean_dice(dice(fixed, read(pair / "moving_labels.hdr")))
        after = mean_dice(dice(fixed, read(runs[0] / "warped_labels.hdr")))
        same = all((runs[0] / name).read_bytes() == (runs[1] / name)
                   .read_bytes() for name in _SELFTEST_OUTPUTS)
        folding = {key: value for _, key, value in vio._key_values(
            runs[0] / "report.txt", RuntimeError)}["folding_fraction"]
    checks = {
        "outputs byte-identical between the two runs": same,
        f"dice_mean {after:.4f} above the unregistered Dice {before:.4f}":
            after > before,
        f"folding_fraction {folding} is 0": float(folding) == 0.0,
    }
    for name, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


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
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
