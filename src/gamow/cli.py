"""Command-line front end: reps, poles, phase, evolve, spectral, hardy.

Output is deterministic: floats are printed with 12 significant digits, JSON
keys are sorted, CSV uses a header row with '.' decimals and no locale
dependence.  Exit codes: 0 success, 1 domain/model error, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import dynamics, reps, scattering, spectral

__all__ = ["parse_args", "run", "main"]

# float64 arrays of the grid's size each subcommand holds per grid point: its
# tracemalloc peak at 2^14 points (json output, the largest) plus one, rounded up
_PHASE_WORK_ARRAYS = 39
_EVOLVE_WORK_ARRAYS = 61
# per entry of the row's largest operator: row one's json peak at twice_j = 100
# (8.7; the doubled rows peak at 4.5, text at 3.5 and csv, which builds no
# dense matrix, at 0.2) plus one, rounded up
_REPS_WORK_ARRAYS = 10


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _round12(x: float) -> float:
    return float(_fmt(x))


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"number must be finite, got {text!r}")
    return value


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return _finite(parts[0]), _finite(parts[1])


def _packet_spec(text: str) -> tuple[float, float]:
    kind, _, rest = text.partition(":")
    if kind != "gaussian":
        raise argparse.ArgumentTypeError(f"unknown packet kind {kind!r}; expected gaussian:<center>,<width>")
    return _pair(rest)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamow",
        description="Delta-shell resonances, Gamow semigroup evolution, "
        "inversion co-representations, and spectral expansions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, default_format="text"):
        p.add_argument("--format", choices=["text", "json", "csv"], default=default_format)
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def add_model(p):
        p.add_argument("--g", type=_finite, required=True)
        p.add_argument("--a", type=_finite, required=True)

    p = sub.add_parser("reps", help="build one co-representation row and verify its relations")
    p.add_argument("--row", type=int, choices=[1, 2, 3, 4], required=True)
    p.add_argument("--twice-j", type=int, required=True, dest="twice_j")
    add_common(p)

    p = sub.add_parser("poles", help="locate resonance poles in a k-plane rectangle")
    add_model(p)
    p.add_argument("--re", type=_pair, required=True, metavar="MIN,MAX")
    p.add_argument("--im", type=_pair, required=True, metavar="MIN,MAX")
    add_common(p)

    p = sub.add_parser("phase", help="phase shift and sin^2(delta) on an energy grid")
    add_model(p)
    p.add_argument("--emin", type=_finite, required=True)
    p.add_argument("--emax", type=_finite, required=True)
    p.add_argument("--n", type=int, default=200)
    add_common(p, default_format="csv")

    p = sub.add_parser("evolve", help="sample one semigroup evolution law")
    p.add_argument("--er", type=_finite, required=True)
    p.add_argument("--gamma", type=_finite, required=True)
    p.add_argument("--law", choices=["g0", "d0", "g1", "d1"], required=True)
    p.add_argument("--t0", type=_finite, required=True)
    p.add_argument("--t1", type=_finite, required=True)
    p.add_argument("--n", type=int, default=100)
    add_common(p, default_format="csv")

    p = sub.add_parser("spectral", help="wavepacket reconstruction from the eigenfunction expansion")
    add_model(p)
    p.add_argument("--kmax", type=_finite, default=30.0)
    p.add_argument("--nk", type=int, default=2000)
    p.add_argument("--rmax", type=_finite, default=10.0)
    p.add_argument("--nr", type=int, default=4001)
    p.add_argument("--packet", type=_packet_spec, required=True, metavar="gaussian:CENTER,WIDTH")
    add_common(p)

    p = sub.add_parser("hardy", help="Paley-Wiener membership of a windowed resonance function")
    p.add_argument("--pole", type=_pair, required=True, metavar="ER,GAMMA")
    p.add_argument("--emin", type=_finite, default=None)
    p.add_argument("--emax", type=_finite, default=None)
    p.add_argument("--n", type=int, default=131072)
    add_common(p)

    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse argv into a Namespace (subcommand, format, out and the subcommand's
    options); exits with status 2 on usage errors."""
    return _build_parser().parse_args(argv)


def _emit(args, header, rows, text=(), data=None, key=None):
    """Render only args.format, written as it is rendered; rows (lists of _fmt cells)
    is read once, so a lazy source formats no cell for a format that was not asked for.

    csv is header and rows; json is data, with the rows as records under key when a
    key is given; text is the text lines, followed by the rows' table when a key is given.
    """
    table = itertools.chain([header], rows)
    if args.format == "csv":
        pieces = (",".join(line) + "\n" for line in table)
    elif args.format == "json":
        if key is not None:
            # cells are _fmt strings, so float() rounds to 12 digits
            data = {**data, key: [{name: float(cell) for name, cell in zip(header, row)}
                                  for row in rows]}
        # the chunks json.dumps would join, so the same bytes
        pieces = itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(data), "\n")
    else:
        pieces = (line + "\n" for line in itertools.chain(text, _table(table) if key else ()))
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        while batch := "".join(itertools.islice(pieces, 4096)):  # no piece is empty
            fh.write(batch)


def _table(lines):
    """Text table lines: every cell right-aligned in a 16-character column."""
    return ("  ".join(f"{cell:>16s}" for cell in line) for line in lines)


def _matrix_lines(name: str, op: reps.SymmetryOperator):
    """The operator's matrix, one line per row, spliced from its signed permutation:
    row i is zeros but for signs[i] in column cols[i], each cell 2 wide and 1 apart."""
    blank = " ".join([" 0"] * op.dim)
    return itertools.chain([f"{name} ({'antilinear' if op.antilinear else 'linear'}):"], (
        f"  [{blank[:3 * col]}{sign:2d}{blank[3 * col + 2:]}]"
        for col, sign in zip(op.cols.tolist(), op.signs.tolist())))


def _run_reps(args) -> None:
    row = reps.RepRow(args.row)
    spin = reps.SpinLabel(args.twice_j)
    size = spin.dim * (1 if row is reps.RepRow.ONE else 2)
    spectral._check_work_budget((size, size), _REPS_WORK_ARRAYS, "operator entries")
    report = reps.verify_group_relations(row, spin)
    relations = report.as_dict()
    operators = [("C", reps.build_c_matrix(spin)), ("Sigma", report.sigma),
                 ("R", report.r), ("T", report.t)]

    text = [
        f"row {row.value}, twice_j = {spin.twice_j} (j = {_fmt(spin.j)})",
        f"eps_r = {report.eps_r:+d}   eps_t = {report.eps_t:+d}   "
        f"commutation_sign = {report.commutation_sign:+d}",
    ]
    text += [f"{name:<25s} = {value}" for name, value in relations.items() if type(value) is bool]
    json_obj = dict(relations)
    # the matrices are rendered only for the format that prints them, and only json
    # builds them dense; csv prints none
    if args.format == "text":
        text = itertools.chain(text, *(_matrix_lines(name, op) for name, op in operators))
    elif args.format == "json":
        json_obj.update((name.lower(), op.matrix.tolist()) for name, op in operators)
    rows = [[name, str(value)] for name, value in relations.items()]
    _emit(args, ["relation", "value"], rows, text, json_obj)


def _run_poles(args) -> None:
    model = scattering.DeltaShellModel(g=args.g, a=args.a)
    region = scattering.SearchRegion(*args.re, *args.im)
    poles = scattering.find_poles(model, region)
    rows = (
        [_fmt(x) for x in (pole.k_pole.real, pole.k_pole.imag, pole.e_r, pole.gamma,
                           abs(complex(scattering.denominator(model, pole.k_pole))))]
        for pole in poles
    )
    text = [f"{len(poles)} pole(s) in Re k in [{_fmt(region.re_min)}, {_fmt(region.re_max)}], "
            f"Im k in [{_fmt(region.im_min)}, {_fmt(region.im_max)}]"]
    _emit(args, ["re_k", "im_k", "e_r", "gamma", "abs_denominator"], rows, text,
          {"g": _round12(model.g), "a": _round12(model.a)}, key="poles")


def _run_phase(args) -> None:
    model = scattering.DeltaShellModel(g=args.g, a=args.a)
    if args.n < 2:
        raise ValueError("need at least 2 grid points")
    if not math.isfinite(args.emax - args.emin):  # the ends are finite (_finite)
        raise ValueError(f"energy span emax - emin = {args.emax} - {args.emin} overflows")
    spectral._check_work_budget((args.n,), _PHASE_WORK_ARRAYS, "energy points")
    energies = np.linspace(args.emin, args.emax, args.n)
    delta = scattering.phase_shift_curve(model, energies)
    s2 = np.sin(delta) ** 2
    rows = ([_fmt(e), _fmt(d), _fmt(s)] for e, d, s in zip(energies, delta, s2))
    _emit(args, ["E", "delta", "sin2delta"], rows,
          data={"g": _round12(model.g), "a": _round12(model.a)}, key="samples")


def _run_evolve(args) -> None:
    pole = scattering.ResonancePole.from_energy(args.er, args.gamma)
    law = dynamics.Law.from_code(args.law)
    if args.n < 1:
        raise ValueError("need at least 1 sample")
    # both ends are finite (_finite); only a span that np.linspace will take can overflow
    if args.n > 1 and not math.isfinite(args.t1 - args.t0):
        raise ValueError(f"time span t1 - t0 = {args.t1} - {args.t0} overflows")
    spectral._check_work_budget((args.n,), _EVOLVE_WORK_ARRAYS, "time samples")
    times = np.linspace(args.t0, args.t1, args.n) if args.n > 1 else np.array([args.t0])
    state = dynamics.GamowState(pole=pole, kind=law.kind, regime=law.regime)
    samples = dynamics.evolution_series(state, times)
    rows = (
        [_fmt(t), _fmt(amp.real), _fmt(amp.imag), _fmt(survival)]
        for t, amp, survival in samples.tolist()
    )
    text = [f"law {law.code} ({law.kind.value}, r={law.regime}), domain {law.time_domain}"]
    _emit(args, ["t", "re_amp", "im_amp", "survival"], rows, text,
          {"er": _round12(args.er), "gamma": _round12(args.gamma), "law": law.code},
          key="samples")


def _run_spectral(args) -> None:
    model = scattering.DeltaShellModel(g=args.g, a=args.a)
    center, width = args.packet
    # the grid, then the packet, are checked before anything of the grid's size allocates
    spectral._check_grid(model, args.kmax, args.nk, args.rmax, args.nr)
    packet = spectral.gaussian_packet(center, width, args.rmax, args.nr)
    decomp = spectral.build_decomposition(model, args.kmax, args.nk, args.rmax, args.nr)
    rebuilt = spectral.reconstruct(decomp, packet)
    error = spectral._relative_error(decomp, packet, rebuilt)
    bound = [e for e, _ in decomp.discrete]
    text = [
        f"g = {_fmt(model.g)}, a = {_fmt(model.a)}, k_max = {_fmt(args.kmax)}, "
        f"n_k = {decomp.k.size}, r_max = {_fmt(args.rmax)}, n_r = {args.nr}",
        f"packet: gaussian center = {_fmt(center)}, width = {_fmt(width)}",
        f"bound states: {len(bound)}"
        + ("" if not bound else " (E = " + ", ".join(_fmt(e) for e in bound) + ")"),
        f"relative L2 reconstruction error = {_fmt(error)}",
    ]
    rows = ([_fmt(r), _fmt(v), _fmt(w)]
            for r, v, w in zip(decomp.r, packet.values, rebuilt.values))
    json_obj = {
        "g": _round12(model.g), "a": _round12(model.a),
        "k_max": _round12(args.kmax), "n_k": int(decomp.k.size),
        "r_max": _round12(args.rmax), "n_r": int(args.nr),
        "packet_center": _round12(center), "packet_width": _round12(width),
        "bound_energies": [_round12(e) for e in bound],
        "reconstruction_error": _round12(error),
    }
    _emit(args, ["r", "input", "reconstructed"], rows, text, json_obj)


def _run_hardy(args) -> None:
    e_r, gamma = args.pole
    e_min = args.emin if args.emin is not None else e_r - 10000.0 * gamma
    e_max = args.emax if args.emax is not None else e_r + 10000.0 * gamma
    energies, samples = spectral.windowed_resonance_samples(e_r, gamma, e_min, e_max, args.n)
    reports = [spectral.hardy_check(energies, samples, hp) for hp in ("upper", "lower")]
    text = [f"pole at {_fmt(e_r)} - {_fmt(0.5 * gamma)}i, window [{_fmt(e_min)}, {_fmt(e_max)}], "
            f"n = {args.n}"]
    for rep in reports:
        text.append(
            f"{rep.half_plane:>5s} half-plane: leakage = {_fmt(rep.leakage)}, "
            f"member = {rep.is_member}"
        )
    json_obj = {
        "e_r": _round12(e_r), "gamma": _round12(gamma),
        "e_min": _round12(e_min), "e_max": _round12(e_max), "n": int(args.n),
        "reports": {
            rep.half_plane: {"leakage": _round12(rep.leakage), "is_member": rep.is_member}
            for rep in reports
        },
    }
    rows = [[rep.half_plane, _fmt(rep.leakage), str(rep.is_member)] for rep in reports]
    _emit(args, ["half_plane", "leakage", "is_member"], rows, text, json_obj)


_HANDLERS = {
    "reps": _run_reps,
    "poles": _run_poles,
    "phase": _run_phase,
    "evolve": _run_evolve,
    "spectral": _run_spectral,
    "hardy": _run_hardy,
}


def run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand; returns the process exit code."""
    try:
        _HANDLERS[args.subcommand](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    # Everything alive here is module state (numpy, scipy, gamow) that lives until
    # exit; frozen, it is skipped by the collections the interpreter runs at exit.
    gc.freeze()
    sys.exit(run(parse_args(sys.argv[1:])))
