"""Parsed-value oracle for the CLI invocations pinned in golden_cli.json.

The sha256 guards in golden_cli.json pin every printed byte, including
rounding noise: a value near zero printed to 12 digits changes its hash when
its last bit moves.  This oracle pins the values instead.  It parses the
stdout of each golden invocation in its own format (text, json or csv) into

  * a skeleton: the output with every number replaced by ``#`` (labels,
    booleans, keys, line and row counts), which must match exactly;
  * the numbers as printed, each named by its column: the csv header, the
    json key path (list indices as ``*``), the text table header, or else
    the line's skeleton and the number's position in it.

A column whose numbers were all printed as integers must match exactly.
Every other number may move by at most the larger of 1e-12 times the largest
|value| of its column in the fixture (1e-12 absolute for ``abs_denominator``,
|D| at a pole, which is rounding noise of order 1e-15) and one unit in the
12th significant digit of either printed value.  The CLI prints 12
significant digits, so a value that moves by 1e-15 can flip its last printed
digit; two prints one quantum apart say no more than that the value lies
near their common rounding edge, so a bound finer than the quantum would
judge the rounding, not the value.  The quantum is taken from the printed
strings in exact decimal arithmetic.

The fixture, golden_values.npz, holds the parsed output of the commit the
values were captured at.  Re-capture it only together with a declared
numeric change, after this oracle has passed against the old fixture:

    PYTHONPATH=src python tests/golden_values.py
"""

import contextlib
import io
import json
import pathlib
import re
from decimal import Decimal

import numpy as np

from gamow.cli import parse_args, run

HERE = pathlib.Path(__file__).parent
FIXTURE = HERE / "golden_values.npz"
_GOLDEN = json.loads((HERE / "golden_cli.json").read_text())
CASES = (_GOLDEN["invocations"] + _GOLDEN["formats"]["invocations"]
         + _GOLDEN["sweeps"]["invocations"])

RELATIVE_BOUND = 1e-12
ABSOLUTE_BOUND = {"abs_denominator": 1e-12}
PRINTED_DIGITS = 12  # significant digits of cli._fmt

# a number not glued to a preceding word or number ("L2", "d0" and "sin2delta" are labels)
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")


def cli_stdout(argv) -> str:
    """What ``gamow <argv>`` prints, run in process; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(parse_args(argv))
    assert code == 0, argv
    return out.getvalue()


def parse(text: str, fmt: str):
    """(skeleton, numbers as printed, column of each number) of one output."""
    skeleton, tokens, columns = [], [], []
    if fmt == "json":
        def walk(node, path):
            if isinstance(node, dict):
                for key in sorted(node):
                    walk(node[key], f"{path}/{key}")
            elif isinstance(node, list):
                skeleton.append(f"{path}[{len(node)}]")
                for item in node:
                    walk(item, f"{path}/*")
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                skeleton.append(f"{path}=#")
                tokens.append(repr(node))
                columns.append(path)
            else:
                skeleton.append(f"{path}={json.dumps(node)}")
        walk(json.loads(text), "")
    elif fmt == "csv":
        header, *rows = text.splitlines()
        skeleton.append(header)
        names = header.split(",")
        for row in rows:
            cells = row.split(",")
            for name, cell in zip(names, cells):
                if _NUMBER.fullmatch(cell):
                    tokens.append(cell)
                    columns.append(name)
            skeleton.append(",".join("#" if _NUMBER.fullmatch(c) else c for c in cells))
    else:
        header = []
        for line in text.splitlines():
            template = " ".join(_NUMBER.sub("#", line).split())
            numbers = _NUMBER.findall(line)
            words = template.split()
            if not numbers:
                header, names = words, []
            elif set(words) == {"#"} and len(header) == len(words):
                names = header                        # a table row, named by its header
            else:
                names = [f"{template} #{i}" for i in range(len(numbers))]
            skeleton.append(template)
            tokens += numbers
            columns += names
    return skeleton, tokens, columns


def _print_quantum(token: str) -> Decimal:
    """One unit in the last of PRINTED_DIGITS significant digits of a printed number
    (0 for zero, which prints exactly)."""
    value = Decimal(token)
    return Decimal(0) if value == 0 else Decimal(1).scaleb(value.adjusted() - PRINTED_DIGITS + 1)


def _within_print_quantum(new: str, ref: str) -> bool:
    """Whether two printed numbers differ by at most one print quantum of either."""
    a, b = Decimal(new), Decimal(ref)
    return (a.is_finite() and b.is_finite()
            and abs(a - b) <= max(_print_quantum(new), _print_quantum(ref)))


def _key(argv) -> str:
    return " ".join(argv)


def capture(path=FIXTURE) -> None:
    """Write the parsed output of every golden invocation to the fixture."""
    arrays = {"argv": np.array([_key(case["argv"]) for case in CASES], dtype=bytes)}
    for i, case in enumerate(CASES):
        argv = case["argv"]
        skeleton, tokens, columns = parse(cli_stdout(argv), parse_args(argv).format)
        names = sorted(set(columns))
        arrays[f"skeleton_{i}"] = np.array(skeleton, dtype=bytes)
        arrays[f"tokens_{i}"] = np.array(tokens, dtype=bytes)
        arrays[f"names_{i}"] = np.array(names, dtype=bytes)
        arrays[f"columns_{i}"] = np.array([names.index(c) for c in columns], dtype=np.int16)
    np.savez_compressed(path, **arrays)


def _fixture(argv, path):
    with np.load(path) as data:
        i = data["argv"].astype(str).tolist().index(_key(argv))
        skeleton, tokens, names = (data[f"{part}_{i}"].astype(str).tolist()
                                   for part in ("skeleton", "tokens", "names"))
        return skeleton, tokens, [names[c] for c in data[f"columns_{i}"]]


def check(argv, text: str, path=FIXTURE) -> list[str]:
    """Differences of one invocation's output from the fixture ([] when it agrees)."""
    ref_skeleton, ref_tokens, ref_columns = _fixture(argv, path)
    skeleton, tokens, columns = parse(text, parse_args(argv).format)
    if skeleton != ref_skeleton:
        if len(skeleton) != len(ref_skeleton):
            return [f"{len(skeleton)} lines or leaves, fixture has {len(ref_skeleton)}"]
        line = next(i for i, (a, b) in enumerate(zip(skeleton, ref_skeleton)) if a != b)
        return [f"line {line}: {skeleton[line]!r}, fixture has {ref_skeleton[line]!r}"]
    problems = []
    columns = np.array(columns)
    for name in sorted(set(ref_columns)):
        sel = np.flatnonzero(columns == name)
        ref = [ref_tokens[i] for i in sel]
        new = [tokens[i] for i in sel]
        if all(_INTEGER.fullmatch(t) for t in ref):
            if [int(t) if _INTEGER.fullmatch(t) else t for t in new] != [int(t) for t in ref]:
                problems.append(f"{name}: integers {new} differ from {ref}")
            continue
        ref_v, new_v = np.array(ref, dtype=float), np.array(new, dtype=float)
        bound = max(RELATIVE_BOUND * float(np.max(np.abs(ref_v))),
                    ABSOLUTE_BOUND.get(name.rsplit("/", 1)[-1], 0.0))
        diff = np.abs(new_v - ref_v)
        over = [i for i in np.flatnonzero(~(diff <= bound))
                if not _within_print_quantum(new[i], ref[i])]
        if over:
            worst = max(over, key=lambda i: np.nan_to_num(diff[i], nan=np.inf))
            allowed = max(bound, float(max(_print_quantum(new[worst]), _print_quantum(ref[worst]))))
            problems.append(f"{name}: {new[worst]} vs {ref[worst]} (row {worst}), "
                            f"|diff| {diff[worst]:.3g} > {allowed:.3g}")
    return problems


if __name__ == "__main__":
    capture()
    print(f"wrote {FIXTURE}")
