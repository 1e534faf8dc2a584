"""Every demo script runs against the current public API and prints what it
printed at the commit its hash was captured at (the demos are deterministic)."""

import contextlib
import hashlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout, captured at 8e94c112cb442c0d2f25ad7b44f7c8d7b04f32db; 02 was
# re-captured when the bound state moved from bisection to Newton's iteration, which moved the
# repr of its g = -1.5 and -5 energies by a few ulp; 04 was re-captured when the k grid became
# one piecewise-linear node map, which lowered its g = 100 reconstruction errors
STDOUT_SHA256 = {
    "01_inversion_representations": "6dec0dd25d490f8e219f2fb7bbd37caf1e713f6443daa5fef81798a55576d96b",
    "02_resonance_poles": "7c24e8a4fd8a3a38edb2fafbfc4cc71fb28dafdd57ae1a33f5d10cc3a5feded4",
    "03_semigroup_clocks": "334a0616af841730aa6abf60c726434e30660dea56d701f741366d3f3ce7c595",
    "04_wavepacket_completeness": "871732d9f487752a3463c9451b6c1b47c826a228192c7be7d1b64f15d9c532eb",
    "05_hardy_classes": "cd6b7a157f94cb1fabbc9a18ade4cf3a1102f035e71a3bd10e31e2658911758a",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == STDOUT_SHA256[path.stem]
