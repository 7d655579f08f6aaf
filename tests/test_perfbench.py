"""The benchmark's traced run replaces layer entry points by ``setattr`` on the
module where their callers look them up (``perfbench/worker.py``).  A
refactor that drops such a global, or binds it before the wrappers go in,
must fail here rather than in ``perfbench/run.py --trace 1``."""

from pathlib import Path

import smallforms.manifold as manifold
import smallforms.measure as measure
from smallforms import ApproximatingFunction, estimate_delta_t, tail_dichotomy
from smallforms.manifold import gamma_dichotomy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_run_sees_both_dichotomies(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import worker

    originals = (measure.batch_has_witness, manifold.batch_has_witness, measure.band_vectors)
    psi = ApproximatingFunction.power(0.05, 1.5)
    tracer = spans.Tracer()
    worker.install_wrappers(tracer)
    try:
        for request, call in (
                ("tail", lambda: tail_dichotomy(2, 1, psi, (2, 4), 16, samples=300, seed=1,
                                                threads=2)),
                ("gamma", lambda: gamma_dichotomy(2, 2, psi, (2, 4), 16, samples=300, seed=1)),
                ("delta", lambda: estimate_delta_t(2, 1, psi, 3, samples=300, seed=1))):
            tracer.request = request
            call()
    finally:
        tracer.unwrap_all()
    seen = {(s["name"], s["request"]) for s in tracer.spans}
    assert {("measure.batch_has_witness", "tail"), ("measure.batch_has_witness", "gamma"),
            ("search.band_vectors", "delta")} <= seen
    assert (measure.batch_has_witness, manifold.batch_has_witness, measure.band_vectors) == originals
