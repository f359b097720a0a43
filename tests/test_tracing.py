"""The benchmark's tracer (perfbench/tracing.py) still finds every function
it wraps by module, name and owning class, so a rename fails here and not
in a later traced benchmark run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from sturmion import Polynomial, cli, spectral, transforms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

WRAPPED = ("transforms.christoffel", "transforms.christoffel_coefficients",
           "transforms.uvarov", "transforms.second_kind_values",
           "spectral.primal_weights", "spectral.dual_weights",
           "spectral.generate_polys", "spectral.check_orthogonality",
           "chain.build_chain", "chain.count_roots", "chain.count_from_chain",
           "chain.sign_variations", "poly.eval", "scalars.bigfloat_init",
           "grids.characteristic_polynomial", "families.recurrence",
           "families.weights")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_runs_and_uninstalls(capsys):
    originals = (transforms.christoffel, spectral.primal_weights, cli.main)
    tracer = load_tracing().Tracer()
    tracer.install("sturmion")
    try:
        assert transforms.christoffel is not originals[0]
        assert cli.main(["chain", "--grid", "trig1", "--n", "3"]) == 0
        assert cli.main(["verify", "--nmax", "1"]) == 0
        assert cli.main(["count", "--poly", "x^2-1", "--lo", "-2",
                         "--hi", "2"]) == 0
        # chain takes both weights from one pass and verify checks each
        # measure by Gauss quadrature, so no command reaches dual_weights or
        # check_orthogonality: call each once to see that its wrapper
        # records a call
        top = Polynomial.from_roots([0, 1, 2])
        spectral.dual_weights(top, top.derivative() * Fraction(1, 3),
                              [0, 1, 2])
        spectral.check_orthogonality(
            [Polynomial.constant(1)],
            spectral.SpectralData((Fraction(0),), (Fraction(1),)))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in WRAPPED:
        assert tracer.calls[name] > 0, name
    metrics = tracer.per_layer(ops=3, output_bytes=0)
    assert metrics["transforms.christoffel_s"][0] > 0
    assert metrics["harness.trig_first_s"][0] > 0
    assert (transforms.christoffel, spectral.primal_weights,
            cli.main) == originals
