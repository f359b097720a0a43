"""Spans around sturmion's public functions, installed from outside.

Each wrapped function is replaced in every sturmion namespace that holds it,
so a call is timed wherever it comes from: ``sturmion.cli.build_chain``,
``sturmion.harness.build_chain`` and ``sturmion.chain.build_chain`` all go
through one wrapper.  Spans are kept in memory and written out at the end.

A few functions run hundreds of thousands of times in one run.  They are
counted and timed, and their time is taken out of their parent's self time,
but they are not kept as spans.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

LAYERS = ("cli", "grids", "chain", "poly", "scalars", "spectral", "families",
          "transforms", "harness")

HARNESS_CHECKS = (
    ("verify_legendre_duality", "legendre_duality"),
    ("verify_linear", "linear_hahn"),
    ("verify_quadratic_tau1", "quadratic_tau1_racah"),
    ("verify_quadratic_tau2", "quadratic_tau2_christoffel"),
    ("verify_exponential", "exponential_qhahn"),
)


def _trig_check_name(args, kwargs):
    kind = args[0] if args else kwargs["kind"]
    return "harness.trig_first" if kind == 1 else "harness.trig_second"


def _coeff_bits(chain) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in chain.b + chain.u), default=0)


class Tracer:
    """Wraps sturmion's public functions and collects spans and counts."""

    def __init__(self):
        self.spans = []                      # (id, name, start, end, parent, op)
        self.calls = defaultdict(int)        # span name -> calls
        self.seconds = defaultdict(float)    # span name -> inclusive seconds
        self.self_seconds = defaultdict(float)  # layer -> self seconds
        self.coeff_bits_max = 0
        self.op = -1
        self._stack = []                     # open frames: [span id, child s]
        self._next_id = 0
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, func, name, layer, keep=True, namer=None, after=None):
        stack = self._stack

        @wraps(func)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            parent = stack[-1][0] if stack else None
            if keep:
                ident = self._next_id
                self._next_id += 1
            else:
                ident = parent
            frame = [ident, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                self.self_seconds[layer] += took - frame[1]
                self.calls[span] += 1
                self.seconds[span] += took
                if keep:
                    self.spans.append((ident, span, start, end, parent,
                                       self.op))
            if after is not None:
                after(result)
            return result

        return traced

    def _replace(self, owner, orig, wrapper, modules):
        for holder in (owner, *modules):
            for key, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, orig))

    def install(self, package):
        """Wrap the public functions of every sturmion layer."""
        from importlib import import_module
        mods = {layer: import_module(f"{package}.{layer}") for layer in LAYERS}
        modules = [sys.modules[package], *mods.values()]
        poly, scalars, families = mods["poly"], mods["scalars"], mods["families"]

        def track_bits(chain):
            self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(chain))

        targets = [
            (mods["cli"], "main", {}),
            (mods["cli"], "parse_polynomial", {}),
            (mods["grids"], "parse_grid", {}),
            (mods["grids"], "nodes", {}),
            (mods["grids"], "characteristic_polynomial", {}),
            (mods["chain"], "sturmian_pair", {}),
            (mods["chain"], "build_chain", {"after": track_bits}),
            (mods["chain"], "count_roots", {}),
            (mods["chain"], "count_from_chain", {}),
            (mods["chain"], "sign_variations", {}),
            (poly.Polynomial, "__call__", {"name": "poly.eval", "keep": False}),
            (poly.Polynomial, "__divmod__", {"name": "poly.divmod"}),
            (poly.Polynomial, "__mul__", {"name": "poly.mul", "keep": False}),
            (poly.Polynomial, "derivative", {"name": "poly.derivative"}),
            (poly.Polynomial, "compose", {"name": "poly.compose"}),
            (scalars.BigFloat, "__init__",
             {"name": "scalars.bigfloat_init", "keep": False}),
            (scalars, "scalar_json", {"keep": False}),
            (scalars, "parse_rational", {}),
            (scalars, "to_fraction", {}),
            (scalars, "cos_pi", {}),
            (scalars, "sin_pi", {}),
            (mods["spectral"], "primal_weights", {}),
            (mods["spectral"], "dual_weights", {}),
            (mods["spectral"], "generate_polys", {}),
            (mods["spectral"], "check_orthogonality", {}),
            (families, "legendre_dual_coeffs", {}),
            (mods["transforms"], "christoffel", {}),
            (mods["transforms"], "christoffel_coefficients", {}),
            (mods["transforms"], "uvarov", {}),
            (mods["transforms"], "second_kind_values", {}),
            (mods["harness"], "run_all", {}),
            (mods["harness"], "verify_trig", {"namer": _trig_check_name}),
        ]
        targets += [(mods["harness"], func, {"name": f"harness.{check}"})
                    for func, check in HARNESS_CHECKS]
        targets += [(getattr(families, cls), "recurrence",
                     {"name": "families.recurrence"})
                    for cls in ("Hahn", "Racah", "QHahn", "ChebyshevT",
                                "ChebyshevU", "Ultraspherical")]
        targets += [(families.Racah, "weights", {"name": "families.weights"}),
                    (families.QHahn, "weights", {"name": "families.weights"})]

        for owner, attr, opts in targets:
            orig = vars(owner)[attr]
            layer = orig.__module__.rsplit(".", 1)[-1]
            name = opts.pop("name", f"{layer}.{attr}")
            self._replace(owner, orig, self.wrap(orig, name, layer, **opts),
                          modules)

    def uninstall(self):
        while self._undo:
            holder, key, orig = self._undo.pop()
            setattr(holder, key, orig)

    # -- results ------------------------------------------------------------

    def per_layer(self, ops: int, output_bytes: int) -> dict:
        """Per-layer metrics, each a mean per attempted op, except
        chain.coeff_bits_max, the largest value seen."""
        def per_op(value):
            return value / ops

        m = {f"{layer}.self_s": (per_op(self.self_seconds[layer]), "s/op")
             for layer in LAYERS}
        m["cli.output_bytes"] = (per_op(output_bytes), "bytes/op")
        for name in ("grids.characteristic_polynomial", "grids.nodes",
                     "chain.build_chain", "chain.count_roots", "poly.eval",
                     "spectral.primal_weights", "spectral.dual_weights",
                     "spectral.generate_polys", "spectral.check_orthogonality",
                     "transforms.christoffel", "transforms.uvarov"):
            m[f"{name}_s"] = (per_op(self.seconds[name]), "s/op")
        for name in ("chain.build_chain", "chain.sign_variations",
                     "poly.divmod", "poly.mul", "poly.eval",
                     "families.recurrence"):
            m[f"{name}_calls"] = (per_op(self.calls[name]), "calls/op")
        m["chain.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        m["scalars.bigfloat_inits"] = (
            per_op(self.calls["scalars.bigfloat_init"]), "calls/op")
        checks = [check for _, check in HARNESS_CHECKS]
        for check in checks + ["trig_first", "trig_second"]:
            name = f"harness.{check}"
            m[f"{name}_s"] = (per_op(self.seconds[name]), "s/op")
        return m

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "fields": [
                "id", "name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
