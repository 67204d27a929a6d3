"""Span tracing of fraccal's layers from outside the package.

``Tracer`` wraps the public functions of each layer and rebinds every
module-level name in ``fraccal`` and ``fraccal.*`` that refers to the same
function object, because ``cli``, ``fracops`` and ``whittaker`` import names
directly.  ``WhittakerSurface.f1``/``f2`` are wrapped on the class.  Spans
stay in memory as parallel arrays (name, start, end, parent, op id, raised)
until the run ends; a span's self time is its duration minus the durations
of its direct children.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# span name -> (module, public functions); names not listed here are not
# traced, so their time counts towards the caller's span
SPANS = {
    "cli": ("fraccal.cli", ("main",)),
    "fracops.contour": ("fraccal.fracops", ("frac_deriv_contour",
                                            "frac_integ_contour")),
    "fracops.nodes": ("fraccal.fracops", ("contour_quadrature_nodes",)),
    "fracops.other": ("fraccal.fracops", (
        "frac_deriv_series", "frac_integ_series", "frac_deriv_series_normalized",
        "frac_of_pfq", "frac_h1", "psi_polynomial", "psi_limit_check",
        "psi_coefficients_contour")),
    "hyp.hyp2f1": ("fraccal.hyp", ("hyp2f1",)),
    "hyp.hyp2f1_continue": ("fraccal.hyp", ("hyp2f1_continue",)),
    "hyp.other": ("fraccal.hyp", (
        "hyp_pfq", "connection_coefficient", "monodromic_jump_2f1",
        "euler_ltf_check", "geom_alpha_check")),
    "gammafn": ("fraccal.gammafn", (
        "gamma", "loggamma", "rgamma", "digamma", "pochhammer",
        "gamma_ratio_pochhammer")),
    "contours.integrate_path": ("fraccal.contours", ("integrate_path",)),
    "contours.other": ("fraccal.contours", (
        "cauchy_eval", "gamma_contour", "infinite_tube_boundary",
        "check_h1_decay")),
    "transforms.laplace": ("fraccal.transforms", ("laplace_quadrature",
                                                  "laplace_alpha")),
    "transforms.other": ("fraccal.transforms", (
        "borel_map", "inverse_borel", "borel_log_scaled",
        "to_standard_transform", "verify_lm_duality", "remainder",
        "watson_gevrey_check", "h_norm", "s_side_representation_check")),
    "whittaker": ("fraccal.whittaker", (
        "normalize_ode", "phase_amplitude_recurrence", "borel_duals",
        "whittaker_dual_pair", "stokes_multipliers_whittaker",
        "laplace_surface_ray", "phase_amplitude_values",
        "verify_dual_monodromy", "verify_eg_ltf", "verify_goursat_ltf",
        "verify_mw_system", "mon1_mw1_consistency", "continue_series_along",
        "WhittakerSurface.f1", "WhittakerSurface.f2")),
    "series": ("fraccal.series", (
        "add", "scale", "cauchy_product", "series_arith", "eval_series",
        "taylor_shift", "estimate_growth", "geometric_series", "exp_series",
        "monomial")),
}
NAMES = tuple(SPANS)


def _fraccal_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fraccal" or name.startswith("fraccal."))]


class Tracer:
    """Records spans while installed; one per traced run."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.op_id = -1
        self._stack = []
        self._restore = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name_id: int):
        stack = self._stack
        names, starts, ends = self.name, self.start, self.end
        parents, ops, raised = self.parent, self.op, self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            raised.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__bench_traced__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = _fraccal_modules()
        for name_id, span in enumerate(NAMES):
            module_name, attrs = SPANS[span]
            home = sys.modules[module_name]
            for attr in attrs:
                # a function that a later change removes is skipped, so the
                # traced run keeps working; its span then counts nothing
                if "." in attr:  # a method, wrapped on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = vars(cls).get(meth) if cls is not None else None
                    if orig is not None:
                        self._restore.append((cls, meth, orig))
                        setattr(cls, meth, self._wrap(orig, name_id))
                    continue
                orig = getattr(home, attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(orig, name_id)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, key, orig))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(NAMES), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, total self seconds and spans that raised."""
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=n) if n else np.zeros(0)
        self_s = dur - child
        k = len(NAMES)
        calls = np.bincount(a["name"], minlength=k)
        self_tot = np.bincount(a["name"], weights=self_s, minlength=k)
        failed = np.bincount(a["name"], weights=a["raised"], minlength=k)
        return {name: {"calls": int(calls[i]), "self_s": float(self_tot[i]),
                       "failed": int(failed[i])}
                for i, name in enumerate(NAMES)}
