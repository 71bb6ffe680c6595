"""Spans around polycap's public functions, recorded from outside the program.

`Tracer.install` replaces each traced function by a wrapper that records a
span (name, start, end, parent, attributes).  Module-level functions are
rebound in every polycap module that holds them, because `from .solvers
import solve_constrained` copies the binding into `capacity`, `potential`
and `regularity`; patching only the defining module would miss those calls.
Methods are replaced on their class.  Spans stay in memory and `layer_metrics`
turns them into per-layer numbers; a layer's self time is its span minus the
spans directly under it.  The benchmark is single-threaded, so one stack
gives every span its parent.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np


def _nodes(args, kwargs, result):
    return {"nodes": int(np.asarray(args[1]).size)}


def _mask_nodes(args, kwargs, result):
    return {"nodes": int(args[1].size)}


def _iterations(args, kwargs, result):
    return {"iterations": int(result[1]["iterations"])}


def _axisym_capacity_unknowns(args, kwargs, result):
    return {"unknowns": int(np.prod(result[1].shape))}


def _result_unknowns(args, kwargs, result):
    return {"unknowns": int(result.size)}


def _profile_method(args, kwargs, result):
    return {"method": result.method}


def _bytes_at(position):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return attrs


# (module, attribute, attributes recorded from the call); "Class.method"
# names a method replaced on its class.  channel_positivity and cli.main feed
# no metric; they give the spans under them a parent in the dump.
TRACED = [
    ("polycap.grids", "Region.mask", _mask_nodes),
    ("polycap.stencils", "apply_alpha", None),
    ("polycap.energy", "EnergyForm.apply", _nodes),
    ("polycap.energy", "EnergyForm.quad", None),
    ("polycap.solvers", "solve_constrained", _iterations),
    ("polycap.solvers", "smallest_generalized_eig", None),
    ("polycap.capacity", "cap_m", None),
    ("polycap.capacity", "bessel_capacity", None),
    ("polycap.capacity", "annulus_series", None),
    ("polycap.capacity", "series_to_csv", _bytes_at(1)),
    ("polycap.radial", "axisym_energy_matrix", None),
    ("polycap.radial", "axisym_capacity", _axisym_capacity_unknowns),
    ("polycap.radial", "axisym_dirichlet", _result_unknowns),
    ("polycap.radial", "AxisymGrid.mask_from_region", None),
    ("polycap.fundsol", "compute_profile", _profile_method),
    ("polycap.positivity", "ChannelForm.__init__", None),
    ("polycap.positivity", "channel_positivity", None),
    ("polycap.potential", "capacitary_potential", None),
    ("polycap.potential", "range_check", None),
    ("polycap.potential", "gradient_decay_check", None),
    ("polycap.potential", "lower_bound_check", None),
    ("polycap.regularity", "wiener_classify", None),
    ("polycap.regularity", "dirichlet_solve", None),
    ("polycap.regularity", "decay_check", None),
    ("polycap.regularity", "regularity_probe", None),
    ("polycap.reporting", "write_json", _bytes_at(0)),
    ("polycap.reporting", "write_csv", _bytes_at(0)),
    ("polycap.reporting", "write_manifest", None),
    ("polycap.cli", "main", None),
]


def _short(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, attributes]
        self._stack = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Run fn under a span of its own (the benchmark's operations)."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def install(self):
        polycap_modules = [mod for key, mod in list(sys.modules.items())
                           if key == "polycap" or key.startswith("polycap.")]
        for module_name, attr, attrs in TRACED:
            module = importlib.import_module(module_name)
            name = _short(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], attrs))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, attrs)
            for mod in polycap_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)


def layer_metrics(spans, base=0):
    """Per-layer numbers from one round's spans, spans[base:].

    The round's operations run at top level, so every parent of a span in
    the round lies in the round too.  Self time is the span's duration minus
    the durations of its direct children.
    """
    own = spans[base:]
    child = [0.0] * len(own)
    for _, start, end, parent, _ in own:
        if parent >= 0:
            child[parent - base] += end - start
    by_name = {}
    for (name, start, end, parent, attrs), c in zip(own, child):
        parent_name = spans[parent][0] if parent >= 0 else None
        by_name.setdefault(name, []).append((end - start - c, end - start, attrs or {},
                                             parent_name))

    def self_s(*names):
        return sum(r[0] for n in names for r in by_name.get(n, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(name, key):
        return sum(r[2].get(key, 0) for r in by_name.get(name, ()))

    apply_rows = by_name.get("energy.EnergyForm.apply", ())
    apply_wall = sum(r[1] for r in apply_rows)
    apply_nodes = total("energy.EnergyForm.apply", "nodes")
    profiles = by_name.get("fundsol.compute_profile", ())
    scale_solves = sum(
        1 for n in ("capacity.cap_m", "capacity.bessel_capacity", "radial.axisym_capacity")
        for r in by_name.get(n, ()) if r[3] == "capacity.annulus_series")
    return {
        "grids.mask_s": (self_s("grids.Region.mask"), "s"),
        "grids.mask_calls": (calls("grids.Region.mask"), "count"),
        "grids.mask_nodes": (total("grids.Region.mask", "nodes"), "count"),
        "stencils.apply_alpha_s": (self_s("stencils.apply_alpha"), "s"),
        "stencils.apply_alpha_calls": (calls("stencils.apply_alpha"), "count"),
        "energy.apply_s": (self_s("energy.EnergyForm.apply"), "s"),
        "energy.apply_calls": (calls("energy.EnergyForm.apply"), "count"),
        "energy.apply_mnodes_per_s": (apply_nodes / 1e6 / apply_wall if apply_wall else 0.0,
                                      "Mnodes/s"),
        "energy.quad_s": (self_s("energy.EnergyForm.quad"), "s"),
        "solvers.solves": (calls("solvers.solve_constrained"), "count"),
        "solvers.cg_iterations": (total("solvers.solve_constrained", "iterations"), "count"),
        "solvers.self_s": (self_s("solvers.solve_constrained"), "s"),
        "solvers.eig_s": (self_s("solvers.smallest_generalized_eig"), "s"),
        "solvers.eig_calls": (calls("solvers.smallest_generalized_eig"), "count"),
        "capacity.series_s": (self_s("capacity.annulus_series"), "s"),
        "capacity.scale_solves": (scale_solves, "count"),
        "capacity.cap_calls": (calls("capacity.cap_m", "capacity.bessel_capacity"), "count"),
        "radial.assembly_s": (self_s("radial.axisym_energy_matrix"), "s"),
        "radial.assembly_calls": (calls("radial.axisym_energy_matrix"), "count"),
        "radial.factor_solve_s": (self_s("radial.axisym_capacity", "radial.axisym_dirichlet"),
                                  "s"),
        "radial.unknowns": (total("radial.axisym_capacity", "unknowns")
                            + total("radial.axisym_dirichlet", "unknowns"), "count"),
        "radial.mask_s": (self_s("radial.AxisymGrid.mask_from_region"), "s"),
        "fundsol.fft_s": (sum(r[0] for r in profiles if r[2].get("method") == "fft"), "s"),
        "fundsol.subordination_s": (
            sum(r[0] for r in profiles if r[2].get("method") == "subordination"), "s"),
        "fundsol.profiles": (len(profiles), "count"),
        "positivity.form_build_s": (self_s("positivity.ChannelForm.__init__"), "s"),
        "positivity.channel_forms": (calls("positivity.ChannelForm.__init__"), "count"),
        "potential.solve_s": (self_s("potential.capacitary_potential"), "s"),
        "potential.check_s": (self_s("potential.range_check", "potential.gradient_decay_check",
                                     "potential.lower_bound_check"), "s"),
        "regularity.classify_s": (self_s("regularity.wiener_classify"), "s"),
        "regularity.dirichlet_s": (self_s("regularity.dirichlet_solve",
                                          "regularity.decay_check"), "s"),
        "regularity.probe_s": (self_s("regularity.regularity_probe"), "s"),
        "reporting.write_s": (self_s("reporting.write_json", "reporting.write_csv",
                                     "reporting.write_manifest", "capacity.series_to_csv"),
                              "s"),
        "reporting.bytes_written": (total("reporting.write_json", "bytes")
                                    + total("reporting.write_csv", "bytes")
                                    + total("capacity.series_to_csv", "bytes"), "B"),
    }
