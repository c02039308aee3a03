"""Layer tracing from outside the program.

The tracer replaces cskit's public functions, at every module attribute that
holds them (the names where callers look them up), with wrappers that record
one span per call: name, layer, start, end, parent span and pass id. Spans
stay in memory and are written out at the end of a run. Uninstalling puts
the original functions back.

The layers are cskit's modules. State preparation (``fock.coherent_state``
and ``fock.fock_basis_state`` included) counts as the ``catstates`` layer.
Sub-microsecond helpers called once per outcome (``classify_outcome``,
``apply_correction``, ``resource_parity``, ``r_opt``) are not wrapped: the
wrapper would cost more than the call and inflate the layer it sits in.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import resource
import statistics
import sys
import time

LAYERS = ("fock", "catstates", "protocols", "loss", "wigner", "cli")

# (module, function, layer)
TRACED = (
    ("cskit.fock", "tensor", "fock"),
    ("cskit.fock", "apply_beamsplitter", "fock"),
    ("cskit.fock", "apply_phase_shift", "fock"),
    ("cskit.fock", "project_photon_number", "fock"),
    ("cskit.fock", "partial_trace", "fock"),
    ("cskit.fock", "density_matrix", "fock"),
    ("cskit.fock", "fidelity", "fock"),
    ("cskit.fock", "coherent_state", "catstates"),
    ("cskit.fock", "fock_basis_state", "catstates"),
    ("cskit.catstates", "cat_state", "catstates"),
    ("cskit.catstates", "squeezed_vacuum", "catstates"),
    ("cskit.catstates", "squeezed_single_photon", "catstates"),
    ("cskit.catstates", "annihilate", "catstates"),
    ("cskit.catstates", "approximation_fidelity_sweep", "catstates"),
    ("cskit.protocols", "build_teleporter_input", "protocols"),
    ("cskit.protocols", "enumerate_outcomes", "protocols"),
    ("cskit.protocols", "run_teleportation", "protocols"),
    ("cskit.protocols", "per_outcome_fidelity", "protocols"),
    ("cskit.protocols", "success_probability_sweep", "protocols"),
    ("cskit.protocols", "run_entanglement_swap", "protocols"),
    ("cskit.loss", "attenuate", "loss"),
    ("cskit.loss", "run_lossy_teleportation", "loss"),
    ("cskit.loss", "run_lossy_entswap", "loss"),
    ("cskit.loss", "conditional_output_density", "loss"),
    ("cskit.loss", "loss_contour_sweep", "loss"),
    ("cskit.loss", "loss_diagonal_sweep", "loss"),
    ("cskit.wigner", "wigner_point", "wigner"),
    ("cskit.wigner", "wigner_grid", "wigner"),
    ("cskit.cli", "main", "cli"),
    ("cskit.cli", "_pmap", "cli"),
)

# Per-layer metrics that rest on one traced function; absent when it is gone.
NEEDS = {
    "fock.project.": "project_photon_number",
    "fock.fidelity.": "fidelity",
    "fock.beamsplitter.": "apply_beamsplitter",
    "loss.attenuate.": "attenuate",
    "loss.state_amps_max": "attenuate",
    "wigner.kernel_terms": "wigner_grid",
    "wigner.terms_per_s": "wigner_grid",
    "cli.pool.": "_pmap",
    "protocols.outcomes": "run_teleportation",
    "protocols.accepted_ratio": "run_teleportation",
}

# Every per-layer metric a traced run reports, with its unit.
UNITS = {
    "protocols.runs": "count",
    "protocols.busy_s": "s",
    "protocols.self_s": "s",
    "protocols.outcomes": "count",
    "protocols.accepted_ratio": "ratio",
    "fock.calls": "count",
    "fock.busy_s": "s",
    "fock.self_s": "s",
    "fock.project.calls": "count",
    "fock.project.busy_s": "s",
    "fock.fidelity.calls": "count",
    "fock.fidelity.busy_s": "s",
    "fock.beamsplitter.calls": "count",
    "fock.beamsplitter.busy_s": "s",
    "fock.beamsplitter.configs": "count",
    "fock.beamsplitter.cold_s": "s",
    "fock.beamsplitter.bytes": "B-computed",
    "catstates.calls": "count",
    "catstates.busy_s": "s",
    "catstates.self_s": "s",
    "loss.runs": "count",
    "loss.busy_s": "s",
    "loss.self_s": "s",
    "loss.attenuate.calls": "count",
    "loss.attenuate.busy_s": "s",
    "loss.state_amps_max": "count",
    "wigner.calls": "count",
    "wigner.busy_s": "s",
    "wigner.self_s": "s",
    "wigner.kernel_terms": "count",
    "wigner.terms_per_s": "1/s",
    "cli.calls": "count",
    "cli.busy_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "cli.pool.wall_s": "s",
    "cli.pool.cpu_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}

NAME, LAYER, START, END, PARENT, PASS, INFO = range(7)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _summary_info(args, kwargs, result):
    outcomes = result.outcomes
    return {
        "outcomes": len(outcomes),
        "accepted": sum(1 for o in outcomes if o.accepted and o.probability > 0.0),
    }


def _beamsplitter_info(args, kwargs, result):
    state = _arg(args, kwargs, 0, "state")
    d = state.mode_cutoffs[_arg(args, kwargs, 1, "mode_i")] + 1
    # Computed, not measured: the d^2 x d^2 float64 matrix plus the state
    # read and the state written.
    return {
        "config": (d, float(_arg(args, kwargs, 3, "transmitivity"))),
        "bytes": 8 * d**4 + state.amps.nbytes + result.amps.nbytes,
    }


def _wigner_grid_info(args, kwargs, result):
    d = _arg(args, kwargs, 0, "rho").dim
    return {"terms": result.size * d * (d + 1) // 2}


def _wigner_point_info(args, kwargs, result):
    d = _arg(args, kwargs, 0, "rho").dim
    return {"terms": d * (d + 1) // 2}


def _pmap_info(args, kwargs, result):
    return {"jobs": _arg(args, kwargs, 2, "jobs")}


INFO_HOOKS = {
    "run_teleportation": _summary_info,
    "run_entanglement_swap": _summary_info,
    "apply_beamsplitter": _beamsplitter_info,
    "attenuate": lambda args, kwargs, result: {"amps": result.amps.size},
    "wigner_grid": _wigner_grid_info,
    "wigner_point": _wigner_point_info,
    "_pmap": _pmap_info,
}


class Tracer:
    """Span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self.missing = set()
        self._stack = []
        self._restore = []

    def install(self, layers=None):
        """Wrap the traced functions of ``layers`` (all layers when None)."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module_name, name, layer in TRACED:
            if layers is not None and layer not in layers:
                continue
            original = getattr(importlib.import_module(module_name), name, None)
            if original is None:
                self.missing.add(name)
                continue
            wrappers[id(original)] = (original, self._wrap(original, name, layer))
        for module_name, module in list(sys.modules.items()):
            if module_name != "cskit" and not module_name.startswith("cskit."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self, pass_id, layers=None):
        """Record the spans of ``layers`` under ``pass_id`` inside the block."""
        self.pass_id = pass_id
        self.install(layers)
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = INFO_HOOKS.get(name)
        child_cpu = name == "_pmap"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            cpu0 = _children_cpu() if child_cpu else 0.0
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                span[INFO] = hook(args, kwargs, result)
                if child_cpu:
                    span[INFO]["children_cpu"] = _children_cpu() - cpu0
            return result

        return traced

    def write(self, path):
        """Spans as CSV: index, name, layer, start, end, parent, pass."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,layer,start_s,end_s,parent,pass\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[LAYER]},{s[START]!r},{s[END]!r},{s[PARENT]},{s[PASS]}\n")


BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}
# Whole runs of a protocol are counted as runs, other layers' entries as calls.
CALLS = {layer: f"{layer}.runs" if layer in ("protocols", "loss") else f"{layer}.calls" for layer in LAYERS}


def pass_metrics(spans, pass_id, wall_s):
    """Per-layer metrics of one pass from the spans recorded in it.

    A layer's ``calls`` (``runs`` for the protocol layers) and ``busy_s``
    count its outermost spans, those with no ancestor in the same layer;
    ``self_s`` sums each span's duration minus what its children cover. The
    self times of all layers plus ``trace.remainder_s`` equal ``wall_s``.
    """
    indices = [i for i, s in enumerate(spans) if s[PASS] == pass_id]
    duration = {i: spans[i][END] - spans[i][START] for i in indices}
    own = dict(duration)
    ancestors = {}
    top = 0.0
    for i in indices:  # parents are recorded before their children
        parent = spans[i][PARENT]
        if parent == -1:
            ancestors[i] = 0
            top += duration[i]
        else:
            own[parent] -= duration[i]
            ancestors[i] = ancestors[parent] | BIT[spans[parent][LAYER]]

    m = {}
    for layer in LAYERS:
        m[CALLS[layer]] = 0
        m[f"{layer}.busy_s"] = 0.0
        m[f"{layer}.self_s"] = 0.0
    for key in ("fock.project", "fock.fidelity", "fock.beamsplitter", "loss.attenuate"):
        m[f"{key}.calls"] = 0
        m[f"{key}.busy_s"] = 0.0
    by_function = {
        "project_photon_number": "fock.project",
        "fidelity": "fock.fidelity",
        "apply_beamsplitter": "fock.beamsplitter",
        "attenuate": "loss.attenuate",
    }
    outcomes = accepted = terms = bs_bytes = amps_max = 0
    configs = set()
    pool_wall = pool_cpu = 0.0
    for i in indices:
        name, layer, info = spans[i][NAME], spans[i][LAYER], spans[i][INFO]
        m[f"{layer}.self_s"] += own[i]
        if not ancestors[i] & BIT[layer]:
            m[CALLS[layer]] += 1
            m[f"{layer}.busy_s"] += duration[i]
        key = by_function.get(name)
        if key is not None:
            m[f"{key}.calls"] += 1
            m[f"{key}.busy_s"] += duration[i]
        if info is None:
            continue
        outcomes += info.get("outcomes", 0)
        accepted += info.get("accepted", 0)
        terms += info.get("terms", 0)
        bs_bytes += info.get("bytes", 0)
        amps_max = max(amps_max, info.get("amps", 0))
        if "config" in info:
            configs.add(info["config"])
        if info.get("jobs", 1) > 1:
            pool_wall += duration[i]
            pool_cpu += info["children_cpu"]
    m["protocols.outcomes"] = outcomes
    m["protocols.accepted_ratio"] = accepted / outcomes if outcomes else 0.0
    m["fock.beamsplitter.configs"] = len(configs)
    m["fock.beamsplitter.bytes"] = bs_bytes
    m["loss.state_amps_max"] = amps_max
    m["wigner.kernel_terms"] = terms
    m["wigner.terms_per_s"] = terms / m["wigner.busy_s"] if terms else 0.0
    m["cli.pool.wall_s"] = pool_wall
    m["cli.pool.cpu_s"] = pool_cpu
    m["trace.pass_s"] = wall_s
    m["trace.remainder_s"] = wall_s - top
    return m


def cold_beamsplitter_s(spans, pass_id):
    """Total time of the first beamsplitter call of each configuration in a pass."""
    seen = set()
    total = 0.0
    for s in spans:
        if s[PASS] == pass_id and s[NAME] == "apply_beamsplitter" and s[INFO]["config"] not in seen:
            seen.add(s[INFO]["config"])
            total += s[END] - s[START]
    return total


def absent(metric: str, missing) -> bool:
    """Whether ``metric`` rests on a traced function that the program no longer has."""
    for prefix, name in NEEDS.items():
        if metric.startswith(prefix) and name in missing:
            return True
    return False


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
