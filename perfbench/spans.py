"""Layer spans recorded from outside the program, by wrapping its calls.

Each wrapped call records one span: a name, the layer it belongs to, its
parent span (the innermost wrapped call it ran under), its start and end,
and an amount of work where the callee has one (array elements through an
exponential, bytes computed by a transform, integrand evaluations of a
quadrature).  Spans are kept in flat arrays in memory and written out once
at the end; a layer's self time is the time its spans cover minus the part
their child spans cover.

The wrappers are installed in every module namespace that holds the
original object, because ``minimize``, ``functional``, ``blowup`` and
``cli`` import names from the other modules by value: patching only the
defining module would miss those calls.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

PACKAGE = "vortexmf"
MODULES = ("measure", "torus", "functional", "minimize", "blowup", "cli")

# Module-level functions wrapped as spans of their own module's layer.
# ``blowup.liouville_bubble`` is left out on purpose: it is evaluated inside
# quadrature integrands, once per node, and wrapping it would time the
# wrapper rather than the quadrature.
LAYER_FUNCTIONS = {
    "measure": ("lambda_bar", "load_measure", "parse_atoms_inline"),
    "torus": (
        "laplacian",
        "solve_poisson_zero_mean",
        "dirichlet_energy",
        "gradient_inner",
        "integrate",
        "project_zero_mean",
        "periodic_distance",
        "radial_average",
    ),
    "functional": ("J", "el_residual", "log_partition", "w_alpha"),
    "minimize": ("minimize", "continuation_sweep", "detect_concentration", "random_zero_mean", "center_bump"),
    "blowup": (
        "radial_integral",
        "mass_gamma",
        "pohozaev_residual",
        "newton_potential",
        "bubble_profile",
        "fit_li_slope",
        "fit_li_line",
        "rescale_profile",
    ),
    "cli": ("main",),
}

# Methods wrapped on their class: (module, class, method).
LAYER_METHODS = (
    ("torus", "Field", "__post_init__"),
    ("minimize", "_EnergyDelta", "__init__"),
    # one call per line-search trial; the only trial boundary visible from outside
    ("minimize", "_EnergyDelta", "__call__"),
)


def _fft_bytes(args, out) -> float:
    """Bytes a transform reads and writes, computed from array sizes."""
    return float(getattr(args[0], "nbytes", 0) + out.nbytes)


def _exp_elems(args, out) -> float:
    return float(getattr(out, "size", 1))


def _quad_neval(args, out) -> float:
    # the program asks for full_output, whose info dict carries neval
    if len(out) > 2 and isinstance(out[2], dict):
        return float(out[2].get("neval", 0))
    return 0.0


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack = [-1]
        self._plan_cache: list[tuple[object, str, object, object]] | None = None

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[name]

    def wrap(self, fn, name: str, layer: str, amount=None):
        nid = self._intern(name, layer)
        stack = self._stack
        clock = time.perf_counter
        name_id, parent, start, end, amt = self.name_id, self.parent, self.start, self.end, self.amount

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            amt.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if amount is not None:
                amt[sid] = amount(args, out)
            return out

        return wrapper

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every layer boundary, in
        every namespace that holds it."""
        import numpy

        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        plan = []
        wrappers: dict[int, object] = {}
        for layer, names in LAYER_FUNCTIONS.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                wrappers[id(fn)] = self.wrap(fn, f"{layer}.{fname}", layer)
        for ns in list(mods.values()) + [importlib.import_module(PACKAGE)]:
            for attr, value in vars(ns).items():
                if id(value) in wrappers:
                    plan.append((ns, attr, value, wrappers[id(value)]))
        for layer, cls_name, meth in LAYER_METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = getattr(cls, meth)
            plan.append((cls, meth, fn, self.wrap(fn, f"{layer}.{cls_name}.{meth}", layer)))
        for fname in ("fft2", "ifft2"):
            fn = getattr(numpy.fft, fname)
            plan.append((numpy.fft, fname, fn, self.wrap(fn, f"numpy.fft.{fname}", "torus.fft", _fft_bytes)))
        for fname in ("exp", "expm1"):
            fn = getattr(numpy, fname)
            plan.append((numpy, fname, fn, self.wrap(fn, f"numpy.{fname}", "functional.exp", _exp_elems)))
        blowup = mods["blowup"]
        plan.append((blowup, "quad", blowup.quad, self.wrap(blowup.quad, "scipy.integrate.quad", "blowup.quad", _quad_neval)))
        return plan

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        if self._plan_cache is None:
            self._plan_cache = self._plan()
        for owner, attr, _, wrapper in self._plan_cache:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._plan_cache):
                setattr(owner, attr, original)

    def aggregate(self, lo: int, hi: int) -> tuple[dict, dict]:
        """Per-name (calls, seconds, amount) and per-layer self seconds over
        the spans with index in [lo, hi), which must be whole subtrees."""
        by_name: dict[str, list[float]] = {}
        child = [0.0] * (hi - lo)
        for sid in range(lo, hi):
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
        self_s: dict[str, float] = {}
        for sid in range(lo, hi):
            nid = self.name_id[sid]
            dur = self.end[sid] - self.start[sid]
            rec = by_name.setdefault(self.names[nid], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur
            rec[2] += self.amount[sid]
            layer = self.layers[nid]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[sid - lo]
        return {k: tuple(v) for k, v in by_name.items()}, self_s

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent, name, layer, start, end, amount."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,layer,start_s,end_s,amount\n")
            for sid in range(len(self.start)):
                nid = self.name_id[sid]
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[nid]},{self.layers[nid]},"
                    f"{self.start[sid]!r},{self.end[sid]!r},{self.amount[sid]!r}\n"
                )
