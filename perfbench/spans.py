"""Per-layer spans recorded from outside the program.

The tracer replaces public names of the `cssp` modules at the places they
are looked up (for example `cssp.selector.char_poly`, which the selector
calls through its own module globals) with wrappers that record a span
per call.  Spans nest: a layer's self time is its span's duration minus
the time of the spans it caused.  A name that no longer exists after a
refactor is skipped and its layer reports zero calls.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute looked up there, layer the span is charged to)
SITES = (
    ("cssp.cli", "main", "cli.main"),
    ("cssp.cli", "load_matrix", "mmio.load_matrix"),
    ("cssp.cli", "select", "selector.select"),
    ("cssp.cli", "spectrum_of", "bounds.spectrum_of"),
    ("cssp.cli", "residual_bound", "bounds.residual_bound"),
    ("cssp.selector", "spectral_norm_sq", "linalg.spectral_norm_sq"),
    ("cssp.selector", "rank_tolerance", "linalg.rank_tolerance"),
    ("cssp.selector", "sym_eigenvalues", "linalg.sym_eigenvalues"),
    ("cssp.selector", "char_poly", "linalg.char_poly"),
    ("cssp.selector", "polar_power", "polynomial.polar_power"),
    ("cssp.selector", "maxroot", "polynomial.maxroot"),
    ("cssp.selector", "projector_update", "linalg.projector_update"),
    ("cssp.selector", "residual_spectral_sq", "linalg.residual_spectral_sq"),
    ("cssp.bounds", "sym_eigenvalues", "linalg.sym_eigenvalues"),
    ("cssp.linalg", "sym_eigenvalues", "linalg.sym_eigenvalues"),
)

PRUNED_LAYER = "polynomial.maxroot"  # returns None when abort_above prunes


def layer_names(sites=SITES) -> list[str]:
    return list(dict.fromkeys(layer for _, _, layer in sites))


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[list] = []  # [parent index or None, layer, start, end]
        self.pruned = 0
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            span = [self._open[-1] if self._open else None, layer, time.perf_counter(), None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if layer == PRUNED_LAYER and result is None:
                self.pruned += 1
            return result

        return traced

    def __enter__(self):
        for module_name, attr, layer in self.sites:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if callable(original):
                self._originals.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        return False

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per layer; absent layers read (0, 0.0)."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {layer: [0, 0.0] for layer in layer_names(self.sites)}
        for (_, layer, start, end), inner in zip(self.spans, child):
            totals[layer][0] += 1
            totals[layer][1] += end - start - inner
        return {layer: (calls, self_s) for layer, (calls, self_s) in totals.items()}
