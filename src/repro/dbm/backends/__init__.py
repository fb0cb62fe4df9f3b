"""Kernel backend registry: selection, fallback, and counters.

:class:`~repro.dbm.DBM`, :class:`~repro.dbm.Federation`, the semantics
and the game solvers ask :func:`active` for the current
:class:`~repro.dbm.backends.base.KernelBackend` on every hot-kernel
call.  Selection:

* ``REPRO_KERNEL_BACKEND=numpy|cext|auto`` picks the backend at first
  use (default ``auto``).
* ``auto`` probes ``cext`` → ``numpy`` and takes the first that loads,
  silently.  ``numpy`` is the pure-numpy reference every differential
  compares against.
* Naming an unavailable backend explicitly falls back to ``numpy`` with
  a one-time :class:`RuntimeWarning` and a ``dbm.backend_fallbacks``
  counter bump — a missing C compiler must never turn into a hard
  failure in a test campaign.

Every resolution bumps ``dbm.backend_selected_<name>`` and every
compiled call that demotes to the reference ``dbm.backend_demotions``
(see :class:`GuardedBackend`), so benchmark ``extra_info`` and fuzz
coverage signatures record which implementation actually ran.

This module imports no backend implementation at import time — backend
modules load lazily inside :func:`resolve`, which keeps
``repro.dbm.dbm`` ↔ ``repro.dbm.backends`` import-order safe and means
a broken optional toolchain costs nothing until someone asks for it.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator, List, Optional, Union

from ... import faults
from ...util import counters
from .base import KERNELS, BackendUnavailable, KernelBackend

__all__ = [
    "BackendUnavailable",
    "GuardedBackend",
    "KernelBackend",
    "active",
    "available_backends",
    "resolve",
    "set_backend",
    "use_backend",
]

ENV_VAR = "REPRO_KERNEL_BACKEND"

#: ``auto`` preference order: the compiled C kernels beat numpy.
AUTO_ORDER = ("cext", "numpy")

BACKEND_NAMES = ("numpy", "cext")

_active: Optional[KernelBackend] = None
_warned_fallback = False


class GuardedBackend:
    """A compiled backend with per-call demotion to the numpy reference.

    A ``.so`` that loads but faults at runtime — a cffi/ctypes dispatch
    error, a marshalling type error, or an injected
    ``dbm.<name>.compute`` fault — must cost one slow call, never the
    campaign.  Every kernel call is guarded: on any exception the call
    reruns on the pure-numpy reference with a ``dbm.backend_demotions``
    counter bump, and the caller never notices (the backends are
    byte-exact against the reference by contract).

    Soundness of replaying on the same buffers: catchable compiled-path
    failures happen during argument marshalling or FFI dispatch —
    *before* the C kernel writes — and injected faults fire at call
    entry, so the demoted call sees pristine inputs.  ``zone_close``
    writes its matrix only inside the C body; every other kernel never
    writes its input matrices at all, and takes its constraints as a
    sequence, a :class:`~repro.dbm.backends.base.MovePlan` or an
    :class:`~repro.dbm.backends.base.ExpansionTable`, which a replay
    reads again intact.  (A fault inside the C body itself is a
    segfault, which no guard can catch.)
    """

    def __init__(self, inner: KernelBackend):
        self._inner = inner
        self.name = inner.name
        self.compiled = inner.compiled
        self._site = f"dbm.{inner.name}.compute"
        self._reference: Optional[KernelBackend] = None
        for kernel in KERNELS:
            setattr(self, kernel, self._guarded(kernel))

    def _demote(self):
        counters.inc("dbm.backend_demotions")
        if self._reference is None:
            from .numpy_backend import NumpyBackend

            self._reference = NumpyBackend()
        return self._reference

    def _guarded(self, kernel: str):
        """``kernel`` of the compiled backend, rerun on the reference on
        any exception (bound once: this wraps every kernel call)."""
        compiled = getattr(self._inner, kernel)
        site = self._site
        fire = faults.fire

        def call(*args):
            try:
                fire(site)
                return compiled(*args)
            except Exception:
                return getattr(self._demote(), kernel)(*args)

        call.__name__ = kernel
        return call


def _load(name: str) -> KernelBackend:
    """Instantiate one backend by name; raises :class:`BackendUnavailable`.

    Compiled backends come wrapped in :class:`GuardedBackend`, so a
    runtime kernel fault demotes to the numpy reference instead of
    crashing whatever campaign or server session made the call.
    """
    if name == "numpy":
        from .numpy_backend import NumpyBackend

        return NumpyBackend()
    if name == "cext":
        from .cext import CExtBackend

        backend = CExtBackend()
        return GuardedBackend(backend) if backend.compiled else backend
    raise BackendUnavailable(
        f"unknown kernel backend {name!r} "
        f"(expected one of {', '.join(BACKEND_NAMES)}, or 'auto')"
    )


def resolve(spec: Optional[str]) -> KernelBackend:
    """Resolve a backend spec (``numpy|cext|auto``, default ``auto``).

    Explicit names fall back to numpy (warning + counter) when the
    backend cannot load; ``auto`` falls through its preference order
    silently — not having an optional accelerator is the expected state,
    not a misconfiguration.
    """
    global _warned_fallback
    spec = (spec or "auto").strip().lower()
    backend: Optional[KernelBackend] = None
    if spec == "auto":
        for name in AUTO_ORDER:
            try:
                backend = _load(name)
                break
            except BackendUnavailable:
                continue
    else:
        try:
            backend = _load(spec)
        except BackendUnavailable as exc:
            counters.inc("dbm.backend_fallbacks")
            if not _warned_fallback:
                _warned_fallback = True
                warnings.warn(
                    f"kernel backend {spec!r} unavailable, "
                    f"falling back to numpy: {exc}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            backend = _load("numpy")
    assert backend is not None  # numpy always loads
    counters.inc(f"dbm.backend_selected_{backend.name}")
    return backend


def active() -> KernelBackend:
    """The backend hot kernels dispatch to (resolved once, from the env)."""
    global _active
    if _active is None:
        _active = resolve(os.environ.get(ENV_VAR))
    return _active


def set_backend(
    spec: Union[KernelBackend, str, None]
) -> Optional[KernelBackend]:
    """Install a backend (instance or spec string) as the active one.

    ``None`` clears the cached selection so the next kernel call
    re-reads ``REPRO_KERNEL_BACKEND``.  Returns the installed backend
    (or None when clearing).
    """
    global _active
    if spec is None:
        _active = None
        return None
    _active = resolve(spec) if isinstance(spec, str) else spec
    return _active


@contextmanager
def use_backend(
    spec: Union[KernelBackend, str]
) -> Iterator[KernelBackend]:
    """Temporarily dispatch through the given backend (tests, differentials)."""
    global _active
    previous = _active
    installed = set_backend(spec)
    try:
        assert installed is not None
        yield installed
    finally:
        _active = previous


def available_backends() -> List[str]:
    """Names of the backends that actually load in this environment."""
    out = []
    for name in BACKEND_NAMES:
        try:
            _load(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return out
