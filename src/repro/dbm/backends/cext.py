"""C-extension kernel backend: system-compiler build, loaded via cffi or ctypes.

The hot kernels, stacked, per-zone and fused step, as ~430 lines of
portable C, compiled on first use with the host toolchain::

    cc -O2 -shared -fPIC

and cached as a shared object keyed by the SHA-256 of the source, under
``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro-kernels``), so the
build cost is paid once per source revision per machine.  The build is
atomic (temp file + rename), safe under concurrent workers.  No
compiler, a failed build, or a failed load all raise
:class:`BackendUnavailable`, which the registry turns into a numpy
fallback — this backend needs nothing installed beyond a C compiler.

Why a dlopen'd plain C library and not a real CPython extension module:
no build step at install time (the repo stays pure-python), no ABI
coupling to the running interpreter, and the per-call overhead is far
below the per-kernel python/numpy dispatch cost it replaces.  Calls go
through cffi in out-of-line ABI mode when cffi is importable (about 1µs
per call; the generated declarations module is cached next to the
shared object) and fall back to ctypes (~2x slower per call, still far
ahead of numpy) otherwise.

Exactness (see :mod:`repro.dbm.backends.base`): the C loops replicate
the reference kernels' update structure — same tighten/changed/close
sequencing, same in-place reset/shift ordering, same saturation of
drifted infinities back to ``INF`` — with one licensed deviation: rows
found inconsistent are abandoned at the first negative diagonal instead
of being dragged through the remaining steps, which the contract allows
because dead-row content is scratch.  The in-place Floyd-Warshall is
byte-identical to the reference's per-``via`` snapshot form on
consistent rows because the pivot row and column are fixed points of
their own iteration (the diagonal stays at ``LE_ZERO``, the additive
identity of the bound encoding).  The always-on ``kernel`` differential
check (:mod:`repro.gen.differential`) fuzzes this argument against the
numpy reference.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import (
    CHANGED,
    UNCHANGED,
    BackendUnavailable,
    MovePlan,
    marshal_clocks,
    marshal_constraints,
    marshal_pairs,
)

Constraint = Tuple[int, int, int]

_SOURCE = r"""
#include <stdint.h>

#define INF      ((int64_t)1 << 40)
#define INF_SOFT ((int64_t)1 << 39)
#define LE_ZERO  ((int64_t)1)

/* In-place Floyd-Warshall on one (dim, dim) matrix; 1 iff consistent.
 * Pivot row/column are fixed points of their own iteration (diagonal
 * stays LE_ZERO, the encoding's additive identity), so the in-place
 * update matches the reference per-via snapshot update on consistent
 * matrices; inconsistent ones are abandoned at the first negative
 * diagonal (their content is scratch by the backend contract). */
static int close_one(int64_t *m, int64_t dim)
{
    int64_t via, i, j;
    for (via = 0; via < dim; via++) {
        const int64_t *vrow = m + via * dim;
        for (i = 0; i < dim; i++) {
            int64_t *irow = m + i * dim;
            int64_t a = irow[via];
            if (a >= INF_SOFT)
                continue;
            for (j = 0; j < dim; j++) {
                int64_t b = vrow[j];
                int64_t cand;
                if (b >= INF_SOFT)
                    continue;
                cand = a + b - ((a | b) & 1);
                if (cand < irow[j])
                    irow[j] = cand;
            }
        }
        for (i = 0; i < dim; i++)
            if (m[i * dim + i] < LE_ZERO)
                return 0;
    }
    for (i = 0; i < dim * dim; i++)
        if (m[i] >= INF_SOFT)
            m[i] = INF;
    return 1;
}

static int incl(const int64_t *ma, const int64_t *mb, int64_t nn)
{
    int64_t t;
    for (t = 0; t < nn; t++)
        if (ma[t] < mb[t])
            return 0;
    return 1;
}

static int tighten_close(int64_t *m, const int64_t *cons, int64_t nc,
                         int64_t dim)
{
    int changed = 0;
    int64_t c;
    for (c = 0; c < nc; c++) {
        int64_t i = cons[c * 3], j = cons[c * 3 + 1], enc = cons[c * 3 + 2];
        if (m[i * dim + j] > enc) {
            m[i * dim + j] = enc;
            changed = 1;
        }
    }
    return changed ? close_one(m, dim) : 1;
}

static void reset_one(int64_t *m, const int64_t *resets, int64_t nr,
                      int64_t dim)
{
    int64_t c, i, j;
    for (c = 0; c < nr; c++) {
        int64_t x = resets[c];
        for (j = 0; j < dim; j++)
            m[x * dim + j] = m[j];
        for (i = 0; i < dim; i++)
            m[i * dim + x] = m[i * dim];
        m[x * dim + x] = LE_ZERO;
        m[x * dim] = LE_ZERO;
        m[x] = LE_ZERO;
    }
}

static void shift_one(int64_t *m, const int64_t *shifts, int64_t ns,
                      int64_t dim)
{
    int64_t c, i, j;
    for (c = 0; c < ns; c++) {
        int64_t x = shifts[c * 2], v = shifts[c * 2 + 1];
        int64_t up_enc = v * 2 + 1, dn_enc = (-v) * 2 + 1;
        for (j = 0; j < dim; j++) {
            int64_t a = m[x * dim + j];
            m[x * dim + j] =
                (a >= INF) ? INF : a + up_enc - ((a | up_enc) & 1);
        }
        for (i = 0; i < dim; i++) {
            int64_t a = m[i * dim + x];
            m[i * dim + x] =
                (a >= INF) ? INF : a + dn_enc - ((a | dn_enc) & 1);
        }
        m[x * dim + x] = LE_ZERO;
    }
}

void k_close(int64_t *stack, int64_t k, int64_t dim, uint8_t *ok)
{
    int64_t z, nn = dim * dim;
    for (z = 0; z < k; z++)
        ok[z] = (uint8_t)close_one(stack + z * nn, dim);
}

/* ExtraM widening of one matrix in place: 0 if nothing widened, 1 if
 * something widened and the reclosed zone is nonempty, 2 if it is empty.
 * Row 0 and the diagonal never widen upward; only row 0 is clamped from
 * below. */
static int extrapolate_one(int64_t *m, int64_t dim, const int64_t *caps)
{
    int64_t i, j;
    int changed = 0;
    for (i = 1; i < dim; i++) {
        int64_t cap = caps[i];
        for (j = 0; j < dim; j++) {
            int64_t v = m[i * dim + j];
            if (i != j && v < INF && (v >> 1) > cap) {
                m[i * dim + j] = INF;
                changed = 1;
            }
        }
    }
    for (j = 0; j < dim; j++) {
        int64_t v = m[j];
        if (v < INF && (v >> 1) < -caps[j]) {
            m[j] = (-caps[j]) * 2;
            changed = 1;
        }
    }
    if (!changed)
        return 0;
    return close_one(m, dim) ? 1 : 2;
}

void k_extrapolate(int64_t *stack, int64_t k, int64_t dim,
                   const int64_t *caps, uint8_t *ok)
{
    int64_t z, nn = dim * dim;
    for (z = 0; z < k; z++)
        ok[z] = (uint8_t)(extrapolate_one(stack + z * nn, dim, caps) != 2);
}

void k_inclusion(const int64_t *a, int64_t ka, const int64_t *b, int64_t kb,
                 int64_t dim, uint8_t *out)
{
    int64_t x, y, nn = dim * dim;
    for (x = 0; x < ka; x++)
        for (y = 0; y < kb; y++)
            out[x * kb + y] = (uint8_t)incl(a + x * nn, b + y * nn, nn);
}

void k_reduce(const int64_t *stack, int64_t k, int64_t dim, uint8_t *keep)
{
    int64_t x, y, nn = dim * dim;
    for (y = 0; y < k; y++) {
        keep[y] = 1;
        for (x = 0; x < k; x++) {
            if (x == y)
                continue;
            if (!incl(stack + x * nn, stack + y * nn, nn))
                continue;
            if (x < y || !incl(stack + y * nn, stack + x * nn, nn)) {
                keep[y] = 0;
                break;
            }
        }
    }
}

void k_subsume(const int64_t *nw, int64_t kn, const int64_t *seen,
               int64_t ks, int64_t dim, uint8_t *keep, uint8_t *drop)
{
    int64_t x, s, nn = dim * dim;
    k_reduce(nw, kn, dim, keep);
    for (x = 0; x < kn; x++) {
        if (!keep[x])
            continue;
        for (s = 0; s < ks; s++)
            if (incl(seen + s * nn, nw + x * nn, nn)) {
                keep[x] = 0;
                break;
            }
    }
    for (s = 0; s < ks; s++) {
        drop[s] = 0;
        for (x = 0; x < kn; x++)
            if (keep[x] && incl(nw + x * nn, seen + s * nn, nn)) {
                drop[s] = 1;
                break;
            }
    }
}

/* One discrete step and, with delay, its time closure, in place on one
 * canonical matrix: guard, resets, shifts, target invariant, then up and
 * the invariant again.  0 iff a constraint empties the zone (m is then
 * scratch).  The body of the stacked hidden-post kernels and of
 * k_zone_successor. */
static int step_one(int64_t *m, int64_t dim,
                    const int64_t *guard, int64_t ng,
                    const int64_t *resets, int64_t nr,
                    const int64_t *shifts, int64_t ns,
                    const int64_t *inv, int64_t ni, int64_t delay)
{
    int64_t i;
    if (ng && !tighten_close(m, guard, ng, dim))
        return 0;
    reset_one(m, resets, nr, dim);
    shift_one(m, shifts, ns, dim);
    if (ni && !tighten_close(m, inv, ni, dim))
        return 0;
    if (delay) {
        for (i = 1; i < dim; i++)
            m[i * dim] = INF;
        if (ni && !tighten_close(m, inv, ni, dim))
            return 0;
    }
    return 1;
}

void k_hidden_post(int64_t *stack, int64_t k, int64_t dim,
                   const int64_t *guard, int64_t ng,
                   const int64_t *resets, int64_t nr,
                   const int64_t *shifts, int64_t ns,
                   const int64_t *inv, int64_t ni,
                   int64_t delay, uint8_t *keep)
{
    int64_t z, nn = dim * dim;
    for (z = 0; z < k; z++)
        keep[z] = (uint8_t)step_one(stack + z * nn, dim, guard, ng, resets,
                                    nr, shifts, ns, inv, ni, delay);
}

int64_t k_any_hidden_post(int64_t *stack, int64_t k, int64_t dim,
                          const int64_t *guard, int64_t ng,
                          const int64_t *resets, int64_t nr,
                          const int64_t *shifts, int64_t ns,
                          const int64_t *inv, int64_t ni)
{
    int64_t z, nn = dim * dim;
    for (z = 0; z < k; z++)
        if (step_one(stack + z * nn, dim, guard, ng, resets, nr, shifts, ns,
                     inv, ni, 0))
            return 1;
    return 0;
}
/* ---- Per-zone kernels: 0 unchanged, 1 changed (dst holds the closed
 * result), 2 empty.  src is a canonical nonempty matrix, never written. */

/* Incremental reclosure after m[i][j] was tightened to enc: every
 * shortest path may now route p -> i -> j -> q.  Column i and row j are
 * snapshotted first, sums drift past INF unmasked, and one clamp of
 * everything >= INF_SOFT ends it: the numpy reference, step for step. */
static void reclose_through(int64_t *m, int64_t dim, int64_t i, int64_t j,
                            int64_t enc)
{
    int64_t t[dim], row[dim];
    int64_t p, q;
    for (p = 0; p < dim; p++) {
        int64_t a = m[p * dim + i];
        t[p] = a + enc - ((a | enc) & 1);
        row[p] = m[j * dim + p];
    }
    for (p = 0; p < dim; p++) {
        int64_t *prow = m + p * dim;
        int64_t a = t[p];
        for (q = 0; q < dim; q++) {
            int64_t cand = a + row[q] - ((a | row[q]) & 1);
            if (cand < prow[q])
                prow[q] = cand;
        }
    }
    for (p = 0; p < dim * dim; p++)
        if (m[p] >= INF_SOFT)
            m[p] = INF;
}

/* Tighten by each (i, j, enc) in turn, with the early emptiness test
 * m[j][i] + enc < LE_ZERO; dst is written only once something tightens.
 * -1 on an out-of-range clock index (the caller demotes to numpy). */
int64_t k_zone_constrain(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *cons, int64_t nc)
{
    const int64_t *cur = src;
    int64_t c, t;
    for (c = 0; c < nc; c++) {
        int64_t i = cons[c * 3], j = cons[c * 3 + 1], enc = cons[c * 3 + 2];
        int64_t back;
        if (i < 0 || i >= dim || j < 0 || j >= dim)
            return -1;
        if (enc >= cur[i * dim + j])
            continue;
        back = cur[j * dim + i];
        if (back < INF && back + enc - ((back | enc) & 1) < LE_ZERO)
            return 2;
        if (cur == src) {
            for (t = 0; t < dim * dim; t++)
                dst[t] = src[t];
            cur = dst;
        }
        dst[i * dim + j] = enc;
        reclose_through(dst, dim, i, j, enc);
    }
    return cur == dst;
}

int64_t k_zone_extrapolate(const int64_t *src, int64_t *dst, int64_t dim,
                           const int64_t *caps)
{
    int64_t t;
    for (t = 0; t < dim * dim; t++)
        dst[t] = src[t];
    return extrapolate_one(dst, dim, caps);
}

/* ---- Fused step kernels over a move plan (MovePlan.flat): the counts
 * [ng, nr, ns, ni, delay, ncaps], then guard triples, reset clocks,
 * shift pairs, invariant triples and caps.  1 nonempty (dst holds the
 * canonical result), 0 empty, -1 a plan that does not fit dim (the
 * caller demotes to numpy).  The input matrices are never written. */

typedef struct {
    const int64_t *guard, *resets, *shifts, *inv, *caps;
    int64_t ng, nr, ns, ni, delay, ncaps;
} plan_t;

static int in_dim(const int64_t *v, int64_t n, int64_t stride, int64_t w,
                  int64_t dim)
{
    int64_t c, t;
    for (c = 0; c < n; c++)
        for (t = 0; t < w; t++)
            if (v[c * stride + t] < 0 || v[c * stride + t] >= dim)
                return 0;
    return 1;
}

static int parse_plan(const int64_t *flat, int64_t dim, plan_t *p)
{
    p->ng = flat[0];
    p->nr = flat[1];
    p->ns = flat[2];
    p->ni = flat[3];
    p->delay = flat[4];
    p->ncaps = flat[5];
    p->guard = flat + 6;
    p->resets = p->guard + 3 * p->ng;
    p->shifts = p->resets + p->nr;
    p->inv = p->shifts + 2 * p->ns;
    p->caps = p->inv + 3 * p->ni;
    return p->ng >= 0 && p->nr >= 0 && p->ns >= 0 && p->ni >= 0
        && (p->ncaps == 0 || p->ncaps == dim)
        && in_dim(p->guard, p->ng, 3, 2, dim)
        && in_dim(p->resets, p->nr, 1, 1, dim)
        && in_dim(p->shifts, p->ns, 2, 1, dim)
        && in_dim(p->inv, p->ni, 3, 2, dim);
}

int64_t k_zone_successor(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *flat)
{
    plan_t p;
    int64_t t;
    if (!parse_plan(flat, dim, &p))
        return -1;
    for (t = 0; t < dim * dim; t++)
        dst[t] = src[t];
    if (!step_one(dst, dim, p.guard, p.ng, p.resets, p.nr, p.shifts, p.ns,
                  p.inv, p.ni, p.delay))
        return 0;
    if (p.ncaps && extrapolate_one(dst, dim, p.caps) == 2)
        return 0;
    return 1;
}

/* Pre-image of one target zone: fix every assigned clock to its value
 * (0 for a reset, the shift's value otherwise), free it, apply the guard,
 * intersect with the source zone.  2 when that pre-image includes the
 * whole source zone (the answer is src itself; dst is scratch). */
int64_t k_zone_pred(const int64_t *tgt, int64_t *dst, const int64_t *src,
                    int64_t dim, const int64_t *flat)
{
    plan_t p;
    int64_t r, s, t, i, j;
    int changed = 0;
    if (!parse_plan(flat, dim, &p))
        return -1;
    for (t = 0; t < dim * dim; t++)
        dst[t] = tgt[t];
    for (r = 0; r < p.nr; r++) {
        int64_t x = p.resets[r], c = 0;
        for (s = 0; s < p.ns; s++)
            if (p.shifts[s * 2] == x)
                c = p.shifts[s * 2 + 1];
        if (dst[x * dim] > c * 2 + 1) {
            dst[x * dim] = c * 2 + 1;
            changed = 1;
        }
        if (dst[x] > (-c) * 2 + 1) {
            dst[x] = (-c) * 2 + 1;
            changed = 1;
        }
    }
    if (changed && !close_one(dst, dim))
        return 0;
    for (r = 0; r < p.nr; r++) {
        int64_t x = p.resets[r];
        for (j = 0; j < dim; j++)
            dst[x * dim + j] = INF;
        for (i = 0; i < dim; i++)
            dst[i * dim + x] = dst[i * dim];
        dst[x * dim + x] = LE_ZERO;
        dst[x] = LE_ZERO;
    }
    if (p.ng && !tighten_close(dst, p.guard, p.ng, dim))
        return 0;
    changed = 0;
    for (t = 0; t < dim * dim; t++)
        if (src[t] < dst[t]) {
            dst[t] = src[t];
            changed |= 1;
        } else if (src[t] > dst[t]) {
            changed |= 2;
        }
    if (!(changed & 2))
        return 2;
    return (changed & 1) ? close_one(dst, dim) : 1;
}
"""

_DECLS = """
void k_close(int64_t *stack, int64_t k, int64_t dim, uint8_t *ok);
void k_extrapolate(int64_t *stack, int64_t k, int64_t dim,
                   const int64_t *caps, uint8_t *ok);
void k_inclusion(const int64_t *a, int64_t ka, const int64_t *b, int64_t kb,
                 int64_t dim, uint8_t *out);
void k_reduce(const int64_t *stack, int64_t k, int64_t dim, uint8_t *keep);
void k_subsume(const int64_t *nw, int64_t kn, const int64_t *seen,
               int64_t ks, int64_t dim, uint8_t *keep, uint8_t *drop);
void k_hidden_post(int64_t *stack, int64_t k, int64_t dim,
                   const int64_t *guard, int64_t ng,
                   const int64_t *resets, int64_t nr,
                   const int64_t *shifts, int64_t ns,
                   const int64_t *inv, int64_t ni,
                   int64_t delay, uint8_t *keep);
int64_t k_any_hidden_post(int64_t *stack, int64_t k, int64_t dim,
                          const int64_t *guard, int64_t ng,
                          const int64_t *resets, int64_t nr,
                          const int64_t *shifts, int64_t ns,
                          const int64_t *inv, int64_t ni);
int64_t k_zone_constrain(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *cons, int64_t nc);
int64_t k_zone_extrapolate(const int64_t *src, int64_t *dst, int64_t dim,
                           const int64_t *caps);
int64_t k_zone_successor(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *flat);
int64_t k_zone_pred(const int64_t *tgt, int64_t *dst, const int64_t *src,
                    int64_t dim, const int64_t *flat);
"""

_BINDING = None


_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: Every exported kernel: ``name -> (ctypes restype, ctypes argtypes)``.
_SIGNATURES = {
    "k_close": (None, [_PTR, _I64, _I64, _PTR]),
    "k_extrapolate": (None, [_PTR, _I64, _I64, _PTR, _PTR]),
    "k_inclusion": (None, [_PTR, _I64, _PTR, _I64, _I64, _PTR]),
    "k_reduce": (None, [_PTR, _I64, _I64, _PTR]),
    "k_subsume": (None, [_PTR, _I64, _PTR, _I64, _I64, _PTR, _PTR]),
    "k_hidden_post": (
        None,
        [_PTR, _I64, _I64, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR,
         _I64, _I64, _PTR],
    ),
    "k_any_hidden_post": (
        _I64,
        [_PTR, _I64, _I64, _PTR, _I64, _PTR, _I64, _PTR, _I64, _PTR,
         _I64],
    ),
    "k_zone_constrain": (_I64, [_PTR, _PTR, _I64, _PTR, _I64]),
    "k_zone_extrapolate": (_I64, [_PTR, _PTR, _I64, _PTR]),
    "k_zone_successor": (_I64, [_PTR, _PTR, _I64, _PTR]),
    "k_zone_pred": (_I64, [_PTR, _PTR, _PTR, _I64, _PTR]),
}


class _CffiBinding:
    """cffi ABI-mode binding: the fast per-call path (~1µs call)."""

    kind = "cffi"

    def __init__(self, path: str) -> None:
        import _cffi_backend

        ffi = _ffi_module(path).ffi
        lib = ffi.dlopen(path)
        # Kernels bound as plain attributes: a lookup through the lib
        # object per call costs more than a per-zone kernel's arithmetic.
        for fn_name in _SIGNATURES:
            setattr(self, fn_name, getattr(lib, fn_name))
        self._lib = lib  # the library stays loaded while this object lives
        # The backend's from_buffer with pre-parsed types: half the cost
        # of ``ffi.from_buffer``, which re-looks-up the type per call.
        from_buffer = _cffi_backend.from_buffer
        i64, u8 = ffi.typeof("int64_t[]"), ffi.typeof("uint8_t[]")
        self._i64 = lambda arr: from_buffer(i64, arr, False)
        self._u8 = lambda arr: from_buffer(u8, arr, False)
        # cffi converts a list of ints passed as ``int64_t *`` itself.
        self._ints = lambda values: values


class _CtypesBinding:
    """ctypes fallback binding (stdlib-only; ~2x the per-call cost)."""

    kind = "ctypes"

    def __init__(self, path: str) -> None:
        lib = ctypes.CDLL(path)
        for fn_name, (restype, argtypes) in _SIGNATURES.items():
            fn = getattr(lib, fn_name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, fn_name, fn)
        self._lib = lib
        self._i64 = lambda arr: arr.ctypes.data
        self._u8 = lambda arr: arr.ctypes.data
        self._ints = lambda values: (ctypes.c_int64 * len(values))(*values)


def cache_dir() -> str:
    return os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-kernels"
    )


def _build_library() -> str:
    """Compile (or reuse) the kernel shared object; returns its path."""
    digest = hashlib.sha256((_SOURCE + _DECLS).encode()).hexdigest()[:16]
    so_path = os.path.join(cache_dir(), f"repro_kernels_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if not cc:
        raise BackendUnavailable("no C compiler (cc/gcc) on PATH")
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        with tempfile.TemporaryDirectory(dir=cache_dir()) as tmp:
            c_path = os.path.join(tmp, "kernels.c")
            with open(c_path, "w") as fh:
                fh.write(_SOURCE)
            tmp_so = os.path.join(tmp, "kernels.so")
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", tmp_so, c_path],
                capture_output=True,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise BackendUnavailable(
                    f"C kernel build failed: {proc.stderr.strip()[:500]}"
                )
            os.replace(tmp_so, so_path)
    except BackendUnavailable:
        raise
    except Exception as exc:
        raise BackendUnavailable(f"C kernel build failed: {exc}") from exc
    return so_path


def _ffi_module(so_path: str):
    """cffi's out-of-line ABI module for :data:`_DECLS`.

    Generated next to the shared object on first use, which needs cffi's
    C parser, and imported from there on every later load, which does
    not: parsing the declarations would cost each process tens of ms.
    """
    py_path = so_path[: -len(".so")] + "_ffi.py"
    name = os.path.basename(py_path)[: -len(".py")]
    if not os.path.exists(py_path):
        import cffi

        builder = cffi.FFI()
        builder.cdef(_DECLS)
        builder.set_source(name, None, compiler_verbose=False)
        tmp_path = f"{py_path}.{os.getpid()}.tmp"
        builder.emit_python_code(tmp_path)
        os.replace(tmp_path, py_path)
    spec = importlib.util.spec_from_file_location(name, py_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library():
    """The loaded kernel binding (cffi preferred, ctypes fallback)."""
    global _BINDING
    if _BINDING is None:
        path = _build_library()
        try:
            try:
                _BINDING = _CffiBinding(path)
            except (ImportError, OSError):  # no cffi, or its module failed
                _BINDING = _CtypesBinding(path)
        except OSError as exc:
            raise BackendUnavailable(
                f"cannot load kernel library {path}: {exc}"
            ) from exc
    return _BINDING


def _inplace_i64(stack: np.ndarray):
    """A C-contiguous int64 buffer for ``stack``, plus a write-back flag.

    Dispatch-path stacks are contiguous already (``np.stack``, boolean
    fancy-indexing, leading-axis slices all yield contiguous arrays), so
    the copy branch is a correctness net for exotic callers, not a cost
    on the hot path.
    """
    buf = np.ascontiguousarray(stack, dtype=np.int64)
    return buf, buf is not stack


def _ro_i64(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


class CExtBackend:
    name = "cext"
    compiled = True
    counter = "dbm.backend_cext"

    def __init__(self) -> None:
        self._b = _library()
        #: Which FFI layer calls go through ("cffi" or "ctypes").
        self.binding = self._b.kind
        #: ``tuple(max_consts)`` -> the int64 caps vector of
        #: :meth:`zone_extrapolate` (a run extrapolates against a few).
        self._caps = {}

    def zone_close(self, m: np.ndarray) -> bool:
        return bool(self.close(m[None])[0])

    def zone_constrain(
        self, m: np.ndarray, constraints: Sequence[Constraint]
    ) -> Tuple[int, Optional[np.ndarray]]:
        flat = [v for c in constraints for v in c]
        if len(flat) != 3 * len(constraints):
            raise ValueError(f"not (i, j, enc) triples: {constraints}")
        if not flat:
            return UNCHANGED, None
        b = self._b
        src = _ro_i64(m)
        dst = np.empty(src.shape, dtype=np.int64)
        status = b.k_zone_constrain(
            b._i64(src), b._i64(dst), src.shape[0], b._ints(flat),
            len(flat) // 3,
        )
        if status < 0:
            raise IndexError(f"constraint clock out of range: {constraints}")
        return status, (dst if status == CHANGED else None)

    def zone_extrapolate(
        self, m: np.ndarray, max_consts: Sequence[int]
    ) -> Tuple[int, Optional[np.ndarray]]:
        key = tuple(max_consts)
        caps = self._caps.get(key)
        if caps is None:
            caps = np.asarray(key, dtype=np.int64)
            caps[0] = 0  # row 0 is never clamped at (0, 0)
            self._caps[key] = caps
        b = self._b
        src = _ro_i64(m)
        if caps.shape[0] != src.shape[0]:
            raise ValueError(f"{len(key)} caps for a {src.shape[0]}-dim zone")
        dst = np.empty(src.shape, dtype=np.int64)
        status = b.k_zone_extrapolate(
            b._i64(src), b._i64(dst), src.shape[0], b._i64(caps)
        )
        return status, (dst if status == CHANGED else None)

    def _plan_ptr(self, plan: MovePlan):
        """The FFI handle on ``plan.flat``, made once per plan and binding."""
        native = plan.native
        if native is None or native[0] is not self._b:
            native = plan.native = (self._b, self._b._i64(plan.flat))
        return native[1]

    def zone_successor(
        self, m: np.ndarray, plan: MovePlan
    ) -> Optional[np.ndarray]:
        b = self._b
        src = _ro_i64(m)
        dst = np.empty(src.shape, dtype=np.int64)
        status = b.k_zone_successor(
            b._i64(src), b._i64(dst), src.shape[0], self._plan_ptr(plan)
        )
        if status < 0:
            raise IndexError(f"plan does not fit a {src.shape[0]}-dim zone")
        return dst if status else None

    def zone_pred(
        self, m: np.ndarray, plan: MovePlan, source: np.ndarray
    ) -> Optional[np.ndarray]:
        b = self._b
        tgt = _ro_i64(m)
        src = _ro_i64(source)
        if src.shape != tgt.shape:
            raise ValueError(f"source {src.shape} vs target {tgt.shape}")
        dst = np.empty(tgt.shape, dtype=np.int64)
        status = b.k_zone_pred(
            b._i64(tgt), b._i64(dst), b._i64(src), tgt.shape[0],
            self._plan_ptr(plan),
        )
        if status < 0:
            raise IndexError(f"plan does not fit a {tgt.shape[0]}-dim zone")
        if status == 2:
            return source
        return dst if status else None

    def close(self, stack: np.ndarray) -> np.ndarray:
        b = self._b
        buf, copied = _inplace_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        ok = np.empty(k, dtype=np.uint8)
        b.k_close(b._i64(buf), k, dim, b._u8(ok))
        if copied:
            stack[...] = buf
        return ok.view(np.bool_)

    def extrapolate(self, stack: np.ndarray, caps: np.ndarray) -> np.ndarray:
        b = self._b
        buf, copied = _inplace_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        caps = _ro_i64(caps)
        ok = np.empty(k, dtype=np.uint8)
        b.k_extrapolate(b._i64(buf), k, dim, b._i64(caps), b._u8(ok))
        if copied:
            stack[...] = buf
        return ok.view(np.bool_)

    def inclusion_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lib = self._b
        a = _ro_i64(a)
        b = _ro_i64(b)
        ka, kb, dim = a.shape[0], b.shape[0], a.shape[-1]
        out = np.empty((ka, kb), dtype=np.uint8)
        lib.k_inclusion(
            lib._i64(a), ka, lib._i64(b), kb, dim, lib._u8(out)
        )
        return out.view(np.bool_)

    def reduce_indices(self, stack: np.ndarray) -> List[int]:
        b = self._b
        buf = _ro_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        keep = np.empty(k, dtype=np.uint8)
        b.k_reduce(b._i64(buf), k, dim, b._u8(keep))
        return [int(i) for i in np.flatnonzero(keep)]

    def subsume_frontier(
        self, new: np.ndarray, seen: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        b = self._b
        nw = _ro_i64(new)
        kn, dim = nw.shape[0], nw.shape[-1]
        if seen is None or not seen.shape[0]:
            sn = np.empty((0, dim, dim), dtype=np.int64)
        else:
            sn = _ro_i64(seen)
        ks = sn.shape[0]
        keep = np.empty(kn, dtype=np.uint8)
        drop = np.empty(ks, dtype=np.uint8)
        b.k_subsume(
            b._i64(nw), kn, b._i64(sn), ks, dim, b._u8(keep), b._u8(drop)
        )
        return keep.view(np.bool_), drop.view(np.bool_)

    def hidden_post_step(
        self,
        stack: np.ndarray,
        guard: Sequence[Constraint],
        resets: Sequence[int],
        shifts: Sequence[Tuple[int, int]],
        invariant: Sequence[Constraint],
        delay: bool,
    ) -> np.ndarray:
        b = self._b
        buf, copied = _inplace_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        g = marshal_constraints(guard)
        r = marshal_clocks(resets)
        s = marshal_pairs(shifts)
        inv = marshal_constraints(invariant)
        keep = np.empty(k, dtype=np.uint8)
        b.k_hidden_post(
            b._i64(buf), k, dim,
            b._i64(g), g.shape[0],
            b._i64(r), r.shape[0],
            b._i64(s), s.shape[0],
            b._i64(inv), inv.shape[0],
            1 if delay else 0,
            b._u8(keep),
        )
        if copied:
            stack[...] = buf
        return keep.view(np.bool_)

    def any_hidden_post(
        self,
        stack: np.ndarray,
        guard: Sequence[Constraint],
        resets: Sequence[int],
        shifts: Sequence[Tuple[int, int]],
        invariant: Sequence[Constraint],
    ) -> bool:
        b = self._b
        buf, _ = _inplace_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        g = marshal_constraints(guard)
        r = marshal_clocks(resets)
        s = marshal_pairs(shifts)
        inv = marshal_constraints(invariant)
        return bool(
            b.k_any_hidden_post(
                b._i64(buf), k, dim,
                b._i64(g), g.shape[0],
                b._i64(r), r.shape[0],
                b._i64(s), s.shape[0],
                b._i64(inv), inv.shape[0],
            )
        )
