"""C-extension kernel backend: system-compiler build, loaded via cffi or ctypes.

The hot kernels, stacked, per-zone, fused step, federation and graph-node,
as ~1,020 lines of portable C, compiled on first use with the host
toolchain::

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
identity of the bound encoding).  The federation kernels follow the
reference's algorithms step for step (split order, reductions, zone
order) on heap-grown zone lists; an allocation failure returns -1, which
the wrapper turns into an exception, and so a demotion.  The graph-node
kernels loop these bodies: ``k_zone_expand`` runs ``k_zone_successor``
per move of a table and ``k_node_equation`` builds a node's edge terms
with ``k_zone_pred`` and the federation helpers, then runs the body it
shares with ``k_fixpoint_body``.  The always-on
``kernel`` differential check (:mod:`repro.gen.differential`) fuzzes
this argument against the numpy reference.
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
    ExpansionTable,
    MovePlan,
)

Constraint = Tuple[int, int, int]

_NO_ROWS = {}


def _no_rows(dim: int) -> np.ndarray:
    """The empty ``(0, dim, dim)`` stack, one read-only array per dim."""
    rows = _NO_ROWS.get(dim)
    if rows is None:
        rows = _NO_ROWS[dim] = np.empty((0, dim, dim), dtype=np.int64)
        rows.setflags(write=False)
    return rows

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* One discrete step and, with delay, its time closure, in place on one
 * canonical matrix: guard, resets, shifts, target invariant, then up and
 * the invariant again.  0 iff a constraint empties the zone (m is then
 * scratch).  The body of k_zone_successor. */
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

/* ---- Federation kernels: the solver's federation algebra over lists of
 * canonical matrices, step for step the numpy reference's: the same
 * split order in subtraction, the same reductions, the same zone order.
 * Lists live on the heap; -1 reports an allocation failure (the caller
 * demotes to numpy).  The input matrices are never written. */

typedef struct {
    int64_t *m;
    int64_t k, cap, nn;
} fed_t;

static void fed_init(fed_t *f, int64_t nn)
{
    f->m = 0;
    f->k = 0;
    f->cap = 0;
    f->nn = nn;
}

static void fed_free(fed_t *f)
{
    free(f->m);
    fed_init(f, f->nn);
}

/* Room for one more zone at the end of the list; 0 when out of memory. */
static int64_t *fed_slot(fed_t *f)
{
    if (f->k == f->cap) {
        int64_t cap = f->cap ? 2 * f->cap : 4;
        int64_t *m = realloc(f->m, (size_t)(cap * f->nn) * sizeof(int64_t));
        if (!m)
            return 0;
        f->m = m;
        f->cap = cap;
    }
    return f->m + f->nn * f->k++;
}

/* Append k zones. */
static int fed_add(fed_t *f, const int64_t *zs, int64_t k)
{
    int64_t x;
    for (x = 0; x < k; x++) {
        int64_t *slot = fed_slot(f);
        if (!slot)
            return -1;
        memcpy(slot, zs + x * f->nn, (size_t)f->nn * sizeof(int64_t));
    }
    return 0;
}

/* Subsumption reduction in place, in order: k_reduce's rule. */
static int fed_reduce(fed_t *f, int64_t dim)
{
    uint8_t *keep;
    int64_t x, w = 0;
    if (f->k < 2)
        return 0;
    keep = malloc((size_t)f->k);
    if (!keep)
        return -1;
    k_reduce(f->m, f->k, dim, keep);
    for (x = 0; x < f->k; x++)
        if (keep[x]) {
            if (w != x)
                memcpy(f->m + w * f->nn, f->m + x * f->nn,
                       (size_t)f->nn * sizeof(int64_t));
            w++;
        }
    f->k = w;
    free(keep);
    return 0;
}

/* f := f union zs: no reduction when either side is empty. */
static int fed_union(fed_t *f, const int64_t *zs, int64_t k, int64_t dim)
{
    int was_empty = f->k == 0;
    if (!k)
        return 0;
    if (fed_add(f, zs, k) < 0)
        return -1;
    return was_empty ? 0 : fed_reduce(f, dim);
}

static int disjoint(const int64_t *a, const int64_t *b, int64_t dim)
{
    int64_t i, j;
    for (i = 0; i < dim; i++)
        for (j = 0; j < dim; j++) {
            int64_t x = a[i * dim + j], y = b[j * dim + i];
            if (x < INF && y < INF && x + y - ((x | y) & 1) < LE_ZERO)
                return 1;
        }
    return 0;
}

/* k_zone_constrain for one constraint, in place: 0 unchanged, 1 changed,
 * 2 empty (m untouched). */
static int tighten1(int64_t *m, int64_t dim, int64_t i, int64_t j,
                    int64_t enc)
{
    int64_t back = m[j * dim + i];
    if (enc >= m[i * dim + j])
        return 0;
    if (back < INF && back + enc - ((back | enc) & 1) < LE_ZERO)
        return 2;
    m[i * dim + j] = enc;
    reclose_through(m, dim, i, j, enc);
    return 1;
}

/* a \ b: 0 when a survives whole (nothing appended), else 1 with the
 * pieces appended to out.  Splits the remainder of a on each finite
 * constraint of b in row-major order, skipping the x >= 0 bounds; rem is
 * dim*dim scratch. */
static int split(const int64_t *a, const int64_t *b, int64_t dim, fed_t *out,
                 int64_t *rem)
{
    int64_t i, j, nn = dim * dim;
    if (incl(b, a, nn))
        return 1;
    if (disjoint(a, b, dim))
        return 0;
    memcpy(rem, a, (size_t)nn * sizeof(int64_t));
    for (i = 0; i < dim; i++)
        for (j = 0; j < dim; j++) {
            int64_t enc = b[i * dim + j], neg, *piece;
            if (i == j || enc >= INF || (i == 0 && enc == LE_ZERO))
                continue;
            neg = -(enc >> 1) * 2 + (1 - (enc & 1));
            piece = fed_slot(out);
            if (!piece)
                return -1;
            memcpy(piece, rem, (size_t)nn * sizeof(int64_t));
            if (tighten1(piece, dim, j, i, neg) == 2)
                out->k--;
            if (tighten1(rem, dim, i, j, enc) == 2)
                return 1;
        }
    return 1;
}

/* f := f \ zs[0..kb), one subtrahend at a time, reducing after each one
 * that removed something: 1 if anything was removed, else 0. */
static int fed_sub(fed_t *f, const int64_t *zs, int64_t kb, int64_t dim,
                   int64_t *rem)
{
    int64_t x, y, nn = dim * dim;
    int changed = 0;
    for (y = 0; y < kb && f->k; y++) {
        fed_t nxt;
        int touched = 0;
        fed_init(&nxt, nn);
        for (x = 0; x < f->k; x++) {
            const int64_t *a = f->m + x * nn;
            int r = split(a, zs + y * nn, dim, &nxt, rem);
            if (r == 0)
                r = fed_add(&nxt, a, 1);
            else if (r == 1)
                touched = 1;
            if (r < 0) {
                fed_free(&nxt);
                return -1;
            }
        }
        if (!touched) {
            fed_free(&nxt);
            continue;
        }
        if (fed_reduce(&nxt, dim) < 0) {
            fed_free(&nxt);
            return -1;
        }
        fed_free(f);
        *f = nxt;
        changed = 1;
    }
    return changed;
}

static void down_one(int64_t *m, int64_t dim)
{
    int64_t j;
    for (j = 1; j < dim; j++)
        m[j] = LE_ZERO;
    close_one(m, dim);
}

/* Append a ∩ b to out unless it is empty. */
static int meet_into(fed_t *out, const int64_t *a, const int64_t *b,
                     int64_t dim)
{
    int64_t t, *slot = fed_slot(out);
    if (!slot)
        return -1;
    for (t = 0; t < dim * dim; t++)
        slot[t] = a[t] < b[t] ? a[t] : b[t];
    if (!close_one(slot, dim))
        out->k--;
    return 0;
}

/* Predt(goal, bad) into res, which must be empty: the goal's past minus
 * each bad zone's past, plus the part of the goal inside a bad zone's past
 * that delays into it avoiding the bad zone (its strict future when
 * lenient), plus with lenient the goal itself; the results for the bad
 * zones intersected.  scr is 3*dim*dim scratch. */
static int predt_into(fed_t *res, const int64_t *goal, int64_t kg,
                      const int64_t *bad, int64_t kb, int lenient,
                      int64_t dim, int64_t *scr)
{
    int64_t nn = dim * dim, x, y, z;
    int64_t *rem = scr, *bdown = scr + nn, *blocker = scr + 2 * nn;
    fed_t gd, acc, over, met;
    int first = 1;
    if (!kg)
        return 0;
    fed_init(&gd, nn);
    fed_init(&acc, nn);
    fed_init(&over, nn);
    fed_init(&met, nn);
    if (fed_add(&gd, goal, kg) < 0)
        goto fail;
    for (x = 0; x < gd.k; x++)
        down_one(gd.m + x * nn, dim);
    if (fed_reduce(&gd, dim) < 0)
        goto fail;
    if (!kb) {
        *res = gd;
        return 0;
    }
    for (y = 0; y < kb; y++) {
        const int64_t *b = bad + y * nn;
        memcpy(bdown, b, (size_t)nn * sizeof(int64_t));
        down_one(bdown, dim);
        if (fed_add(&acc, gd.m, gd.k) < 0
            || fed_sub(&acc, bdown, 1, dim, rem) < 0)
            goto fail;
        for (x = 0; x < kg; x++)
            if (meet_into(&over, goal + x * nn, bdown, dim) < 0)
                goto fail;
        if (fed_reduce(&over, dim) < 0)
            goto fail;
        if (over.k) {
            const int64_t *blk = b;
            if (lenient) {
                memcpy(blocker, b, (size_t)nn * sizeof(int64_t));
                for (z = 1; z < dim; z++) {
                    blocker[z * dim] = INF;
                    if (blocker[z] < INF)
                        blocker[z] &= ~(int64_t)1;
                }
                blk = blocker;
            }
            if (fed_sub(&over, blk, 1, dim, rem) < 0)
                goto fail;
            for (x = 0; x < over.k; x++)
                down_one(over.m + x * nn, dim);
            if (fed_reduce(&over, dim) < 0
                || fed_union(&acc, over.m, over.k, dim) < 0)
                goto fail;
        }
        fed_free(&over);
        if (lenient && fed_union(&acc, goal, kg, dim) < 0)
            goto fail;
        if (!first) {
            for (x = 0; x < res->k; x++)
                for (z = 0; z < acc.k; z++)
                    if (meet_into(&met, res->m + x * nn, acc.m + z * nn,
                                  dim) < 0)
                        goto fail;
            if (fed_reduce(&met, dim) < 0)
                goto fail;
            fed_free(&acc);
            acc = met;
            fed_init(&met, nn);
        }
        fed_free(res);
        *res = acc;
        fed_init(&acc, nn);
        first = 0;
        if (!res->k)
            break;
    }
    fed_free(&gd);
    return 0;
fail:
    fed_free(&gd);
    fed_free(&acc);
    fed_free(&over);
    fed_free(&met);
    return -1;
}

/* 1 iff z is inside the union of f's zones other than number skip. */
static int covered(const int64_t *z, const fed_t *f, int64_t skip,
                   int64_t dim, int64_t *rem)
{
    int64_t x, p, nn = dim * dim;
    int inside;
    fed_t left, nxt;
    fed_init(&left, nn);
    if (fed_add(&left, z, 1) < 0)
        return -1;
    for (x = 0; x < f->k; x++) {
        if (x == skip)
            continue;
        fed_init(&nxt, nn);
        for (p = 0; p < left.k; p++) {
            const int64_t *piece = left.m + p * nn;
            int r = split(piece, f->m + x * nn, dim, &nxt, rem);
            if (r == 0)
                r = fed_add(&nxt, piece, 1);
            if (r < 0) {
                fed_free(&nxt);
                fed_free(&left);
                return -1;
            }
        }
        fed_free(&left);
        left = nxt;
        if (!left.k)
            break;
    }
    inside = left.k == 0;
    fed_free(&left);
    return inside;
}

/* Drop, in one pass, every zone covered by the union of the others. */
static int compact(fed_t *f, int64_t dim, int64_t *rem)
{
    int64_t idx = 0, nn = dim * dim;
    while (f->k > 1 && idx < f->k) {
        int r = covered(f->m + idx * nn, f, idx, dim, rem);
        if (r < 0)
            return -1;
        if (r) {
            memmove(f->m + idx * nn, f->m + (idx + 1) * nn,
                    (size_t)((f->k - idx - 1) * nn) * sizeof(int64_t));
            f->k--;
        } else {
            idx++;
        }
    }
    return 0;
}

/* Hand a result list out: its zone count, the zones copied to out only
 * when they fit in cap.  Frees the list. */
static int64_t emit(fed_t *f, int64_t *out, int64_t cap)
{
    int64_t k = f->k;
    if (k && k <= cap)
        memcpy(out, f->m, (size_t)(k * f->nn) * sizeof(int64_t));
    fed_free(f);
    return k;
}

/* a \ b, with a's ka zones then b's kb zones packed in one buffer: the
 * zone count (zones written when they fit in cap), -2 when nothing of a
 * was removed (a stands; nothing written), -1 out of memory. */
int64_t k_fed_subtract(const int64_t *in, int64_t ka, int64_t kb,
                       int64_t dim, int64_t *out, int64_t cap)
{
    int64_t nn = dim * dim;
    const int64_t *a = in, *b = in + ka * nn;
    int64_t *rem = dim > 0 ? malloc((size_t)nn * sizeof(int64_t)) : 0;
    fed_t f;
    int r;
    fed_init(&f, nn);
    if (!rem)
        return -1;
    r = fed_add(&f, a, ka);
    if (r == 0)
        r = fed_sub(&f, b, kb, dim, rem);
    free(rem);
    if (r <= 0) {
        fed_free(&f);
        return r < 0 ? -1 : -2;
    }
    return emit(&f, out, cap);
}

/* Predt(goal, bad), the kg goal zones then the kb bad zones packed in
 * one buffer.  Returns as k_fed_subtract, never -2. */
int64_t k_fed_predt(const int64_t *in, int64_t kg, int64_t kb,
                    int64_t lenient, int64_t dim, int64_t *out, int64_t cap)
{
    const int64_t *goal = in, *bad = in + kg * dim * dim;
    int64_t *scr =
        dim > 0 ? malloc((size_t)(3 * dim * dim) * sizeof(int64_t)) : 0;
    fed_t res;
    int r;
    fed_init(&res, dim * dim);
    if (!scr)
        return -1;
    r = predt_into(&res, goal, kg, bad, kb, (int)lenient, dim, scr);
    free(scr);
    if (r < 0) {
        fed_free(&res);
        return -1;
    }
    return emit(&res, out, cap);
}

/* The boundary of a zone that can delay: for each clock the invariant
 * bounds by a non-strict x <= c, the face x == c of the zone (a strict
 * bound has no last instant), reduced. */
static int boundary_into(fed_t *f, const int64_t *zone, const int64_t *inv,
                         int64_t dim)
{
    int64_t i;
    for (i = 1; i < dim; i++) {
        int64_t enc = inv[i * dim], c, *face;
        if (enc >= INF || !(enc & 1))
            continue;
        c = enc >> 1;
        face = fed_slot(f);
        if (!face)
            return -1;
        memcpy(face, zone, (size_t)f->nn * sizeof(int64_t));
        if (tighten1(face, dim, i, 0, c * 2 + 1) == 2
            || tighten1(face, dim, 0, i, -c * 2 + 1) == 2)
            f->k--;
    }
    return fed_reduce(f, dim);
}

/* The solver's fixpoint equation for one node with zone Z and invariant I:
 *   Forced = (Boundary(Z, I) ∩ U) \ B when Z can delay, else U \ B,
 *   G_goal = goal ∪ Forced,
 *   win = Predt(G_act, B) ∪ Predt_lenient(G_goal, B), ∩ Z   (can delay)
 *   win = ((G_act ∪ G_goal) \ B) ∪ goal                      (cannot)
 * then compact(win ∪ goal) into win, which must be empty, U being where
 * some uncontrollable move is enabled.  scr is 3*dim*dim scratch. */
static int fixpoint_into(fed_t *win, const int64_t *zone, const int64_t *inv,
                         const int64_t *goal, int64_t kg,
                         const int64_t *gact, int64_t ka,
                         const int64_t *bad, int64_t kb,
                         const int64_t *uen, int64_t ku, int64_t can_delay,
                         int64_t dim, int64_t *scr)
{
    int64_t x, y, nn = dim * dim;
    fed_t gg, s, l;
    fed_init(&gg, nn);
    fed_init(&s, nn);
    fed_init(&l, nn);
    if (can_delay && ku) {
        if (boundary_into(&l, zone, inv, dim) < 0)
            goto fail;
        for (x = 0; x < l.k; x++)
            for (y = 0; y < ku; y++)
                if (meet_into(&s, l.m + x * nn, uen + y * nn, dim) < 0)
                    goto fail;
        if (fed_reduce(&s, dim) < 0)
            goto fail;
        fed_free(&l);
    } else if (!can_delay && fed_add(&s, uen, ku) < 0) {
        goto fail;
    }
    if (fed_sub(&s, bad, kb, dim, scr) < 0 || fed_add(&gg, goal, kg) < 0
        || fed_union(&gg, s.m, s.k, dim) < 0)
        goto fail;
    fed_free(&s);
    if (can_delay) {
        if (predt_into(&s, gact, ka, bad, kb, 0, dim, scr) < 0
            || predt_into(&l, gg.m, gg.k, bad, kb, 1, dim, scr) < 0
            || fed_union(&s, l.m, l.k, dim) < 0)
            goto fail;
        for (x = 0; x < s.k; x++)
            if (meet_into(win, s.m + x * nn, zone, dim) < 0)
                goto fail;
        if (fed_reduce(win, dim) < 0)
            goto fail;
    } else {
        if (fed_add(win, gact, ka) < 0
            || fed_union(win, gg.m, gg.k, dim) < 0
            || fed_sub(win, bad, kb, dim, scr) < 0
            || fed_union(win, goal, kg, dim) < 0)
            goto fail;
    }
    if (fed_union(win, goal, kg, dim) < 0 || compact(win, dim, scr) < 0)
        goto fail;
    fed_free(&gg);
    fed_free(&s);
    fed_free(&l);
    return 0;
fail:
    fed_free(&gg);
    fed_free(&s);
    fed_free(&l);
    return -1;
}

/* fixpoint_into on one buffer packing Z, I, then the kg goal, ka G_act,
 * kb B and ku U zones.  Returns as k_fed_predt. */
int64_t k_fixpoint_body(const int64_t *in, int64_t kg, int64_t ka,
                        int64_t kb, int64_t ku, int64_t can_delay,
                        int64_t dim, int64_t *out, int64_t cap)
{
    int64_t nn = dim * dim;
    const int64_t *goal = in + 2 * nn, *gact = goal + kg * nn;
    const int64_t *bad = gact + ka * nn, *uen = bad + kb * nn;
    int64_t *scr = dim > 0 ? malloc((size_t)(3 * nn) * sizeof(int64_t)) : 0;
    fed_t win;
    int r;
    fed_init(&win, nn);
    if (!scr)
        return -1;
    r = fixpoint_into(&win, in, in + nn, goal, kg, gact, ka, bad, kb, uen,
                      ku, can_delay, dim, scr);
    free(scr);
    if (r < 0) {
        fed_free(&win);
        return -1;
    }
    return emit(&win, out, cap);
}

/* ---- Graph-node kernels over an expansion table (ExpansionTable.flat):
 * the move count n, then per move its plan's offset in the table and its
 * controllability, then the plans. */

/* Every step of the table from one canonical zone: row x of out is the
 * successor by move x and status[x] is 1, or 0 when it is empty (the row
 * is scratch).  0, or -1 when a plan does not fit dim. */
int64_t k_zone_expand(const int64_t *src, int64_t dim, const int64_t *table,
                      int64_t *out, uint8_t *status)
{
    int64_t x, r;
    for (x = 0; x < table[0]; x++) {
        r = k_zone_successor(src, out + x * dim * dim, dim,
                             table + table[1 + 2 * x]);
        if (r < 0)
            return -1;
        status[x] = (uint8_t)r;
    }
    return 0;
}

/* Index of the first of the k zones of stack that includes m, or -1. */
int64_t k_first_superset(const int64_t *stack, int64_t k, int64_t dim,
                         const int64_t *m)
{
    int64_t x, nn = dim * dim;
    for (x = 0; x < k; x++)
        if (incl(stack + x * nn, m, nn))
            return x;
    return -1;
}

/* Pred of the k zones zs through the plan at flat into the source zone
 * src, appended to the empty list f and reduced. */
static int pred_into(fed_t *f, const int64_t *zs, int64_t k,
                     const int64_t *flat, const int64_t *src, int64_t dim)
{
    int64_t x, r, *slot;
    for (x = 0; x < k; x++) {
        slot = fed_slot(f);
        if (!slot)
            return -1;
        r = k_zone_pred(zs + x * f->nn, slot, src, dim, flat);
        if (r < 0)
            return -1;
        if (r == 0)
            f->k--;
        else if (r == 2)
            memcpy(slot, src, (size_t)f->nn * sizeof(int64_t));
    }
    return fed_reduce(f, dim);
}

/* One node's fixpoint equation from its out-edges.  The buffer packs Z,
 * I, the kg goal zones, the ne target zones, then each target's win
 * zones; desc holds kg, ne, then per edge its slot in the table and its
 * win's zone count.  Per edge e, in order: G_act ∪= Pred_e(Win) when e is
 * controllable, else U ∪= Pred_e(Z') and B ∪= Pred_e(Z') \ Pred_e(Win);
 * then fixpoint_into.  Returns as k_fed_predt. */
int64_t k_node_equation(const int64_t *in, const int64_t *desc,
                        const int64_t *table, int64_t can_delay,
                        int64_t dim, int64_t *out, int64_t cap)
{
    int64_t e, nn = dim * dim, kg = desc[0], ne = desc[1];
    const int64_t *zone = in, *goal = in + 2 * nn, *tgt = goal + kg * nn;
    const int64_t *win = tgt + ne * nn;
    int64_t *scr = dim > 0 ? malloc((size_t)(3 * nn) * sizeof(int64_t)) : 0;
    fed_t gact, bad, uen, p, q, res;
    fed_init(&gact, nn);
    fed_init(&bad, nn);
    fed_init(&uen, nn);
    fed_init(&p, nn);
    fed_init(&q, nn);
    fed_init(&res, nn);
    if (!scr)
        return -1;
    for (e = 0; e < ne; e++) {
        int64_t slot = desc[2 + 2 * e], kw = desc[3 + 2 * e];
        const int64_t *flat;
        if (slot < 0 || slot >= table[0] || kw < 0)
            goto fail;
        flat = table + table[1 + 2 * slot];
        if (table[2 + 2 * slot]) {
            if (pred_into(&p, win, kw, flat, zone, dim) < 0
                || fed_union(&gact, p.m, p.k, dim) < 0)
                goto fail;
        } else {
            if (pred_into(&q, tgt + e * nn, 1, flat, zone, dim) < 0
                || fed_union(&uen, q.m, q.k, dim) < 0)
                goto fail;
            if (q.k && kw
                && (pred_into(&p, win, kw, flat, zone, dim) < 0
                    || fed_sub(&q, p.m, p.k, dim, scr) < 0))
                goto fail;
            if (fed_union(&bad, q.m, q.k, dim) < 0)
                goto fail;
            fed_free(&q);
        }
        fed_free(&p);
        win += kw * nn;
    }
    if (fixpoint_into(&res, zone, in + nn, goal, kg, gact.m, gact.k, bad.m,
                      bad.k, uen.m, uen.k, can_delay, dim, scr) < 0)
        goto fail;
    free(scr);
    fed_free(&gact);
    fed_free(&bad);
    fed_free(&uen);
    return emit(&res, out, cap);
fail:
    free(scr);
    fed_free(&gact);
    fed_free(&bad);
    fed_free(&uen);
    fed_free(&p);
    fed_free(&q);
    fed_free(&res);
    return -1;
}
"""

_DECLS = """
void k_close(int64_t *stack, int64_t k, int64_t dim, uint8_t *ok);
void k_extrapolate(int64_t *stack, int64_t k, int64_t dim,
                   const int64_t *caps, uint8_t *ok);
void k_reduce(const int64_t *stack, int64_t k, int64_t dim, uint8_t *keep);
int64_t k_zone_constrain(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *cons, int64_t nc);
int64_t k_zone_extrapolate(const int64_t *src, int64_t *dst, int64_t dim,
                           const int64_t *caps);
int64_t k_zone_successor(const int64_t *src, int64_t *dst, int64_t dim,
                         const int64_t *flat);
int64_t k_zone_pred(const int64_t *tgt, int64_t *dst, const int64_t *src,
                    int64_t dim, const int64_t *flat);
int64_t k_fed_subtract(const int64_t *in, int64_t ka, int64_t kb,
                       int64_t dim, int64_t *out, int64_t cap);
int64_t k_fed_predt(const int64_t *in, int64_t kg, int64_t kb,
                    int64_t lenient, int64_t dim, int64_t *out, int64_t cap);
int64_t k_fixpoint_body(const int64_t *in, int64_t kg, int64_t ka,
                        int64_t kb, int64_t ku, int64_t can_delay,
                        int64_t dim, int64_t *out, int64_t cap);
int64_t k_zone_expand(const int64_t *src, int64_t dim, const int64_t *table,
                      int64_t *out, uint8_t *status);
int64_t k_first_superset(const int64_t *stack, int64_t k, int64_t dim,
                         const int64_t *m);
int64_t k_node_equation(const int64_t *in, const int64_t *desc,
                        const int64_t *table, int64_t can_delay,
                        int64_t dim, int64_t *out, int64_t cap);
"""

_BINDING = None


_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
#: Every exported kernel: ``name -> (ctypes restype, ctypes argtypes)``.
_SIGNATURES = {
    "k_close": (None, [_PTR, _I64, _I64, _PTR]),
    "k_extrapolate": (None, [_PTR, _I64, _I64, _PTR, _PTR]),
    "k_reduce": (None, [_PTR, _I64, _I64, _PTR]),
    "k_zone_constrain": (_I64, [_PTR, _PTR, _I64, _PTR, _I64]),
    "k_zone_extrapolate": (_I64, [_PTR, _PTR, _I64, _PTR]),
    "k_zone_successor": (_I64, [_PTR, _PTR, _I64, _PTR]),
    "k_zone_pred": (_I64, [_PTR, _PTR, _PTR, _I64, _PTR]),
    "k_fed_subtract": (_I64, [_PTR, _I64, _I64, _I64, _PTR, _I64]),
    "k_fed_predt": (_I64, [_PTR, _I64, _I64, _I64, _I64, _PTR, _I64]),
    "k_fixpoint_body": (
        _I64, [_PTR, _I64, _I64, _I64, _I64, _I64, _I64, _PTR, _I64]
    ),
    "k_zone_expand": (_I64, [_PTR, _I64, _PTR, _PTR, _PTR]),
    "k_first_superset": (_I64, [_PTR, _I64, _I64, _PTR]),
    "k_node_equation": (_I64, [_PTR, _PTR, _PTR, _I64, _I64, _PTR, _I64]),
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

    def _flat_ptr(self, compiled):
        """The FFI handle on the ``flat`` vector of a :class:`MovePlan`
        or :class:`ExpansionTable`, made once per object and binding."""
        native = compiled.native
        if native is None or native[0] is not self._b:
            native = compiled.native = (self._b, self._b._i64(compiled.flat))
        return native[1]

    def zone_successor(
        self, m: np.ndarray, plan: MovePlan
    ) -> Optional[np.ndarray]:
        b = self._b
        src = _ro_i64(m)
        dst = np.empty(src.shape, dtype=np.int64)
        status = b.k_zone_successor(
            b._i64(src), b._i64(dst), src.shape[0], self._flat_ptr(plan)
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
            self._flat_ptr(plan),
        )
        if status < 0:
            raise IndexError(f"plan does not fit a {tgt.shape[0]}-dim zone")
        if status == 2:
            return source
        return dst if status else None

    def _fed_call(self, fn, stacks, *args) -> Optional[np.ndarray]:
        """Run a federation kernel on ``stacks``, packed into one buffer.

        The kernel reports its zone count and writes the zones only when
        they fit.  The first call offers room for one zone, the usual
        size of a solver federation; a larger result is computed again
        into an exact buffer.  Returns a ``(k, dim, dim)`` stack (the
        empty one shared, read-only), or None when the kernel reports its
        first input unchanged.
        """
        packed = np.concatenate(stacks, dtype=np.int64)
        dim = packed.shape[-1]
        if packed.ndim != 3 or packed.shape[1] != dim:
            raise ValueError(f"not a stack of square matrices: {packed.shape}")
        b = self._b
        out = np.empty((1, dim, dim), dtype=np.int64)
        k = fn(b._i64(packed), *args, dim, b._i64(out), 1)
        if k == 1:
            return out
        if k == 0:
            return _no_rows(dim)
        if k == -2:
            return None
        if k > 1:
            out = np.empty((k, dim, dim), dtype=np.int64)
            k = fn(b._i64(packed), *args, dim, b._i64(out), k)
        if k < 0:
            raise MemoryError("federation kernel out of memory")
        return out

    def fed_subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self._fed_call(
            self._b.k_fed_subtract, (a, b), a.shape[0], b.shape[0]
        )
        return a if out is None else out

    def fed_predt(
        self, goal: np.ndarray, bad: np.ndarray, lenient: bool
    ) -> np.ndarray:
        return self._fed_call(
            self._b.k_fed_predt, (goal, bad), goal.shape[0], bad.shape[0],
            1 if lenient else 0,
        )

    def fixpoint_body(
        self,
        zone: np.ndarray,
        invariant: np.ndarray,
        goal: np.ndarray,
        g_act: np.ndarray,
        bad: np.ndarray,
        u_enabled: np.ndarray,
        can_delay: bool,
    ) -> np.ndarray:
        return self._fed_call(
            self._b.k_fixpoint_body,
            (zone[None], invariant[None], goal, g_act, bad, u_enabled),
            goal.shape[0], g_act.shape[0], bad.shape[0], u_enabled.shape[0],
            1 if can_delay else 0,
        )

    def zone_expand(
        self, m: np.ndarray, table: ExpansionTable
    ) -> Tuple[np.ndarray, np.ndarray]:
        b = self._b
        src = _ro_i64(m)
        dim = src.shape[0]
        n = len(table.plans)
        out = np.empty((n, dim, dim), dtype=np.int64)
        ok = np.empty(n, dtype=np.uint8)
        status = b.k_zone_expand(
            b._i64(src), dim, self._flat_ptr(table), b._i64(out), b._u8(ok)
        )
        if status < 0:
            raise IndexError(f"table does not fit a {dim}-dim zone")
        return out, ok.view(np.bool_)

    def first_superset(self, stack: np.ndarray, m: np.ndarray) -> int:
        b = self._b
        rows = _ro_i64(stack)
        zone = _ro_i64(m)
        if rows.shape[1:] != zone.shape:
            raise ValueError(f"zone {zone.shape} vs stack {rows.shape}")
        return b.k_first_superset(
            b._i64(rows), rows.shape[0], zone.shape[0], b._i64(zone)
        )

    def node_equation(
        self,
        zone: np.ndarray,
        invariant: np.ndarray,
        goal: np.ndarray,
        can_delay: bool,
        table: ExpansionTable,
        slots: Sequence[int],
        targets: np.ndarray,
        wins: Sequence[np.ndarray],
    ) -> np.ndarray:
        if not len(slots) == len(wins) == targets.shape[0]:
            raise ValueError(f"{len(slots)} slots, {len(wins)} wins")
        desc = [goal.shape[0], len(slots)]
        for slot, win in zip(slots, wins):
            desc += (slot, win.shape[0])
        return self._fed_call(
            self._b.k_node_equation,
            (zone[None], invariant[None], goal, targets, *wins),
            self._b._ints(desc), self._flat_ptr(table), 1 if can_delay else 0,
        )

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

    def reduce_indices(self, stack: np.ndarray) -> List[int]:
        b = self._b
        buf = _ro_i64(stack)
        k, dim = buf.shape[0], buf.shape[-1]
        keep = np.empty(k, dtype=np.uint8)
        b.k_reduce(b._i64(buf), k, dim, b._u8(keep))
        return [int(i) for i in np.flatnonzero(keep)]
