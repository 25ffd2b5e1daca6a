/* Compiled event core for the Griffin reproduction.
 *
 * `EventCore` is a C mirror of repro.sim.event.EventQueue (binary heap +
 * same-cycle FIFO lane + cancellation bookkeeping with lazy compaction)
 * plus the Engine.run drain loop, exposed as `_drain`.  Its surface is
 * the oracle's: two inserts, `_sched(now, time, callback, args)` and
 * `push(event, lane)`, plus `_note_cancel`, `peek_time` and `len`; then
 * `_drain`/`_request_stop` for the loop and `_export`/`_load` for state.
 * The Python side (repro.sim.compiled) subclasses it to add snapshot
 * diagnostics and pickling; Engine's scheduling methods call the two
 * inserts unchanged.
 *
 * The contract is byte-identity with the pure-Python heap oracle:
 *
 * - Events fire in exact (time, priority, seq) order.  Entries carry the
 *   *original* time object (int or float, whatever the caller passed)
 *   alongside a C double used only for ordering, so `engine._now` — read
 *   directly by hot model code and serialized into results — keeps the
 *   exact numeric type the oracle would produce.
 * - Cancelled events are skipped at pop time; `_note_cancel` keeps the
 *   live/cancelled counters and triggers in-place compaction on the same
 *   thresholds as the oracle (_COMPACT_MIN/_COMPACT_LIMIT, imported at
 *   module load so there is a single source of truth).
 * - The drain loop replicates Engine.run ordering precisely: cancelled-
 *   head skip gated on the cancelled counter, head selection by strict
 *   `heap[0] < lane[0]`, bound check *before* pop (parking `_now` at the
 *   bound object itself), stall watchdog checked before `_now` advances,
 *   monitor.on_execute after, executed counted only after the callback
 *   returns, and `events_executed` accumulated even when an exception
 *   unwinds the loop.  Error messages are composed by Python helpers on
 *   the engine (`_stall_error` / `_budget_error`) so their text is
 *   byte-identical to the oracle's f-strings.
 *
 * Entries live in C arrays by value; every Python-visible operation
 * copies the entry out before running arbitrary Python code (callbacks,
 * decref side effects), because that code may push events and reallocate
 * the arrays.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct {
    double key;        /* numeric value of `time`, ordering only */
    long prio;
    long long seq;
    PyObject *time;    /* owned; the exact object the caller passed */
    PyObject *callback;/* owned */
    PyObject *args;    /* owned tuple */
    PyObject *event;   /* owned Event cancel handle, or NULL */
} centry;

typedef struct {
    PyObject_HEAD
    centry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    centry *lane;      /* FIFO: valid entries at [lane_head, lane_head+lane_len) */
    Py_ssize_t lane_head;
    Py_ssize_t lane_len;
    Py_ssize_t lane_cap;
    long long seq;
    Py_ssize_t live;
    Py_ssize_t cancelled;
    int stop_flag;
} CoreObject;

/* Resolved at module init from repro.sim.event. */
static long compact_min = 16;
static long compact_limit = 4096;

static PyObject *s_time, *s_priority, *s_seq, *s_callback, *s_args,
    *s_cancelled, *s_uqueue, *s_unow, *s_umonitor, *s_exhausted,
    *s_events_executed, *s_on_execute, *s_stall_error, *s_budget_error;

/* ------------------------------------------------------------------ */
/* Entry helpers                                                      */
/* ------------------------------------------------------------------ */

static int
time_key(PyObject *time, double *out)
{
    double v = PyFloat_AsDouble(time);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static inline int
entry_lt(const centry *a, const centry *b)
{
    if (a->key != b->key)
        return a->key < b->key;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

static void
entry_clear(centry *e)
{
    Py_CLEAR(e->time);
    Py_CLEAR(e->callback);
    Py_CLEAR(e->args);
    Py_CLEAR(e->event);
}

/* 1 cancelled, 0 live, -1 error.  Event.cancelled is a slot, so the
 * attribute read runs no arbitrary Python code. */
static int
ev_cancelled(PyObject *event)
{
    PyObject *flag = PyObject_GetAttr(event, s_cancelled);
    int result;
    if (flag == NULL)
        return -1;
    result = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    return result;
}

/* ------------------------------------------------------------------ */
/* Heap + lane storage                                                */
/* ------------------------------------------------------------------ */

static void
heap_sift_up(centry *heap, Py_ssize_t pos)
{
    centry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_lt(&item, &heap[parent])) {
            heap[pos] = heap[parent];
            pos = parent;
        }
        else
            break;
    }
    heap[pos] = item;
}

static void
heap_sift_down(centry *heap, Py_ssize_t n, Py_ssize_t pos)
{
    centry item = heap[pos];
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
            child++;
        if (entry_lt(&heap[child], &item)) {
            heap[pos] = heap[child];
            pos = child;
        }
        else
            break;
    }
    heap[pos] = item;
}

static int
heap_push(CoreObject *self, const centry *e)
{
    if (self->heap_len == self->heap_cap) {
        Py_ssize_t cap = self->heap_cap ? self->heap_cap * 2 : 256;
        centry *buf = PyMem_Realloc(self->heap, cap * sizeof(centry));
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->heap = buf;
        self->heap_cap = cap;
    }
    self->heap[self->heap_len] = *e;
    heap_sift_up(self->heap, self->heap_len);
    self->heap_len++;
    return 0;
}

static void
heap_pop_min(CoreObject *self, centry *out)
{
    centry *heap = self->heap;
    Py_ssize_t n;
    *out = heap[0];
    n = --self->heap_len;
    if (n > 0) {
        heap[0] = heap[n];
        heap_sift_down(heap, n, 0);
    }
}

static int
lane_push(CoreObject *self, const centry *e)
{
    if (self->lane_head + self->lane_len == self->lane_cap) {
        if (self->lane_head > 0 && self->lane_head >= self->lane_cap / 2) {
            memmove(self->lane, self->lane + self->lane_head,
                    self->lane_len * sizeof(centry));
            self->lane_head = 0;
        }
        else {
            Py_ssize_t cap = self->lane_cap ? self->lane_cap * 2 : 256;
            centry *buf = PyMem_Realloc(self->lane, cap * sizeof(centry));
            if (buf == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            self->lane = buf;
            self->lane_cap = cap;
        }
    }
    self->lane[self->lane_head + self->lane_len] = *e;
    self->lane_len++;
    return 0;
}

static void
lane_popleft(CoreObject *self, centry *out)
{
    *out = self->lane[self->lane_head];
    self->lane_head++;
    if (--self->lane_len == 0)
        self->lane_head = 0;
}

/* ------------------------------------------------------------------ */
/* Cancellation plumbing                                              */
/* ------------------------------------------------------------------ */

/* Mirrors EventQueue._skip_cancelled_heads: pop cancelled heads off both
 * stores.  Re-reads self->heap/lane each iteration — the decrefs in
 * entry_clear can run __del__ code that pushes and reallocates. */
static int
skip_heads(CoreObject *self)
{
    for (;;) {
        PyObject *ev;
        centry e;
        int c;
        if (self->heap_len == 0)
            break;
        ev = self->heap[0].event;
        if (ev == NULL)
            break;
        c = ev_cancelled(ev);
        if (c < 0)
            return -1;
        if (!c)
            break;
        heap_pop_min(self, &e);
        self->cancelled--;
        entry_clear(&e);
    }
    for (;;) {
        PyObject *ev;
        centry e;
        int c;
        if (self->lane_len == 0)
            break;
        ev = self->lane[self->lane_head].event;
        if (ev == NULL)
            break;
        c = ev_cancelled(ev);
        if (c < 0)
            return -1;
        if (!c)
            break;
        lane_popleft(self, &e);
        self->cancelled--;
        entry_clear(&e);
    }
    return 0;
}

/* Mirrors EventQueue._compact: drop cancelled entries in place, then
 * restore the heap invariant.  Dropped entries are decref'd only after
 * both stores are consistent (decref side effects may push). */
static int
core_compact_impl(CoreObject *self)
{
    Py_ssize_t total = self->heap_len + self->lane_len;
    centry *dropped;
    Py_ssize_t ndropped = 0, i, w;

    if (total == 0) {
        self->cancelled = 0;
        return 0;
    }
    dropped = PyMem_Malloc(total * sizeof(centry));
    if (dropped == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* Heap: keep live entries, collect the rest. */
    w = 0;
    for (i = 0; i < self->heap_len; i++) {
        centry *e = &self->heap[i];
        int c = 0;
        if (e->event != NULL) {
            c = ev_cancelled(e->event);
            if (c < 0) {
                /* Unreachable with real Events (slot read); treat as
                 * live so the queue stays consistent. */
                PyErr_Clear();
                c = 0;
            }
        }
        if (c)
            dropped[ndropped++] = *e;
        else
            self->heap[w++] = *e;
    }
    self->heap_len = w;
    for (i = w / 2 - 1; i >= 0; i--)
        heap_sift_down(self->heap, w, i);
    /* Lane: left-compact the pending region to index 0. */
    w = 0;
    for (i = 0; i < self->lane_len; i++) {
        centry *e = &self->lane[self->lane_head + i];
        int c = 0;
        if (e->event != NULL) {
            c = ev_cancelled(e->event);
            if (c < 0) {
                PyErr_Clear();
                c = 0;
            }
        }
        if (c)
            dropped[ndropped++] = *e;
        else
            self->lane[w++] = *e;
    }
    self->lane_head = 0;
    self->lane_len = w;
    self->cancelled = 0;
    for (i = 0; i < ndropped; i++)
        entry_clear(&dropped[i]);
    PyMem_Free(dropped);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Scheduling methods                                                 */
/* ------------------------------------------------------------------ */

static int
ensure_tuple(PyObject **args)
{
    if (PyTuple_Check(*args))
        return 0;
    PyObject *t = PySequence_Tuple(*args);
    if (t == NULL)
        return -1;
    Py_DECREF(*args);
    *args = t;
    return 0;
}

/* push(event, lane): insert with a cancel handle, stamping seq and
 * _queue.  The tail of Engine.schedule; `lane` is true only for a
 * priority-0 event at the engine's current time. */
static PyObject *
core_push(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    centry e;
    PyObject *event, *prio_obj = NULL, *seq_obj = NULL;
    int use_lane;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "push expects (event, lane)");
        return NULL;
    }
    event = args[0];
    use_lane = PyObject_IsTrue(args[1]);
    if (use_lane < 0)
        return NULL;
    memset(&e, 0, sizeof(e));
    e.time = PyObject_GetAttr(event, s_time);
    if (e.time == NULL || time_key(e.time, &e.key) < 0)
        goto fail;
    prio_obj = PyObject_GetAttr(event, s_priority);
    if (prio_obj == NULL)
        goto fail;
    e.prio = PyLong_AsLong(prio_obj);
    if (e.prio == -1 && PyErr_Occurred())
        goto fail;
    e.callback = PyObject_GetAttr(event, s_callback);
    if (e.callback == NULL)
        goto fail;
    e.args = PyObject_GetAttr(event, s_args);
    if (e.args == NULL || ensure_tuple(&e.args) < 0)
        goto fail;
    e.seq = self->seq;
    seq_obj = PyLong_FromLongLong(e.seq);
    if (seq_obj == NULL
        || PyObject_SetAttr(event, s_seq, seq_obj) < 0
        || PyObject_SetAttr(event, s_uqueue, (PyObject *)self) < 0)
        goto fail;
    e.event = Py_NewRef(event);
    if ((use_lane ? lane_push(self, &e) : heap_push(self, &e)) < 0)
        goto fail;
    self->seq++;
    self->live++;
    Py_DECREF(prio_obj);
    Py_DECREF(seq_obj);
    Py_RETURN_NONE;

fail:
    Py_XDECREF(prio_obj);
    Py_XDECREF(seq_obj);
    entry_clear(&e);
    return NULL;
}

/* _sched(now, time, callback, args): the fire-and-forget insert behind
 * Engine.post/post_at and every access-path leg — a priority-0 entry at
 * max(time, now), routed to the lane when clamped and to the heap
 * otherwise.  Same routing as the oracle's EventQueue._sched. */
static PyObject *
core_sched(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    centry e;
    double tkey, nkey;
    int use_lane;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "_sched expects (now, time, callback, args)");
        return NULL;
    }
    memset(&e, 0, sizeof(e));
    if (time_key(args[1], &tkey) < 0 || time_key(args[0], &nkey) < 0)
        return NULL;
    e.seq = self->seq;
    if (tkey > nkey) {
        e.time = Py_NewRef(args[1]);
        e.key = tkey;
        use_lane = 0;
    }
    else {
        e.time = Py_NewRef(args[0]);
        e.key = nkey;
        use_lane = 1;
    }
    e.prio = 0;
    e.callback = Py_NewRef(args[2]);
    e.args = Py_NewRef(args[3]);
    if ((use_lane ? lane_push(self, &e) : heap_push(self, &e)) < 0) {
        entry_clear(&e);
        return NULL;
    }
    self->seq++;
    self->live++;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Draining                                                           */
/* ------------------------------------------------------------------ */

/* peek_time() -> time | None (tidies cancelled heads, like the oracle). */
static PyObject *
core_peek_time(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    const centry *head;
    if (skip_heads(self) < 0)
        return NULL;
    if (self->heap_len && self->lane_len)
        head = entry_lt(&self->heap[0], &self->lane[self->lane_head])
                   ? &self->heap[0]
                   : &self->lane[self->lane_head];
    else if (self->heap_len)
        head = &self->heap[0];
    else if (self->lane_len)
        head = &self->lane[self->lane_head];
    else
        Py_RETURN_NONE;
    return Py_NewRef(head->time);
}

/* _note_cancel(event=None): Event.cancel() bookkeeping. */
static PyObject *
core_note_cancel(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "_note_cancel expects (event=None)");
        return NULL;
    }
    self->live--;
    self->cancelled++;
    if (self->cancelled >= compact_min
        && (self->cancelled > self->live
            || self->cancelled >= compact_limit)) {
        if (core_compact_impl(self) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

/* _request_stop(): set the C-side stop flag (Engine.stop). */
static PyObject *
core_request_stop(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_flag = 1;
    Py_RETURN_NONE;
}

/* Accumulate engine.events_executed += executed, preserving any pending
 * exception (mirrors the oracle's try/finally). */
static int
bump_executed(PyObject *engine, long long executed)
{
    PyObject *t = NULL, *v = NULL, *tb = NULL;
    PyObject *cur, *inc, *total;
    int had_err = (PyErr_Occurred() != NULL);
    int rc = -1;

    if (had_err)
        PyErr_Fetch(&t, &v, &tb);
    cur = PyObject_GetAttr(engine, s_events_executed);
    if (cur != NULL) {
        inc = PyLong_FromLongLong(executed);
        if (inc != NULL) {
            total = PyNumber_Add(cur, inc);
            Py_DECREF(inc);
            if (total != NULL) {
                rc = PyObject_SetAttr(engine, s_events_executed, total);
                Py_DECREF(total);
            }
        }
        Py_DECREF(cur);
    }
    if (had_err) {
        PyErr_Clear(); /* drop any accounting error; keep the original */
        PyErr_Restore(t, v, tb);
        return -1;
    }
    return rc;
}

/* _drain(engine, until, max_events, stall_threshold, strict_budget):
 * the Engine.run event loop.  The Python wrapper owns the prologue
 * (reentrancy guard, flag resets) and the _running finally. */
static PyObject *
core_drain(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *engine, *until, *max_events, *stall_threshold;
    PyObject *monitor = NULL, *now_obj = NULL;
    int strict_budget, check_stall, has_budget, has_bound, use_monitor;
    long long budget = 0, stall_thresh = 0, executed = 0, stalled = 0;
    double bound = 0.0, now_key;
    int status = 0;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "_drain expects (engine, until, max_events, "
                        "stall_threshold, strict_budget)");
        return NULL;
    }
    engine = args[0];
    until = args[1];
    max_events = args[2];
    stall_threshold = args[3];
    strict_budget = PyObject_IsTrue(args[4]);
    if (strict_budget < 0)
        return NULL;

    self->stop_flag = 0;
    has_bound = (until != Py_None);
    if (has_bound && time_key(until, &bound) < 0)
        return NULL;
    has_budget = (max_events != Py_None);
    if (has_budget) {
        budget = PyLong_AsLongLong(max_events);
        if (budget == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            budget = (long long)PyFloat_AsDouble(max_events);
            if (PyErr_Occurred())
                return NULL;
        }
    }
    check_stall = (stall_threshold != Py_None);
    if (check_stall) {
        stall_thresh = PyLong_AsLongLong(stall_threshold);
        if (stall_thresh == -1 && PyErr_Occurred())
            return NULL;
    }
    now_obj = PyObject_GetAttr(engine, s_unow);
    if (now_obj == NULL)
        return NULL;
    if (time_key(now_obj, &now_key) < 0) {
        Py_DECREF(now_obj);
        return NULL;
    }
    Py_DECREF(now_obj);
    monitor = PyObject_GetAttr(engine, s_umonitor);
    if (monitor == NULL)
        return NULL;
    use_monitor = (monitor != Py_None);

    for (;;) {
        const centry *headp;
        centry e;
        int from_heap;
        PyObject *r;

        if (self->stop_flag)
            break;
        if (self->cancelled && skip_heads(self) < 0) {
            status = -1;
            break;
        }
        if (self->lane_len) {
            headp = &self->lane[self->lane_head];
            from_heap = (self->heap_len
                         && entry_lt(&self->heap[0], headp));
            if (from_heap)
                headp = &self->heap[0];
        }
        else if (self->heap_len) {
            headp = &self->heap[0];
            from_heap = 1;
        }
        else
            break;
        if (has_bound && headp->key > bound) {
            /* Park the clock at the bound *object* (int stays int). */
            if (PyObject_SetAttr(engine, s_unow, until) < 0)
                status = -1;
            break;
        }
        if (from_heap)
            heap_pop_min(self, &e);
        else
            lane_popleft(self, &e);
        self->live--;
        if (check_stall) {
            if (e.key > now_key)
                stalled = 0;
            else if (++stalled >= stall_thresh) {
                /* engine._stall_error raises SimulationStall with the
                 * oracle's exact message; _now has not advanced yet. */
                PyObject *st = PyLong_FromLongLong(stalled);
                PyObject *prio_obj =
                    st ? PyLong_FromLong(e.prio) : NULL;
                if (prio_obj != NULL)
                    r = PyObject_CallMethodObjArgs(
                        engine, s_stall_error, st, e.time, prio_obj,
                        e.callback, e.args,
                        e.event ? e.event : Py_None, NULL);
                else
                    r = NULL;
                Py_XDECREF(st);
                Py_XDECREF(prio_obj);
                if (r != NULL) {
                    Py_DECREF(r);
                    PyErr_SetString(PyExc_RuntimeError,
                                    "_stall_error returned without raising");
                }
                entry_clear(&e);
                status = -1;
                break;
            }
        }
        if (PyObject_SetAttr(engine, s_unow, e.time) < 0) {
            entry_clear(&e);
            status = -1;
            break;
        }
        now_key = e.key;
        if (use_monitor) {
            PyObject *prio_obj = PyLong_FromLong(e.prio);
            PyObject *seq_obj =
                prio_obj ? PyLong_FromLongLong(e.seq) : NULL;
            if (seq_obj != NULL)
                r = PyObject_CallMethodObjArgs(
                    monitor, s_on_execute, e.time, prio_obj, seq_obj,
                    e.callback, e.args, NULL);
            else
                r = NULL;
            Py_XDECREF(prio_obj);
            Py_XDECREF(seq_obj);
            if (r == NULL) {
                entry_clear(&e);
                status = -1;
                break;
            }
            Py_DECREF(r);
        }
        if (e.event != NULL
            && PyObject_SetAttr(e.event, s_uqueue, Py_None) < 0) {
            entry_clear(&e);
            status = -1;
            break;
        }
        r = PyObject_CallObject(e.callback, e.args);
        entry_clear(&e);
        if (r == NULL) {
            status = -1;
            break;
        }
        Py_DECREF(r);
        executed++;
        if (has_budget && executed >= budget) {
            if (PyObject_SetAttr(engine, s_exhausted, Py_True) < 0) {
                status = -1;
                break;
            }
            if (strict_budget) {
                r = PyObject_CallMethodObjArgs(
                    engine, s_budget_error, max_events, NULL);
                if (r != NULL) {
                    Py_DECREF(r);
                    PyErr_SetString(PyExc_RuntimeError,
                                    "_budget_error returned without raising");
                }
                status = -1;
            }
            break;
        }
    }

    Py_DECREF(monitor);
    if (bump_executed(engine, executed) < 0)
        return NULL;
    if (status < 0)
        return NULL;
    return PyObject_GetAttr(engine, s_unow);
}

/* ------------------------------------------------------------------ */
/* State capture                                                      */
/* ------------------------------------------------------------------ */

static PyObject *
entry_as_list(const centry *e)
{
    PyObject *item = PyList_New(6);
    PyObject *prio_obj, *seq_obj;
    if (item == NULL)
        return NULL;
    prio_obj = PyLong_FromLong(e->prio);
    seq_obj = PyLong_FromLongLong(e->seq);
    if (prio_obj == NULL || seq_obj == NULL) {
        Py_XDECREF(prio_obj);
        Py_XDECREF(seq_obj);
        Py_DECREF(item);
        return NULL;
    }
    PyList_SET_ITEM(item, 0, Py_NewRef(e->time));
    PyList_SET_ITEM(item, 1, prio_obj);
    PyList_SET_ITEM(item, 2, seq_obj);
    PyList_SET_ITEM(item, 3, Py_NewRef(e->callback));
    PyList_SET_ITEM(item, 4, Py_NewRef(e->args));
    PyList_SET_ITEM(item, 5, Py_NewRef(e->event ? e->event : Py_None));
    return item;
}

/* _export() -> (heap_entries, lane_entries, seq, live, cancelled).
 * Entries are oracle-format lists [time, prio, seq, callback, args,
 * event-or-None]; the heap list is emitted in C array order, which
 * satisfies the heapq invariant under the identical comparison. */
static PyObject *
core_export(CoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *heap_list = NULL, *lane_list = NULL, *result = NULL;
    Py_ssize_t i;

    heap_list = PyList_New(self->heap_len);
    if (heap_list == NULL)
        goto fail;
    for (i = 0; i < self->heap_len; i++) {
        PyObject *item = entry_as_list(&self->heap[i]);
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(heap_list, i, item);
    }
    lane_list = PyList_New(self->lane_len);
    if (lane_list == NULL)
        goto fail;
    for (i = 0; i < self->lane_len; i++) {
        PyObject *item = entry_as_list(&self->lane[self->lane_head + i]);
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(lane_list, i, item);
    }
    result = Py_BuildValue("(OOLnn)", heap_list, lane_list, self->seq,
                           self->live, self->cancelled);
fail:
    Py_XDECREF(heap_list);
    Py_XDECREF(lane_list);
    return result;
}

static void
core_clear_storage(CoreObject *self)
{
    Py_ssize_t i;
    Py_ssize_t heap_len = self->heap_len;
    Py_ssize_t lane_len = self->lane_len;
    Py_ssize_t lane_head = self->lane_head;
    self->heap_len = 0;
    self->lane_len = 0;
    self->lane_head = 0;
    for (i = 0; i < heap_len; i++)
        entry_clear(&self->heap[i]);
    for (i = 0; i < lane_len; i++)
        entry_clear(&self->lane[lane_head + i]);
}

static int
load_one(CoreObject *self, PyObject *item, centry *out)
{
    PyObject *seq_fast = PySequence_Fast(
        item, "queue state entries must be 6-item sequences");
    PyObject **f;
    if (seq_fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq_fast) != 6) {
        Py_DECREF(seq_fast);
        PyErr_SetString(PyExc_ValueError,
                        "queue state entries must have 6 fields");
        return -1;
    }
    f = PySequence_Fast_ITEMS(seq_fast);
    memset(out, 0, sizeof(*out));
    if (time_key(f[0], &out->key) < 0)
        goto fail;
    out->prio = PyLong_AsLong(f[1]);
    if (out->prio == -1 && PyErr_Occurred())
        goto fail;
    out->seq = PyLong_AsLongLong(f[2]);
    if (out->seq == -1 && PyErr_Occurred())
        goto fail;
    out->time = Py_NewRef(f[0]);
    out->callback = Py_NewRef(f[3]);
    out->args = Py_NewRef(f[4]);
    if (ensure_tuple(&out->args) < 0)
        goto fail;
    out->event = (f[5] == Py_None) ? NULL : Py_NewRef(f[5]);
    Py_DECREF(seq_fast);
    return 0;
fail:
    entry_clear(out);
    Py_DECREF(seq_fast);
    return -1;
}

/* _load(heap_entries, lane_entries, seq, live, cancelled): rebuild from
 * oracle-format state (the EventQueue.__dict__ layout).  The incoming
 * heap list is heapified defensively — a valid heapq list or a sorted
 * list both pass through unchanged in pop order. */
static PyObject *
core_load(CoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *heap_seq = NULL, *lane_seq = NULL;
    Py_ssize_t i, n;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "_load expects (heap_entries, lane_entries, seq, "
                        "live, cancelled)");
        return NULL;
    }
    core_clear_storage(self);
    heap_seq = PySequence_Fast(args[0], "heap entries must be a sequence");
    if (heap_seq == NULL)
        goto fail;
    n = PySequence_Fast_GET_SIZE(heap_seq);
    for (i = 0; i < n; i++) {
        centry e;
        if (load_one(self, PySequence_Fast_GET_ITEM(heap_seq, i), &e) < 0)
            goto fail;
        /* Raw append; one heapify pass below. */
        if (self->heap_len == self->heap_cap) {
            Py_ssize_t cap = self->heap_cap ? self->heap_cap * 2 : 256;
            centry *buf = PyMem_Realloc(self->heap, cap * sizeof(centry));
            if (buf == NULL) {
                entry_clear(&e);
                PyErr_NoMemory();
                goto fail;
            }
            self->heap = buf;
            self->heap_cap = cap;
        }
        self->heap[self->heap_len++] = e;
    }
    for (i = self->heap_len / 2 - 1; i >= 0; i--)
        heap_sift_down(self->heap, self->heap_len, i);
    Py_CLEAR(heap_seq);

    lane_seq = PySequence_Fast(args[1], "lane entries must be a sequence");
    if (lane_seq == NULL)
        goto fail;
    n = PySequence_Fast_GET_SIZE(lane_seq);
    for (i = 0; i < n; i++) {
        centry e;
        if (load_one(self, PySequence_Fast_GET_ITEM(lane_seq, i), &e) < 0)
            goto fail;
        if (lane_push(self, &e) < 0) {
            entry_clear(&e);
            goto fail;
        }
    }
    Py_CLEAR(lane_seq);

    self->seq = PyLong_AsLongLong(args[2]);
    if (self->seq == -1 && PyErr_Occurred())
        goto fail;
    self->live = PyLong_AsSsize_t(args[3]);
    if (self->live == -1 && PyErr_Occurred())
        goto fail;
    self->cancelled = PyLong_AsSsize_t(args[4]);
    if (self->cancelled == -1 && PyErr_Occurred())
        goto fail;
    Py_RETURN_NONE;

fail:
    Py_XDECREF(heap_seq);
    Py_XDECREF(lane_seq);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Type plumbing                                                      */
/* ------------------------------------------------------------------ */

static Py_ssize_t
core_length(CoreObject *self)
{
    return self->live;
}

static int
core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    for (i = 0; i < self->heap_len; i++) {
        Py_VISIT(self->heap[i].time);
        Py_VISIT(self->heap[i].callback);
        Py_VISIT(self->heap[i].args);
        Py_VISIT(self->heap[i].event);
    }
    for (i = 0; i < self->lane_len; i++) {
        Py_VISIT(self->lane[self->lane_head + i].time);
        Py_VISIT(self->lane[self->lane_head + i].callback);
        Py_VISIT(self->lane[self->lane_head + i].args);
        Py_VISIT(self->lane[self->lane_head + i].event);
    }
    return 0;
}

static int
core_clear(CoreObject *self)
{
    core_clear_storage(self);
    return 0;
}

static void
core_dealloc(CoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_clear_storage(self);
    PyMem_Free(self->heap);
    PyMem_Free(self->lane);
    self->heap = NULL;
    self->lane = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
core_get_live(CoreObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->live);
}

static PyObject *
core_get_cancelled(CoreObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->cancelled);
}

static PyObject *
core_get_seq(CoreObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->seq);
}

static PyGetSetDef core_getset[] = {
    {"_live", (getter)core_get_live, NULL,
     "live (non-cancelled) entry count", NULL},
    {"_cancelled", (getter)core_get_cancelled, NULL,
     "retained cancelled entry count", NULL},
    {"_seq", (getter)core_get_seq, NULL,
     "next sequence number", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMethodDef core_methods[] = {
    {"push", (PyCFunction)(void (*)(void))core_push, METH_FASTCALL,
     "push(event, lane): insert with a cancel handle, stamping seq."},
    {"_sched", (PyCFunction)(void (*)(void))core_sched, METH_FASTCALL,
     "_sched(now, time, callback, args): priority-0 at max(time, now)."},
    {"peek_time", (PyCFunction)core_peek_time, METH_NOARGS,
     "peek_time() -> time | None of the earliest live event."},
    {"_note_cancel", (PyCFunction)(void (*)(void))core_note_cancel,
     METH_FASTCALL,
     "_note_cancel(event=None): cancellation bookkeeping + compaction."},
    {"_request_stop", (PyCFunction)core_request_stop, METH_NOARGS,
     "Ask the drain loop to return after the current event."},
    {"_drain", (PyCFunction)(void (*)(void))core_drain, METH_FASTCALL,
     "_drain(engine, until, max_events, stall_threshold, strict_budget)."},
    {"_export", (PyCFunction)core_export, METH_NOARGS,
     "_export() -> (heap_entries, lane_entries, seq, live, cancelled)."},
    {"_load", (PyCFunction)(void (*)(void))core_load, METH_FASTCALL,
     "_load(heap_entries, lane_entries, seq, live, cancelled)."},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods core_as_sequence = {
    .sq_length = (lenfunc)core_length,
};

static PyTypeObject EventCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.EventCore",
    .tp_doc = "C event core mirroring repro.sim.event.EventQueue.",
    .tp_basicsize = sizeof(CoreObject),
    .tp_flags = (Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                 | Py_TPFLAGS_BASETYPE),
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_as_sequence = &core_as_sequence,
};

/* ------------------------------------------------------------------ */
/* Module init                                                        */
/* ------------------------------------------------------------------ */

static int
intern_strings(void)
{
#define INTERN(var, text)                                \
    do {                                                 \
        var = PyUnicode_InternFromString(text);          \
        if (var == NULL)                                 \
            return -1;                                   \
    } while (0)
    INTERN(s_time, "time");
    INTERN(s_priority, "priority");
    INTERN(s_seq, "seq");
    INTERN(s_callback, "callback");
    INTERN(s_args, "args");
    INTERN(s_cancelled, "cancelled");
    INTERN(s_uqueue, "_queue");
    INTERN(s_unow, "_now");
    INTERN(s_umonitor, "_monitor");
    INTERN(s_exhausted, "exhausted");
    INTERN(s_events_executed, "events_executed");
    INTERN(s_on_execute, "on_execute");
    INTERN(s_stall_error, "_stall_error");
    INTERN(s_budget_error, "_budget_error");
#undef INTERN
    return 0;
}

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Optional compiled event core (see repro.sim.compiled).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    PyObject *module = NULL, *event_mod = NULL;
    PyObject *val;

    if (intern_strings() < 0)
        return NULL;
    event_mod = PyImport_ImportModule("repro.sim.event");
    if (event_mod == NULL)
        goto fail;
    val = PyObject_GetAttrString(event_mod, "_COMPACT_MIN");
    if (val == NULL)
        goto fail;
    compact_min = PyLong_AsLong(val);
    Py_DECREF(val);
    if (compact_min == -1 && PyErr_Occurred())
        goto fail;
    val = PyObject_GetAttrString(event_mod, "_COMPACT_LIMIT");
    if (val == NULL)
        goto fail;
    compact_limit = PyLong_AsLong(val);
    Py_DECREF(val);
    if (compact_limit == -1 && PyErr_Occurred())
        goto fail;

    if (PyType_Ready(&EventCoreType) < 0)
        goto fail;
    module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        goto fail;
    if (PyModule_AddObjectRef(module, "EventCore",
                              (PyObject *)&EventCoreType) < 0) {
        Py_DECREF(module);
        module = NULL;
        goto fail;
    }
    Py_DECREF(event_mod);
    return module;

fail:
    Py_XDECREF(event_mod);
    return NULL;
}
