/* Compiled event core for the repro simulator, optional at runtime
 * (the scheduler layer gates on this module's importability and the
 * pure-python paths stay bit-identical):
 *
 *   FlatHeapCore
 *       The flat-heap scheduler with its storage in C: parallel
 *       C arrays of (double when, uint64 seq, PyObject *item) kept in
 *       binary-heap order by (when, seq) — the engine's FIFO tie-break
 *       contract, byte for byte.  Implements the full scheduler
 *       interface (push / pop / pop_run / cancel / adopt / len /
 *       pushes) plus run_loop(env, until): the engine's whole
 *       pop -> _run_callbacks dispatch cycle with the queue walk, the
 *       tombstone filtering and the time bookkeeping all in C, calling
 *       out to Python only for the event callbacks themselves.
 *
 * Built by tools/build_sched.py (no hard dependency anywhere).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Interned strings, created at module init. */
static PyObject *str_now;            /* "now" */
static PyObject *str_run_callbacks;  /* "_run_callbacks" */

/* ------------------------------------------------------------------ */
/* FlatHeapCore                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double *when;        /* heap-ordered timestamps */
    uint64_t *seq;       /* parallel seqs (FIFO tie-break) */
    PyObject **item;     /* parallel payloads (owned refs) */
    Py_ssize_t size;
    Py_ssize_t cap;
    uint64_t n;          /* next seq == total pushes ever */
    PyObject *cancelled; /* set of tombstoned seqs (PyLong) */
    PyObject *run_items; /* live list of the current pop_run batch */
    uint64_t *run_seqs;  /* parallel seqs of that batch */
    Py_ssize_t run_len;
    Py_ssize_t run_cap;
} FlatHeapCore;

static int
fh_grow(FlatHeapCore *self)
{
    Py_ssize_t cap = self->cap ? self->cap * 2 : 1024;
    double *w = PyMem_Realloc(self->when, cap * sizeof(double));
    if (w == NULL) { PyErr_NoMemory(); return -1; }
    self->when = w;
    uint64_t *s = PyMem_Realloc(self->seq, cap * sizeof(uint64_t));
    if (s == NULL) { PyErr_NoMemory(); return -1; }
    self->seq = s;
    PyObject **it = PyMem_Realloc(self->item, cap * sizeof(PyObject *));
    if (it == NULL) { PyErr_NoMemory(); return -1; }
    self->item = it;
    self->cap = cap;
    return 0;
}

/* Insert an entry, stealing the reference to `it`.  (when, seq) is the
 * heap order; seq breaks every timestamp tie. */
static int
fh_push_entry(FlatHeapCore *self, double w, uint64_t s, PyObject *it)
{
    if (self->size == self->cap && fh_grow(self) < 0) {
        Py_DECREF(it);
        return -1;
    }
    double *when = self->when;
    uint64_t *seq = self->seq;
    PyObject **item = self->item;
    Py_ssize_t pos = self->size++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        double pw = when[parent];
        if (w < pw || (w == pw && s < seq[parent])) {
            when[pos] = pw;
            seq[pos] = seq[parent];
            item[pos] = item[parent];
            pos = parent;
        }
        else
            break;
    }
    when[pos] = w;
    seq[pos] = s;
    item[pos] = it;
    return 0;
}

/* Remove the root; caller guarantees size > 0.  Returns the payload
 * (ownership transferred) and writes its (when, seq). */
static PyObject *
fh_extract(FlatHeapCore *self, double *when_out, uint64_t *seq_out)
{
    double *when = self->when;
    uint64_t *seq = self->seq;
    PyObject **item = self->item;
    Py_ssize_t n = self->size - 1;
    *when_out = when[0];
    *seq_out = seq[0];
    PyObject *result = item[0];
    self->size = n;
    if (n > 0) {
        double w = when[n];
        uint64_t s = seq[n];
        PyObject *it = item[n];
        Py_ssize_t pos = 0, child;
        while ((child = 2 * pos + 1) < n) {
            Py_ssize_t right = child + 1;
            if (right < n &&
                (when[right] < when[child] ||
                 (when[right] == when[child] && seq[right] < seq[child])))
                child = right;
            if (when[child] < w || (when[child] == w && seq[child] < s)) {
                when[pos] = when[child];
                seq[pos] = seq[child];
                item[pos] = item[child];
                pos = child;
            }
            else
                break;
        }
        when[pos] = w;
        seq[pos] = s;
        item[pos] = it;
    }
    return result;
}

/* 1 = seq was tombstoned (tombstone consumed), 0 = live, -1 = error. */
static int
fh_check_cancelled(FlatHeapCore *self, uint64_t s)
{
    if (PySet_GET_SIZE(self->cancelled) == 0)
        return 0;
    PyObject *key = PyLong_FromUnsignedLongLong(s);
    if (key == NULL)
        return -1;
    int r = PySet_Contains(self->cancelled, key);
    if (r > 0)
        r = PySet_Discard(self->cancelled, key) < 0 ? -1 : 1;
    Py_DECREF(key);
    return r;
}

static int
fh_parse_limit(PyObject *arg, int *has_limit, double *limit)
{
    if (arg == NULL || arg == Py_None) {
        *has_limit = 0;
        return 0;
    }
    double v = PyFloat_AsDouble(arg);
    if (v == -1.0 && PyErr_Occurred())
        return -1;
    *has_limit = 1;
    *limit = v;
    return 0;
}

static PyObject *
FlatHeapCore_push(FlatHeapCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "push(when, item)");
        return NULL;
    }
    double w = PyFloat_AsDouble(args[0]);
    if (w == -1.0 && PyErr_Occurred())
        return NULL;
    uint64_t s = self->n;
    Py_INCREF(args[1]);
    if (fh_push_entry(self, w, s, args[1]) < 0)
        return NULL;
    self->n = s + 1;
    return PyLong_FromUnsignedLongLong(s);
}

static PyObject *
FlatHeapCore_pop(FlatHeapCore *self, PyObject *const *args, Py_ssize_t nargs)
{
    int has_limit;
    double limit = 0.0;
    if (fh_parse_limit(nargs >= 1 ? args[0] : NULL, &has_limit, &limit) < 0)
        return NULL;
    while (self->size > 0) {
        if (has_limit && self->when[0] > limit)
            Py_RETURN_NONE;
        double w;
        uint64_t s;
        PyObject *it = fh_extract(self, &w, &s);
        int c = fh_check_cancelled(self, s);
        if (c != 0) {
            Py_DECREF(it);
            if (c < 0)
                return NULL;
            continue;
        }
        return Py_BuildValue("(dKN)", w, (unsigned long long)s, it);
    }
    Py_RETURN_NONE;
}

/* Append a live entry to the batch being built; steals `it`. */
static int
fh_run_append(FlatHeapCore *self, PyObject *items, uint64_t s, PyObject *it)
{
    if (PyList_Append(items, it) < 0) {
        Py_DECREF(it);
        return -1;
    }
    Py_DECREF(it);
    if (self->run_len == self->run_cap) {
        Py_ssize_t cap = self->run_cap ? self->run_cap * 2 : 64;
        uint64_t *rs = PyMem_Realloc(self->run_seqs, cap * sizeof(uint64_t));
        if (rs == NULL) { PyErr_NoMemory(); return -1; }
        self->run_seqs = rs;
        self->run_cap = cap;
    }
    self->run_seqs[self->run_len++] = s;
    return 0;
}

static PyObject *
FlatHeapCore_pop_run(FlatHeapCore *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    int has_limit;
    double limit = 0.0;
    if (fh_parse_limit(nargs >= 1 ? args[0] : NULL, &has_limit, &limit) < 0)
        return NULL;
    while (self->size > 0) {
        if (has_limit && self->when[0] > limit)
            Py_RETURN_NONE;
        double w;
        uint64_t s;
        PyObject *it = fh_extract(self, &w, &s);
        int c = fh_check_cancelled(self, s);
        if (c != 0) {
            Py_DECREF(it);
            if (c < 0)
                return NULL;
            continue;
        }
        PyObject *items = PyList_New(0);
        if (items == NULL) {
            Py_DECREF(it);
            return NULL;
        }
        self->run_len = 0;
        if (fh_run_append(self, items, s, it) < 0) {
            Py_DECREF(items);
            return NULL;
        }
        while (self->size > 0 && self->when[0] == w) {
            PyObject *it2 = fh_extract(self, &w, &s);
            c = fh_check_cancelled(self, s);
            if (c != 0) {
                Py_DECREF(it2);
                if (c < 0) {
                    Py_DECREF(items);
                    return NULL;
                }
                continue;
            }
            if (fh_run_append(self, items, s, it2) < 0) {
                Py_DECREF(items);
                return NULL;
            }
        }
        /* Register the live batch (cancel nulls slots in it), then hand
         * it to the caller as (when, items). */
        Py_INCREF(items);
        Py_XSETREF(self->run_items, items);
        return Py_BuildValue("(dN)", w, items);
    }
    Py_RETURN_NONE;
}

static PyObject *
FlatHeapCore_cancel(FlatHeapCore *self, PyObject *seq_obj)
{
    unsigned long long s = PyLong_AsUnsignedLongLong(seq_obj);
    if (s == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    /* A not-yet-dispatched member of the current pop_run batch is
     * cancelled in place: its slot in the live list becomes None. */
    for (Py_ssize_t i = 0; i < self->run_len; i++) {
        if (self->run_seqs[i] == (uint64_t)s) {
            if (PyList_GET_ITEM(self->run_items, i) != Py_None) {
                Py_INCREF(Py_None);
                PyList_SetItem(self->run_items, i, Py_None);
                Py_RETURN_TRUE;
            }
            Py_RETURN_FALSE;
        }
    }
    if (PySet_Add(self->cancelled, seq_obj) < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
FlatHeapCore_adopt(FlatHeapCore *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "adopt(entries, next_seq)");
        return NULL;
    }
    unsigned long long next_seq = PyLong_AsUnsignedLongLong(args[1]);
    if (next_seq == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    PyObject *fast = PySequence_Fast(args[0], "adopt() entries");
    if (fast == NULL)
        return NULL;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(fast);
    PyObject **entries = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *e = entries[i];
        if (!PyTuple_Check(e) || PyTuple_GET_SIZE(e) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "adopt() entries must be (when, seq, item)");
            Py_DECREF(fast);
            return NULL;
        }
        double w = PyFloat_AsDouble(PyTuple_GET_ITEM(e, 0));
        if (w == -1.0 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        unsigned long long s =
            PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(e, 1));
        if (s == (unsigned long long)-1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return NULL;
        }
        PyObject *it = PyTuple_GET_ITEM(e, 2);
        Py_INCREF(it);
        if (fh_push_entry(self, w, (uint64_t)s, it) < 0) {
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    self->n = (uint64_t)next_seq;
    Py_RETURN_NONE;
}

static PyObject *
FlatHeapCore_run_loop(FlatHeapCore *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "run_loop(env, until=None)");
        return NULL;
    }
    PyObject *env = args[0];
    int has_limit;
    double limit = 0.0;
    if (fh_parse_limit(nargs >= 2 ? args[1] : NULL, &has_limit, &limit) < 0)
        return NULL;
    while (self->size > 0) {
        if (has_limit && self->when[0] > limit)
            break;
        double w;
        uint64_t s;
        PyObject *it = fh_extract(self, &w, &s);
        int c = fh_check_cancelled(self, s);
        if (c != 0) {
            Py_DECREF(it);
            if (c < 0)
                return NULL;
            continue;
        }
        PyObject *now = PyFloat_FromDouble(w);
        if (now == NULL) {
            Py_DECREF(it);
            return NULL;
        }
        int r = PyObject_SetAttr(env, str_now, now);
        Py_DECREF(now);
        if (r < 0) {
            Py_DECREF(it);
            return NULL;
        }
        /* The callback may push (growing/reallocating the arrays),
         * cancel, or reschedule — everything above re-reads the heap
         * through `self` on the next iteration, so that is safe. */
        PyObject *res = PyObject_CallMethodNoArgs(it, str_run_callbacks);
        Py_DECREF(it);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
    }
    Py_RETURN_NONE;
}

static Py_ssize_t
FlatHeapCore_len(FlatHeapCore *self)
{
    return self->size - PySet_GET_SIZE(self->cancelled);
}

static int
FlatHeapCore_bool(PyObject *op)
{
    FlatHeapCore *self = (FlatHeapCore *)op;
    return self->size > PySet_GET_SIZE(self->cancelled);
}

static PyObject *
FlatHeapCore_get_pushes(FlatHeapCore *self, void *closure)
{
    return PyLong_FromUnsignedLongLong(self->n);
}

static int
FlatHeapCore_traverse(FlatHeapCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->item[i]);
    Py_VISIT(self->cancelled);
    Py_VISIT(self->run_items);
    return 0;
}

static int
FlatHeapCore_clear(FlatHeapCore *self)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_CLEAR(self->item[i]);
    self->size = 0;
    Py_CLEAR(self->cancelled);
    Py_CLEAR(self->run_items);
    self->run_len = 0;
    return 0;
}

static void
FlatHeapCore_dealloc(FlatHeapCore *self)
{
    PyObject_GC_UnTrack(self);
    FlatHeapCore_clear(self);
    PyMem_Free(self->when);
    PyMem_Free(self->seq);
    PyMem_Free(self->item);
    PyMem_Free(self->run_seqs);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
FlatHeapCore_init(FlatHeapCore *self, PyObject *args, PyObject *kwargs)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwargs && PyDict_Size(kwargs))) {
        PyErr_SetString(PyExc_TypeError, "FlatHeapCore takes no arguments");
        return -1;
    }
    PyObject *cancelled = PySet_New(NULL);
    if (cancelled == NULL)
        return -1;
    Py_XSETREF(self->cancelled, cancelled);
    PyObject *run_items = PyList_New(0);
    if (run_items == NULL)
        return -1;
    Py_XSETREF(self->run_items, run_items);
    self->run_len = 0;
    return 0;
}

static PyMethodDef FlatHeapCore_methods[] = {
    {"push", (PyCFunction)(void (*)(void))FlatHeapCore_push,
     METH_FASTCALL, "push(when, item) -> seq"},
    {"pop", (PyCFunction)(void (*)(void))FlatHeapCore_pop,
     METH_FASTCALL, "pop(limit=None) -> (when, seq, item) | None"},
    {"pop_run", (PyCFunction)(void (*)(void))FlatHeapCore_pop_run,
     METH_FASTCALL, "pop_run(limit=None) -> (when, items) | None"},
    {"cancel", (PyCFunction)FlatHeapCore_cancel,
     METH_O, "cancel(seq) -> bool"},
    {"adopt", (PyCFunction)(void (*)(void))FlatHeapCore_adopt,
     METH_FASTCALL, "adopt(entries, next_seq)"},
    {"run_loop", (PyCFunction)(void (*)(void))FlatHeapCore_run_loop,
     METH_FASTCALL,
     "run_loop(env, until=None): dispatch until drained or past until"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef FlatHeapCore_getset[] = {
    {"pushes", (getter)FlatHeapCore_get_pushes, NULL,
     "Total entries ever pushed (the simulator's event counter).", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods FlatHeapCore_as_sequence = {
    .sq_length = (lenfunc)FlatHeapCore_len,
};

static PyNumberMethods FlatHeapCore_as_number = {
    .nb_bool = FlatHeapCore_bool,
};

static PyTypeObject FlatHeapCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_sched_core.FlatHeapCore",
    .tp_basicsize = sizeof(FlatHeapCore),
    .tp_dealloc = (destructor)FlatHeapCore_dealloc,
    .tp_as_sequence = &FlatHeapCore_as_sequence,
    .tp_as_number = &FlatHeapCore_as_number,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Flat-heap scheduler with C storage and a C dispatch loop.",
    .tp_traverse = (traverseproc)FlatHeapCore_traverse,
    .tp_clear = (inquiry)FlatHeapCore_clear,
    .tp_methods = FlatHeapCore_methods,
    .tp_getset = FlatHeapCore_getset,
    .tp_init = (initproc)FlatHeapCore_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static struct PyModuleDef sched_core_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sched_core",
    .m_doc = "Compiled event core: C flat-heap scheduler + dispatch loop.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__sched_core(void)
{
    str_now = PyUnicode_InternFromString("now");
    if (str_now == NULL)
        return NULL;
    str_run_callbacks = PyUnicode_InternFromString("_run_callbacks");
    if (str_run_callbacks == NULL)
        return NULL;
    if (PyType_Ready(&FlatHeapCoreType) < 0)
        return NULL;
    /* The scheduler registry keys provenance off `name`; the C core
     * serves under the same flatheap banner as the python reference. */
    PyObject *name = PyUnicode_InternFromString("flatheap");
    if (name == NULL)
        return NULL;
    int r = PyDict_SetItemString(FlatHeapCoreType.tp_dict, "name", name);
    Py_DECREF(name);
    if (r < 0)
        return NULL;
    PyType_Modified(&FlatHeapCoreType);
    PyObject *m = PyModule_Create(&sched_core_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&FlatHeapCoreType);
    if (PyModule_AddObject(m, "FlatHeapCore",
                           (PyObject *)&FlatHeapCoreType) < 0) {
        Py_DECREF(&FlatHeapCoreType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
