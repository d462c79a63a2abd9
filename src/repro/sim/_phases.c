/* The link and crossbar phases of Engine.step, compiled, and what every
 * translation unit of the kernel shares (declared in _phases.h): names, slot
 * table, accessors, setup() and the module itself.
 *
 * The phases are a transcription of the Python loops in engine.py -- same
 * statement order, same probe calls, same values stored -- and
 * tests/test_property_engine.py steps the two side by side, so the Python
 * loops stay the reference.  Injection and routing are in _routing.c, the
 * four select()s in _select.c.
 *
 * Built by native.py with the interpreter's own C compiler at -O1, one unit
 * at a time.
 */
#include "_phases.h"
#ifndef Py_T_OBJECT_EX /* CPython < 3.12 */
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#endif

#define X(n) PyObject *s_##n;
NAMES(X)
#undef X

PyTypeObject *classes[N_CLASSES];
struct slot slots[N_SLOTS] = {
#define X(c, a) {c, #a, 0, NULL},
    SLOTS(X)
#undef X
};

PyObject *zero, *one;

/* -- slot access ------------------------------------------------------------- */

int
as_int_slow(PyObject *v, long long *out)
{
    *out = PyLong_AsLongLong(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

int
need_slow(PyObject *o, int i)
{
    PyTypeObject *cls = classes[slots[i].cls];
    PyObject *v;
    if (cls == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "setup() has not been called");
        return -1;
    }
    if (PyType_IsSubtype(Py_TYPE(o), cls))
        return 0;
    /* what the Python loop raises here: None has no such attribute */
    if ((v = PyObject_GetAttr(o, slots[i].name)) == NULL)
        return -1;
    Py_DECREF(v);
    PyErr_Format(PyExc_TypeError, "the compiled phases need a %s, not a %s",
                 cls->tp_name, Py_TYPE(o)->tp_name);
    return -1;
}

/* a big int, or whatever is wrong with the slot */
int
get_int_slow(PyObject *o, int i, long long *out)
{
    PyObject *v = get_obj(o, i);
    if (v == NULL)
        return -1;
    if (PyLong_Check(v))
        return as_int_slow(v, out);
    PyErr_Format(PyExc_TypeError, "%s.%s must be an int, not %s",
                 Py_TYPE(o)->tp_name, slots[i].attr, Py_TYPE(v)->tp_name);
    return -1;
}

int
set_int(PyObject *o, int i, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    set_obj(o, i, v);
    Py_DECREF(v);
    return 0;
}

/* o.<slot> += delta */
int
add_int(PyObject *o, int i, long long delta)
{
    long long v;
    return get_int(o, i, &v) < 0 ? -1 : set_int(o, i, v + delta);
}

/* -- plain attributes, items and calls ---------------------------------------- */

int
attr_int(PyObject *o, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(o, name);
    int rc;
    if (v == NULL)
        return -1;
    rc = as_int(v, out);
    Py_DECREF(v);
    return rc;
}

/* o.<name> += delta */
int
attr_add(PyObject *o, PyObject *name, long long delta)
{
    long long v;
    PyObject *sum;
    int rc;
    if (attr_int(o, name, &v) < 0 || (sum = PyLong_FromLongLong(v + delta)) == NULL)
        return -1;
    rc = PyObject_SetAttr(o, name, sum);
    Py_DECREF(sum);
    return rc;
}

/* bool(o.<name>) */
int
attr_true(PyObject *o, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(o, name);
    int rc;
    if (v == NULL)
        return -1;
    rc = PyObject_IsTrue(v);
    Py_DECREF(v);
    return rc;
}

/* the out-of-line half of item(): negative indices, tuples, and the errors */
PyObject *
item_slow(PyObject *seq, long long i)
{
    Py_ssize_t n;
    if (!PyList_Check(seq) && !PyTuple_Check(seq)) {
        PyErr_Format(PyExc_TypeError, "the compiled phases index lists and tuples, not a %s",
                     Py_TYPE(seq)->tp_name);
        return NULL;
    }
    n = Py_SIZE(seq);
    if (i < 0)
        i += n;
    if (i < 0 || i >= n) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_Check(seq) ? PyList_GET_ITEM(seq, i) : PyTuple_GET_ITEM(seq, i);
}

/* list[index] += 1 */
static int
count_one(PyObject *list, long long index)
{
    long long count;
    PyObject *sum;
    if (!PyList_Check(list) || index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    if (as_int(PyList_GET_ITEM(list, index), &count) < 0
        || (sum = PyLong_FromLongLong(count + 1)) == NULL)
        return -1;
    return PyList_SetItem(list, index, sum);
}

/* NULL when the handler object is None or nobody consumes the event */
int
handler(PyObject *handlers, PyObject *event, PyObject **out)
{
    *out = NULL;
    if (handlers == Py_None)
        return 0;
    if ((*out = PyObject_GetAttr(handlers, event)) == NULL)
        return -1;
    if (*out == Py_None)
        Py_CLEAR(*out);
    return 0;
}

/* fn(a, b, ...): the arguments end at the first NULL */
int
call(PyObject *fn, PyObject *a, PyObject *b, PyObject *c, PyObject *d)
{
    PyObject *r = PyObject_CallFunctionObjArgs(fn, a, b, c, d, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* -- Engine._enqueue_header ---------------------------------------------------- */

int
headers_open(Headers *h, PyObject *engine)
{
    h->engine = engine;
    if ((h->awake = PyObject_GetAttr(engine, s__route_awake)) == NULL
        || (h->pending = PyObject_GetAttr(engine, s_pending)) == NULL
        || (h->in_queue = PyObject_GetAttr(engine, s__in_route_queue)) == NULL)
        return -1;
    return 0;
}

void
headers_close(Headers *h)
{
    Py_XDECREF(h->awake);
    Py_XDECREF(h->pending);
    Py_XDECREF(h->in_queue);
}

int
enqueue_header(Headers *h, PyObject *lane)
{
    PyObject *s, *pend = NULL, *queued = NULL, *queue = NULL;
    int rc = -1, is_queued;
    if ((s = get_obj(lane, IL_switch)) == NULL)
        return -1;
    Py_INCREF(s);
    if ((pend = PyObject_GetItem(h->pending, s)) == NULL
        || (queue = PyObject_GetAttr(h->engine, s_route_queue)) == NULL)
        goto done;
    if (!PyList_Check(pend) || !PyList_Check(queue)) {
        PyErr_SetString(PyExc_TypeError, "the engine's routing queues must be lists");
        goto done;
    }
    if (PyList_Append(pend, lane) < 0
        || PyObject_SetItem(h->awake, s, Py_True) < 0
        || (queued = PyObject_GetItem(h->in_queue, s)) == NULL
        || (is_queued = PyObject_IsTrue(queued)) < 0
        || (!is_queued
            && (PyObject_SetItem(h->in_queue, s, Py_True) < 0 || PyList_Append(queue, s) < 0)))
        goto done;
    rc = 0;
done:
    Py_DECREF(s);
    Py_XDECREF(pend);
    Py_XDECREF(queued);
    Py_XDECREF(queue);
    return rc;
}

/* -- the link phase ----------------------------------------------------------- */

typedef struct {
    Headers h;            /* the engine (borrowed) and its routing queues */
    PyObject *t;          /* borrowed from the caller */
    long long now;        /* t */
    int warm, age;
    long long delivered;  /* flits ejected so far this cycle */
    /* owned; a handler nobody consumes is NULL */
    PyObject *on_blocked, *on_head_arrived, *on_head_delivered, *on_tail_delivered;
    PyObject *rr_after, *per_node, *config, *result;
} Link;

static void
link_close(Link *k)
{
    Py_XDECREF(k->on_blocked);
    Py_XDECREF(k->on_head_arrived);
    Py_XDECREF(k->on_head_delivered);
    Py_XDECREF(k->on_tail_delivered);
    headers_close(&k->h);
    Py_XDECREF(k->rr_after);
    Py_XDECREF(k->per_node);
    Py_XDECREF(k->config);
    Py_XDECREF(k->result);
}

static int
link_open(Link *k, PyObject *handlers)
{
    PyObject *e = k->h.engine;
    if (as_int(k->t, &k->now) < 0
        || headers_open(&k->h, e) < 0
        || handler(handlers, s_on_direction_blocked, &k->on_blocked) < 0
        || handler(handlers, s_on_head_arrived, &k->on_head_arrived) < 0
        || handler(handlers, s_on_head_delivered, &k->on_head_delivered) < 0
        || handler(handlers, s_on_tail_delivered, &k->on_tail_delivered) < 0
        || (k->rr_after = PyObject_GetAttr(e, s__rr_after)) == NULL
        || (k->per_node = PyObject_GetAttr(e, s_delivered_flits_per_node)) == NULL
        || (k->config = PyObject_GetAttr(e, s_config)) == NULL
        || (k->result = PyObject_GetAttr(e, s_result)) == NULL
        || (k->age = attr_true(e, s__age_arbiter)) < 0)
        return -1;
    return 0;
}

/* The arbiter of direction d: 1 and the chosen lane (borrowed) when a flit
 * can cross, 0 when d is idle or blocked (after telling the probe), -1 on
 * error.  Oldest packet first, lowest lane on ties, under the age arbiter;
 * else the first lane with a flit and a credit from d.rr round. */
static int
pick_lane(Link *k, PyObject *d, PyObject **chosen)
{
    PyObject *lanes, *cand, *pkt, *best = NULL;
    long long nbusy, rr = 0, buffered, credits, created, best_age = 0;
    Py_ssize_t i, n;

    if (SLOT(d, LD_nbusy) == zero)
        return 0;
    if (get_int(d, LD_nbusy, &nbusy) < 0)
        return -1;
    if (nbusy == 0)
        return 0;
    if ((lanes = get_obj(d, LD_lanes)) == NULL)
        return -1;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "LinkDirection.lanes must be a list");
        return -1;
    }
    n = PyList_GET_SIZE(lanes);
    if (!k->age) {
        if (get_int(d, LD_rr, &rr) < 0)
            return -1;
        if (rr < 0 || rr >= n) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            return -1;
        }
    }
    for (i = 0; i < n; i++) {
        cand = PyList_GET_ITEM(lanes, (rr + i) % n);
        if (need(cand, OL_buffered) < 0 || get_int(cand, OL_buffered, &buffered) < 0)
            return -1;
        if (buffered <= 0)
            continue;
        if (get_int(cand, OL_credits, &credits) < 0)
            return -1;
        if (credits <= 0)
            continue;
        if (!k->age) {
            best = cand;
            break;
        }
        if ((pkt = get_obj(cand, OL_packet)) == NULL
            || need(pkt, PK_created) < 0
            || get_int(pkt, PK_created, &created) < 0)
            return -1;
        if (best == NULL || created < best_age) {
            best = cand;
            best_age = created;
        }
    }
    if (best == NULL) {
        if (k->on_blocked != NULL && call(k->on_blocked, k->t, d, NULL, NULL) < 0)
            return -1;
        return 0;
    }
    *chosen = best;
    return 1;
}

/* The flit leaves its output lane: counters of the lane and of d.  The
 * lane's packet and sink come back as new references -- with the lane they
 * are in use across the probe calls. */
static int
take_flit(PyObject *d, PyObject *lane, int sink_slot, PyObject **pkt, PyObject **sink)
{
    long long left;
    PyObject *p, *s;
    if ((p = get_obj(lane, OL_packet)) == NULL
        || need(p, PK_size) < 0
        || get_int(lane, OL_buffered, &left) < 0
        || set_int(lane, OL_buffered, left - 1) < 0
        || (left == 1 && add_int(d, LD_nbusy, -1) < 0)
        || add_int(lane, OL_credits, -1) < 0
        || add_int(d, LD_flits, 1) < 0
        || (s = get_obj(lane, OL_sink)) == NULL
        || need(s, sink_slot) < 0)
        return -1;
    *pkt = Py_NewRef(p);
    *sink = Py_NewRef(s);
    return 0;
}

/* d.rr = rr_after[lane.vc] */
static int
advance_rr(Link *k, PyObject *d, PyObject *lane)
{
    long long vc;
    PyObject *next;
    if (get_int(lane, OL_vc, &vc) < 0
        || (next = PySequence_GetItem(k->rr_after, (Py_ssize_t)vc)) == NULL)
        return -1;
    set_obj(d, LD_rr, next);
    Py_DECREF(next);
    return 0;
}

/* One switch->switch direction: 1 when a flit crossed, 0 when none, -1 on error. */
static int
fabric_hop(Link *k, PyObject *d)
{
    PyObject *lane, *pkt = NULL, *sink = NULL, *held;
    long long received, size;
    int rc = pick_lane(k, d, &lane);
    if (rc <= 0)
        return rc;
    Py_INCREF(lane);
    rc = -1;
    if (take_flit(d, lane, IL_packet, &pkt, &sink) < 0)
        goto done;
    set_obj(sink, IL_last_arrival, k->t);
    if ((held = get_obj(sink, IL_packet)) == NULL)
        goto done;
    if (held == Py_None) {
        received = 1;
        set_obj(sink, IL_packet, pkt);
        set_obj(sink, IL_received, one);
        if (enqueue_header(&k->h, sink) < 0
            || (k->on_head_arrived != NULL && call(k->on_head_arrived, k->t, sink, pkt, NULL) < 0))
            goto done;
    }
    else {
        if (get_int(sink, IL_received, &received) < 0)
            goto done;
        received += 1;
        if (set_int(sink, IL_received, received) < 0)
            goto done;
    }
    if (get_int(pkt, PK_size, &size) < 0)
        goto done;
    if (received == size) /* tail left this switch: free the output lane */
        set_obj(lane, OL_packet, Py_None);
    rc = advance_rr(k, d, lane) < 0 ? -1 : 1;
done:
    Py_DECREF(lane);
    Py_XDECREF(pkt);
    Py_XDECREF(sink);
    return rc;
}

/* The measurement-window statistics of a delivered packet. */
static int
record_delivery(Link *k, PyObject *pkt)
{
    PyObject *res = k->result, *lat = NULL, *list = NULL;
    long long injected, warmup, head, latency, worst;
    int rc = -1, collect;
    if (get_int(pkt, PK_injected, &injected) < 0
        || attr_int(k->config, s_warmup_cycles, &warmup) < 0)
        return -1;
    if (injected < warmup)
        return 0;
    latency = k->now - injected;
    if (attr_add(res, s_delivered_packets, 1) < 0
        || attr_add(res, s_latency_sum, latency) < 0
        || get_int(pkt, PK_head_delivered, &head) < 0
        || attr_add(res, s_head_latency_sum, head - injected) < 0
        || attr_int(res, s_latency_max, &worst) < 0
        || (lat = PyLong_FromLongLong(latency)) == NULL
        || (latency > worst && PyObject_SetAttr(res, s_latency_max, lat) < 0)
        || (collect = attr_true(k->config, s_collect_latencies)) < 0)
        goto done;
    if (collect) {
        if ((list = PyObject_GetAttr(res, s_latencies)) == NULL)
            goto done;
        if (!PyList_Check(list)) {
            PyErr_SetString(PyExc_TypeError, "RunResult.latencies must be a list");
            goto done;
        }
        if (PyList_Append(list, lat) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(lat);
    Py_XDECREF(list);
    return rc;
}

/* One ejection direction; the node consumes the flit immediately. */
static int
eject_hop(Link *k, PyObject *d)
{
    PyObject *lane, *pkt = NULL, *sink = NULL, *held, *s;
    long long received, size, node;
    int rc = pick_lane(k, d, &lane);
    if (rc <= 0)
        return rc;
    Py_INCREF(lane);
    rc = -1;
    if (take_flit(d, lane, EJ_packet, &pkt, &sink) < 0 || (held = get_obj(sink, EJ_packet)) == NULL)
        goto done;
    if (held == Py_None) {
        received = 1;
        set_obj(sink, EJ_packet, pkt);
        set_obj(pkt, PK_head_delivered, k->t);
        if (k->on_head_delivered != NULL && call(k->on_head_delivered, k->t, pkt, NULL, NULL) < 0)
            goto done;
    }
    else {
        if (get_int(sink, EJ_received, &received) < 0)
            goto done;
        received += 1;
    }
    k->delivered += 1;
    if (k->warm && (get_int(sink, EJ_node, &node) < 0 || count_one(k->per_node, node) < 0))
        goto done;
    if (get_int(pkt, PK_size, &size) < 0)
        goto done;
    if (received == size) {
        set_obj(pkt, PK_delivered, k->t);
        set_obj(sink, EJ_packet, Py_None);
        set_obj(sink, EJ_received, zero);
        /* an output lane of this switch is allocatable again */
        if ((s = get_obj(lane, OL_switch)) == NULL
            || PyObject_SetItem(k->h.awake, s, Py_True) < 0
            || attr_add(k->h.engine, s_delivered_packets_total, 1) < 0
            || (k->on_tail_delivered != NULL && call(k->on_tail_delivered, k->t, pkt, NULL, NULL) < 0)
            || record_delivery(k, pkt) < 0)
            goto done;
        /* the tail left the switch too: free the output lane */
        set_obj(lane, OL_packet, Py_None);
    }
    else if (set_int(sink, EJ_received, received) < 0)
        goto done;
    rc = advance_rr(k, d, lane) < 0 ? -1 : 1;
done:
    Py_DECREF(lane);
    Py_XDECREF(pkt);
    Py_XDECREF(sink);
    return rc;
}

/* Every direction of engine.<name>, in list order: 1 when any flit crossed. */
static int
walk(Link *k, PyObject *name, int (*hop)(Link *, PyObject *))
{
    PyObject *dirs = PyObject_GetAttr(k->h.engine, name), *d;
    Py_ssize_t i;
    int rc = 0, moved;
    if (dirs == NULL)
        return -1;
    if (!PyList_Check(dirs)) {
        PyErr_SetString(PyExc_TypeError, "engine directions must be a list");
        rc = -1;
    }
    for (i = 0; rc >= 0 && i < PyList_GET_SIZE(dirs); i++) {
        d = Py_NewRef(PyList_GET_ITEM(dirs, i)); /* a probe may run in the hop */
        moved = need(d, LD_nbusy) < 0 ? -1 : hop(k, d);
        Py_DECREF(d);
        rc = moved < 0 ? -1 : rc | moved;
    }
    Py_DECREF(dirs);
    return rc;
}

/* link_phase(engine, t, handlers, warm) -> progress */
static PyObject *
link_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Link k = {0};
    int fabric, eject = -1;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "link_phase(engine, t, handlers, warm)");
        return NULL;
    }
    k.h.engine = args[0];
    k.t = args[1];
    k.warm = PyObject_IsTrue(args[3]);
    if (k.warm < 0 || link_open(&k, args[2]) < 0) {
        link_close(&k);
        return NULL;
    }
    /* switch->switch directions first, then ejection: the order of Engine.dirs */
    fabric = walk(&k, s__fabric_dirs, fabric_hop);
    if (fabric >= 0)
        eject = walk(&k, s__eject_dirs, eject_hop);
    if (eject >= 0 && k.delivered) {
        if (attr_add(k.h.engine, s_delivered_flits_total, k.delivered) < 0
            || (k.warm
                && (attr_add(k.result, s_delivered_flits, k.delivered) < 0
                    || attr_add(k.h.engine, s__interval_delivered, k.delivered) < 0)))
            eject = -1;
    }
    link_close(&k);
    if (eject < 0)
        return NULL;
    return PyBool_FromLong(fabric | eject);
}

/* -- the crossbar phase -------------------------------------------------------- */

/* One binding forwards a flit if it holds one that did not arrive this
 * cycle and its output lane has space: 1 when the binding stays, 0 when its
 * tail went through, -1 on error; *moved is set when a flit crossed. */
static int
forward(PyObject *lane, long long now, long long cap, PyObject *awake, int *moved)
{
    PyObject *out, *src_out, *direction, *pkt, *s;
    long long forwarded, received, arrival, filled, size;
    if (need(lane, IL_forwarded) < 0
        || get_int(lane, IL_forwarded, &forwarded) < 0
        || get_int(lane, IL_received, &received) < 0)
        return -1;
    /* a flit that arrived in this cycle's link phase waits a cycle */
    if (received - forwarded < 1)
        return 1;
    if (received - forwarded == 1) {
        if (get_int(lane, IL_last_arrival, &arrival) < 0)
            return -1;
        if (arrival == now)
            return 1;
    }
    if ((out = get_obj(lane, IL_bound)) == NULL
        || need(out, OL_buffered) < 0
        || get_int(out, OL_buffered, &filled) < 0)
        return -1;
    if (filled >= cap)
        return 1;
    if (filled == 0) {
        if ((direction = get_obj(out, OL_direction)) == NULL
            || need(direction, LD_nbusy) < 0
            || add_int(direction, LD_nbusy, 1) < 0)
            return -1;
    }
    if (set_int(out, OL_buffered, filled + 1) < 0 || (src_out = get_obj(lane, IL_src_out)) == NULL)
        return -1;
    if (src_out != Py_None && (need(src_out, OL_credits) < 0 || add_int(src_out, OL_credits, 1) < 0))
        return -1;
    *moved = 1;
    forwarded += 1;
    if ((pkt = get_obj(lane, IL_packet)) == NULL
        || need(pkt, PK_size) < 0
        || get_int(pkt, PK_size, &size) < 0)
        return -1;
    if (forwarded != size)
        return set_int(lane, IL_forwarded, forwarded) < 0 ? -1 : 1;
    /* tail through the crossbar: release the input lane, which makes the
     * upstream output lane allocatable again */
    set_obj(lane, IL_packet, Py_None);
    set_obj(lane, IL_received, zero);
    set_obj(lane, IL_forwarded, zero);
    set_obj(lane, IL_bound, Py_None);
    if (src_out != Py_None
        && ((s = get_obj(src_out, OL_switch)) == NULL || PyObject_SetItem(awake, s, Py_True) < 0))
        return -1;
    return 0;
}

/* crossbar_phase(engine, t) -> progress; engine.bindings is replaced by a
 * new list without the bindings whose tail went through */
static PyObject *
crossbar_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *engine, *config, *old = NULL, *kept = NULL, *awake = NULL, *lane;
    long long now, cap;
    Py_ssize_t i;
    int moved = 0, rc = -1;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "crossbar_phase(engine, t)");
        return NULL;
    }
    engine = args[0];
    if (as_int(args[1], &now) < 0 || (config = PyObject_GetAttr(engine, s_config)) == NULL)
        return NULL;
    rc = attr_int(config, s_buffer_flits, &cap);
    Py_DECREF(config);
    if (rc < 0)
        return NULL;
    rc = -1;
    if ((old = PyObject_GetAttr(engine, s_bindings)) == NULL
        || (awake = PyObject_GetAttr(engine, s__route_awake)) == NULL
        || (kept = PyList_New(0)) == NULL)
        goto done;
    if (!PyList_Check(old)) {
        PyErr_SetString(PyExc_TypeError, "Engine.bindings must be a list");
        goto done;
    }
    for (i = 0; i < PyList_GET_SIZE(old); i++) {
        lane = PyList_GET_ITEM(old, i);
        rc = forward(lane, now, cap, awake, &moved);
        if (rc > 0)
            rc = PyList_Append(kept, lane);
        if (rc < 0)
            goto done;
    }
    rc = PyObject_SetAttr(engine, s_bindings, kept);
done:
    Py_XDECREF(old);
    Py_XDECREF(awake);
    Py_XDECREF(kept);
    return rc < 0 ? NULL : PyBool_FromLong(moved);
}

/* -- start-up ------------------------------------------------------------------ */

/* setup(InputLane, OutputLane, EjectionLane, LinkDirection, Packet, _Node,
 * TreeAdaptiveRouting, TreeDeterministicRouting, DimensionOrderRouting,
 * DuatoAdaptiveRouting): resolve every slot's offset from its member
 * descriptor -- raises when a class is not laid out the way the phases address
 * it -- and remember the algorithms whose select() exists compiled. */
static PyObject *
setup(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    int i;
    if (nargs != N_CLASSES) {
        PyErr_SetString(PyExc_TypeError, "setup() takes the six slotted classes and the four routing algorithms");
        return NULL;
    }
    for (i = 0; i < N_CLASSES; i++)
        if (!PyType_Check(args[i])) {
            PyErr_SetString(PyExc_TypeError, "setup() takes classes");
            return NULL;
        }
    for (i = 0; i < N_SLOTS; i++) {
        PyObject *cls = args[slots[i].cls], *descr;
        PyMemberDef *member;
        Py_XSETREF(slots[i].name, PyUnicode_InternFromString(slots[i].attr));
        if (slots[i].name == NULL)
            return NULL;
        descr = PyDict_GetItemWithError(((PyTypeObject *)cls)->tp_dict, slots[i].name);
        if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
            || (member = ((PyMemberDescrObject *)descr)->d_member)->type != Py_T_OBJECT_EX) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s.%s is not a slot",
                             ((PyTypeObject *)cls)->tp_name, slots[i].attr);
            return NULL;
        }
        slots[i].offset = member->offset;
    }
    for (i = 0; i < N_CLASSES; i++)
        Py_XSETREF(classes[i], (PyTypeObject *)Py_NewRef(args[i]));
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"setup", (PyCFunction)(void (*)(void))setup, METH_FASTCALL, NULL},
    {"link_phase", (PyCFunction)(void (*)(void))link_phase, METH_FASTCALL, NULL},
    {"injection_phase", (PyCFunction)(void (*)(void))injection_phase, METH_FASTCALL, NULL},
    {"crossbar_phase", (PyCFunction)(void (*)(void))crossbar_phase, METH_FASTCALL, NULL},
    {"routing_phase", (PyCFunction)(void (*)(void))routing_phase, METH_FASTCALL, NULL},
    {"select", (PyCFunction)(void (*)(void))select_lane, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef definition = {
    PyModuleDef_HEAD_INIT, "_phases", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__phases(void)
{
#define X(n) \
    if ((s_##n = PyUnicode_InternFromString(#n)) == NULL) \
        return NULL;
    NAMES(X)
#undef X
    if ((zero = PyLong_FromLong(0)) == NULL || (one = PyLong_FromLong(1)) == NULL)
        return NULL;
    return PyModule_Create(&definition);
}
