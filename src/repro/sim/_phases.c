/* The link and crossbar phases of Engine.step, compiled, and what every
 * translation unit of the kernel shares (declared in _phases.h): names, field
 * table, accessors and the module itself.
 *
 * The phases are a transcription of the reference, phases.py: a function
 * there has a function of its name here or in _routing.c -- same statement
 * order, same probe calls, same values stored -- and its docstring says how
 * the pair is held together (the twin rule).  Injection and routing are in
 * _routing.c, the four select()s in _select.c, the struct types under the
 * classes and the setup() that checks the classes against the field table in
 * _storage.c.
 *
 * Built by native.py with the interpreter's own C compiler at -O1, one unit
 * at a time.
 */
#include "_phases.h"

#define X(n) PyObject *s_##n;
NAMES(X)
#undef X

PyTypeObject *classes[N_CLASSES];
struct slot slots[N_SLOTS] = {
#define X(c, a, k) {c, #a, Py_T_##k, 0, NULL},
    SLOTS(X)
#undef X
};

/* -- field access ------------------------------------------------------------ */

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
    /* what the reference raises here: None has no such attribute */
    if ((v = PyObject_GetAttr(o, slots[i].name)) == NULL)
        return -1;
    Py_DECREF(v);
    PyErr_Format(PyExc_TypeError, "the compiled phases need a %s, not a %s",
                 cls->tp_name, Py_TYPE(o)->tp_name);
    return -1;
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

/* the out-of-line half of put(): negative indices and the errors */
int
put_slow(PyObject *list, long long i, PyObject *value)
{
    if (item(list, i) == NULL)
        return -1;
    if (!PyList_Check(list)) {
        PyErr_SetString(PyExc_TypeError, "the engine's routing tables must be lists");
        return -1;
    }
    return PyList_SetItem(list, i < 0 ? i + PyList_GET_SIZE(list) : i, Py_NewRef(value));
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

/* -- enqueue_header ------------------------------------------------------------- */

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
    long long s = INT(lane, IL_switch);
    PyObject *pend, *queued, *queue, *switch_id = NULL;
    int rc;
    if ((pend = item(h->pending, s)) == NULL)
        return -1;
    if (!PyList_Check(pend)) {
        PyErr_SetString(PyExc_TypeError, "the engine's routing queues must be lists");
        return -1;
    }
    if (PyList_Append(pend, lane) < 0
        || put(h->awake, s, Py_True) < 0
        || (queued = item(h->in_queue, s)) == NULL
        || (rc = truth(queued)) < 0)
        return -1;
    if (rc) /* queued already */
        return 0;
    /* the switch joins the routing queue */
    if (put(h->in_queue, s, Py_True) < 0
        || (queue = PyObject_GetAttr(h->engine, s_route_queue)) == NULL)
        return -1;
    rc = -1;
    if (!PyList_Check(queue))
        PyErr_SetString(PyExc_TypeError, "the engine's routing queues must be lists");
    else if ((switch_id = PyLong_FromLongLong(s)) != NULL)
        rc = PyList_Append(queue, switch_id);
    Py_XDECREF(switch_id);
    Py_DECREF(queue);
    return rc;
}

/* -- look-ahead ---------------------------------------------------------------- */

/* The walks below visit objects scattered over the heap, and what a visit
 * costs is mostly the wait for their first load.  So each walk asks for the
 * cache lines of what it will visit a few positions on.  A look-ahead takes no
 * reference, stores nothing and raises nothing, and reads a field of an
 * object only after the test need() makes on it: whatever else lies ahead of
 * the cursor is skipped, and the visit raises what it raises. */

/* distances, in positions of the list walked (DESIGN.md section 6 has the
 * measurements behind them) */
enum { DIRECTIONS_AHEAD = 3, BINDINGS_AHEAD = 12, BOUND_AHEAD = 6 };

/* The two cache lines the fields of a lane start in.  A macro: gcc counts a
 * prefetch as no side effect and drops the calls of a function that has no
 * other, so what lies ahead is found by a function and asked for here. */
#define FETCH(o) (__builtin_prefetch(o), __builtin_prefetch((const char *)(o) + 64))

/* the lanes of d where the link walk will scan them -- d is a direction with
 * a flit waiting -- and they are a list; else NULL */
static inline PyObject *
lanes_ahead(PyObject *d)
{
    PyObject *lanes;
    if (!Py_IS_TYPE(d, classes[LD]) || INT(d, LD_nbusy) == 0)
        return NULL;
    lanes = REF(d, LD_lanes);
    return lanes != NULL && PyList_CheckExact(lanes) ? lanes : NULL;
}

/* the output lane a binding forwards to where it has one; else NULL */
static inline PyObject *
bound_ahead(PyObject *lane)
{
    return Py_IS_TYPE(lane, classes[IL]) ? REF(lane, IL_bound) : NULL;
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

/* The arbiter of the busy direction d: 1 and the chosen lane (borrowed) when
 * a flit can cross, 0 when d is blocked (after counting the cycle in
 * d.blocked and telling the probe), -1 on error.  Oldest packet first,
 * lowest lane on ties, under the age arbiter; else the first lane with a
 * flit and a credit from d.rr round. */
static int
pick_lane(Link *k, PyObject *d, PyObject **chosen)
{
    PyObject *lanes, *cand, *pkt, *best = NULL;
    long long rr = 0, created, best_age = 0;
    Py_ssize_t i, n, at;

    if ((lanes = get_obj(d, LD_lanes)) == NULL)
        return -1;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "LinkDirection.lanes must be a list");
        return -1;
    }
    n = PyList_GET_SIZE(lanes);
    if (!k->age) {
        rr = INT(d, LD_rr);
        if (rr < 0 || rr >= n) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            return -1;
        }
    }
    for (i = 0, at = rr; i < n; i++, at++) {
        if (at == n)
            at = 0;
        cand = PyList_GET_ITEM(lanes, at);
        if (need(cand, OL_buffered) < 0)
            return -1;
        if (INT(cand, OL_buffered) <= 0 || INT(cand, OL_credits) <= 0)
            continue;
        if (!k->age) {
            best = cand;
            break;
        }
        if ((pkt = get_obj(cand, OL_packet)) == NULL || need(pkt, PK_created) < 0)
            return -1;
        created = INT(pkt, PK_created);
        if (best == NULL || created < best_age) {
            best = cand;
            best_age = created;
        }
    }
    if (best == NULL) {
        INT(d, LD_blocked) += 1;
        if (k->on_blocked != NULL && call(k->on_blocked, k->t, d, NULL, NULL) < 0)
            return -1;
        return 0;
    }
    *chosen = best;
    return 1;
}

/* The flit leaves its output lane: counters of the lane and of d.  The
 * lane's packet and sink come back as new references -- with the lane they
 * are in use across the probe calls.  What the packet is comes out where the
 * reference first looks into it. */
static int
take_flit(PyObject *d, PyObject *lane, int sink_slot, PyObject **pkt, PyObject **sink)
{
    PyObject *p, *s;
    if ((p = get_obj(lane, OL_packet)) == NULL)
        return -1;
    if ((INT(lane, OL_buffered) -= 1) == 0)
        INT(d, LD_nbusy) -= 1;
    INT(lane, OL_credits) -= 1;
    INT(d, LD_flits) += 1;
    if ((s = get_obj(lane, OL_sink)) == NULL || need(s, sink_slot) < 0)
        return -1;
    *pkt = Py_NewRef(p);
    *sink = Py_NewRef(s);
    return 0;
}

/* d.rr = rr_after[lane.vc] */
static int
advance_rr(Link *k, PyObject *d, PyObject *lane)
{
    long long rr;
    if (int_item(k->rr_after, INT(lane, OL_vc), &rr) < 0)
        return -1;
    INT(d, LD_rr) = rr;
    return 0;
}

/* One switch->switch direction: 1 when a flit crossed, 0 when none, -1 on error. */
static int
fabric_hop(Link *k, PyObject *d)
{
    PyObject *lane, *pkt = NULL, *sink = NULL, *held;
    long long received;
    int rc = pick_lane(k, d, &lane);
    if (rc <= 0)
        return rc;
    Py_INCREF(lane);
    rc = -1;
    if (take_flit(d, lane, IL_packet, &pkt, &sink) < 0)
        goto done;
    INT(sink, IL_last_arrival) = k->now;
    if ((held = get_obj(sink, IL_packet)) == NULL)
        goto done;
    if (held == Py_None) {
        set_obj(sink, IL_packet, pkt);
        INT(sink, IL_received) = received = 1;
        if (enqueue_header(&k->h, sink) < 0
            || (k->on_head_arrived != NULL && call(k->on_head_arrived, k->t, sink, pkt, NULL) < 0))
            goto done;
    }
    else
        received = INT(sink, IL_received) += 1;
    if (need(pkt, PK_size) < 0)
        goto done;
    if (received == INT(pkt, PK_size)) /* tail left this switch: free the output lane */
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
    long long injected = INT(pkt, PK_injected), warmup, latency, worst;
    int rc = -1, collect;
    if (attr_int(k->config, s_warmup_cycles, &warmup) < 0)
        return -1;
    if (injected < warmup)
        return 0;
    latency = k->now - injected;
    if (attr_add(res, s_delivered_packets, 1) < 0
        || attr_add(res, s_latency_sum, latency) < 0
        || attr_add(res, s_head_latency_sum, INT(pkt, PK_head_delivered) - injected) < 0
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
    PyObject *lane, *pkt = NULL, *sink = NULL, *held;
    long long received;
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
        if (need(pkt, PK_head_delivered) < 0)
            goto done;
        INT(pkt, PK_head_delivered) = k->now;
        if (k->on_head_delivered != NULL && call(k->on_head_delivered, k->t, pkt, NULL, NULL) < 0)
            goto done;
    }
    else
        received = INT(sink, EJ_received) + 1;
    k->delivered += 1;
    if ((k->warm && count_one(k->per_node, INT(sink, EJ_node)) < 0) || need(pkt, PK_size) < 0)
        goto done;
    if (received == INT(pkt, PK_size)) {
        INT(pkt, PK_delivered) = k->now;
        set_obj(sink, EJ_packet, Py_None);
        INT(sink, EJ_received) = 0;
        /* an output lane of this switch is allocatable again */
        if (put(k->h.awake, INT(lane, OL_switch), Py_True) < 0
            || attr_add(k->h.engine, s_delivered_packets_total, 1) < 0
            || (k->on_tail_delivered != NULL && call(k->on_tail_delivered, k->t, pkt, NULL, NULL) < 0)
            || record_delivery(k, pkt) < 0)
            goto done;
        /* the tail left the switch too: free the output lane */
        set_obj(lane, OL_packet, Py_None);
    }
    else
        INT(sink, EJ_received) = received;
    rc = advance_rr(k, d, lane) < 0 ? -1 : 1;
done:
    Py_DECREF(lane);
    Py_XDECREF(pkt);
    Py_XDECREF(sink);
    return rc;
}

/* Every direction of engine.<name> holding a flit, in list order: 1 when any
 * flit crossed.  An idle direction costs one comparison. */
static int
walk(Link *k, PyObject *name, int (*hop)(Link *, PyObject *))
{
    PyObject *dirs = PyObject_GetAttr(k->h.engine, name), *d, *ahead;
    Py_ssize_t i, j;
    int rc = 0, moved;
    if (dirs == NULL)
        return -1;
    if (!PyList_Check(dirs)) {
        PyErr_SetString(PyExc_TypeError, "engine directions must be a list");
        rc = -1;
    }
    for (i = 0; rc >= 0 && i < PyList_GET_SIZE(dirs); i++) {
        if (i + DIRECTIONS_AHEAD < PyList_GET_SIZE(dirs)
            && (ahead = lanes_ahead(PyList_GET_ITEM(dirs, i + DIRECTIONS_AHEAD))) != NULL)
            for (j = 0; j < PyList_GET_SIZE(ahead); j++)
                FETCH(PyList_GET_ITEM(ahead, j));
        d = Py_NewRef(PyList_GET_ITEM(dirs, i)); /* a probe may run in the hop */
        moved = need(d, LD_nbusy) < 0 ? -1 : INT(d, LD_nbusy) == 0 ? 0 : hop(k, d);
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
    PyObject *out, *src_out, *direction, *pkt;
    long long forwarded, buffered, filled;
    if (need(lane, IL_forwarded) < 0)
        return -1;
    forwarded = INT(lane, IL_forwarded);
    buffered = INT(lane, IL_received) - forwarded;
    /* a flit that arrived in this cycle's link phase waits a cycle */
    if (buffered < 1 || (buffered == 1 && INT(lane, IL_last_arrival) == now))
        return 1;
    if ((out = get_obj(lane, IL_bound)) == NULL || need(out, OL_buffered) < 0)
        return -1;
    filled = INT(out, OL_buffered);
    if (filled >= cap)
        return 1;
    if (filled == 0) {
        if ((direction = get_obj(out, OL_direction)) == NULL || need(direction, LD_nbusy) < 0)
            return -1;
        INT(direction, LD_nbusy) += 1;
    }
    INT(out, OL_buffered) = filled + 1;
    if ((src_out = get_obj(lane, IL_src_out)) == NULL)
        return -1;
    if (src_out != Py_None) {
        if (need(src_out, OL_credits) < 0)
            return -1;
        INT(src_out, OL_credits) += 1;
    }
    *moved = 1;
    forwarded += 1;
    if ((pkt = get_obj(lane, IL_packet)) == NULL || need(pkt, PK_size) < 0)
        return -1;
    if (forwarded != INT(pkt, PK_size)) {
        INT(lane, IL_forwarded) = forwarded;
        return 1;
    }
    /* tail through the crossbar: release the input lane, which makes the
     * upstream output lane allocatable again */
    set_obj(lane, IL_packet, Py_None);
    INT(lane, IL_received) = 0;
    INT(lane, IL_forwarded) = 0;
    set_obj(lane, IL_bound, Py_None);
    if (src_out != Py_None && put(awake, INT(src_out, OL_switch), Py_True) < 0)
        return -1;
    return 0;
}

/* crossbar_phase(engine, t) -> progress; engine.bindings is replaced by a
 * new list without the bindings whose tail went through */
static PyObject *
crossbar_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *engine, *config, *old = NULL, *kept = NULL, *awake = NULL, *lane, *ahead;
    long long now, cap;
    Py_ssize_t i, n, live, staying = 0;
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
        || (awake = PyObject_GetAttr(engine, s__route_awake)) == NULL)
        goto done;
    if (!PyList_Check(old)) {
        PyErr_SetString(PyExc_TypeError, "Engine.bindings must be a list");
        goto done;
    }
    /* room for every binding, filled from the front; the tail is cut below */
    n = PyList_GET_SIZE(old);
    if ((kept = PyList_New(n)) == NULL)
        goto done;
    /* forward() runs no Python code over the engine's own objects, but a
     * foreign `_route_awake` (put_slow -> __setitem__) or a packet finaliser
     * could: the length is read again, and never past the room in kept */
    for (i = 0; i < (live = Py_MIN(n, PyList_GET_SIZE(old))); i++) {
        if (i + BINDINGS_AHEAD < live)
            FETCH(PyList_GET_ITEM(old, i + BINDINGS_AHEAD));
        if (i + BOUND_AHEAD < live && (ahead = bound_ahead(PyList_GET_ITEM(old, i + BOUND_AHEAD))) != NULL)
            FETCH(ahead);
        lane = PyList_GET_ITEM(old, i);
        if ((rc = forward(lane, now, cap, awake, &moved)) < 0)
            goto done;
        if (rc > 0)
            PyList_SET_ITEM(kept, staying++, Py_NewRef(lane));
    }
    if (staying < n && (rc = PyList_SetSlice(kept, staying, n, NULL)) < 0)
        goto done;
    rc = PyObject_SetAttr(engine, s_bindings, kept);
done:
    Py_XDECREF(old);
    Py_XDECREF(awake);
    Py_XDECREF(kept);
    return rc < 0 ? NULL : PyBool_FromLong(moved);
}

/* -- start-up ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"storage", (PyCFunction)(void (*)(void))storage, METH_FASTCALL, NULL},
    {"setup", (PyCFunction)(void (*)(void))setup, METH_FASTCALL, NULL},
    {"wire_switch_links", (PyCFunction)(void (*)(void))wire_switch_links, METH_FASTCALL, NULL},
    {"wire_node_links", (PyCFunction)(void (*)(void))wire_node_links, METH_FASTCALL, NULL},
    {"derive_directions", (PyCFunction)(void (*)(void))derive_directions, METH_FASTCALL, NULL},
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
    return PyModule_Create(&definition);
}
