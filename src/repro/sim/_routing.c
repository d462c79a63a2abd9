/* The injection and routing phases of Engine.step, compiled.
 *
 * Transcriptions of the functions of the same names in phases.py, like the
 * link and crossbar phases in _phases.c.  Traffic sources stay Python objects:
 * advance(), next_cycle() and queue.popleft() are called, once per poll or
 * injected packet.  The routing walk asks route() (_select.c) where the
 * reference calls routing.select().
 */
#include "_phases.h"

/* list[i] = int(value) */
static int
put_int(PyObject *list, long long i, long long value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    int rc = boxed == NULL ? -1 : put(list, i, boxed);
    Py_XDECREF(boxed);
    return rc;
}

/* -- the injection phase ------------------------------------------------------- */

typedef struct {
    Headers h;      /* the engine (borrowed) and its routing queues */
    PyObject *t;    /* borrowed from the caller */
    long long now;  /* t */
    int warm;
    long long cap;      /* config.buffer_flits */
    long long streamed; /* flits injected so far this cycle */
    /* owned; a handler nobody consumes is NULL */
    PyObject *on_generated, *on_injected;
    PyObject *result, *default_size;
} Inject;

/* The cycle node.source next creates in has come: let it create. */
static int
poll_source(Inject *j, PyObject *node)
{
    PyObject *src, *created = NULL, *next = NULL, *nid = NULL;
    long long count, wake;
    int rc = -1, any;
    if ((src = get_obj(node, ND_source)) == NULL)
        return -1;
    Py_INCREF(src);
    if ((created = PyObject_CallMethodOneArg(src, s_advance, j->t)) == NULL
        || (next = PyObject_CallMethodNoArgs(src, s_next_cycle)) == NULL
        || as_int(next, &wake) < 0)
        goto done;
    INT(node, ND_wake) = wake;
    if ((any = PyObject_IsTrue(created)) < 0)
        goto done;
    if (any) {
        if (j->warm
            && (as_int(created, &count) < 0 || attr_add(j->result, s_generated_packets, count) < 0))
            goto done;
        if (j->on_generated != NULL
            && ((nid = PyLong_FromLongLong(INT(node, ND_nid))) == NULL
                || call(j->on_generated, j->t, nid, created, NULL) < 0))
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(src);
    Py_XDECREF(created);
    Py_XDECREF(next);
    Py_XDECREF(nid);
    return rc;
}

/* The header of the queued packet `entry` enters `lane`, which is free. */
static int
inject_header(Inject *j, PyObject *node, PyObject *lane, PyObject *entry)
{
    PyObject *e = j->h.engine, *size = NULL, *dst = NULL, *created = NULL, *pid = NULL;
    PyObject *pkt = NULL, *nid = NULL;
    long long flits, injected, delivered, dropped, peak;
    Py_ssize_t fields;
    int rc = -1;
    /* trace-driven sources carry an explicit per-message size */
    if ((fields = PyObject_Size(entry)) < 0)
        return -1;
    size = fields > 2 ? PySequence_GetItem(entry, 2) : Py_NewRef(j->default_size);
    if (size == NULL
        || (pid = PyObject_GetAttr(e, s__next_pid)) == NULL
        || (nid = PyLong_FromLongLong(INT(node, ND_nid))) == NULL
        || (dst = PySequence_GetItem(entry, 1)) == NULL
        || (created = PySequence_GetItem(entry, 0)) == NULL
        || (pkt = PyObject_CallFunctionObjArgs((PyObject *)classes[PK], pid, nid, dst, size, created, NULL)) == NULL
        || attr_add(e, s__next_pid, 1) < 0
        || need(pkt, PK_injected) < 0)
        goto done;
    INT(pkt, PK_injected) = j->now;
    set_obj(lane, IL_packet, pkt);
    INT(lane, IL_received) = 1;
    INT(lane, IL_last_arrival) = j->now;
    if (enqueue_header(&j->h, lane) < 0)
        goto done;
    set_obj(node, ND_packet, pkt);
    INT(node, ND_sent) = 1;
    set_obj(node, ND_lane, lane);
    if (attr_add(e, s_injected_packets_total, 1) < 0)
        goto done;
    j->streamed += 1;
    if (attr_int(e, s_injected_packets_total, &injected) < 0
        || attr_int(e, s_delivered_packets_total, &delivered) < 0
        || attr_int(e, s_dropped_packets_total, &dropped) < 0
        || attr_int(e, s__peak_in_flight, &peak) < 0
        /* the high-water mark of packets in flight rises to this many */
        || (injected - delivered - dropped > peak
            && attr_add(e, s__peak_in_flight, injected - delivered - dropped - peak) < 0))
        goto done;
    if ((j->warm && attr_add(j->result, s_injected_packets, 1) < 0)
        || (j->on_injected != NULL && call(j->on_injected, j->t, pkt, NULL, NULL) < 0)
        || as_int(size, &flits) < 0)
        goto done;
    if (flits == 1) { /* degenerate tiny packets */
        set_obj(node, ND_packet, Py_None);
        set_obj(node, ND_lane, Py_None);
    }
    rc = 0;
done:
    Py_XDECREF(size);
    Py_XDECREF(dst);
    Py_XDECREF(created);
    Py_XDECREF(pid);
    Py_XDECREF(nid);
    Py_XDECREF(pkt);
    return rc;
}

/* Nothing streaming at node: if a packet is queued, allocate a free
 * injection lane (rotating fair choice) and inject its header. */
static int
start_packet(Inject *j, PyObject *node)
{
    PyObject *src, *queue, *lanes, *lane = NULL, *entry;
    long long rr, turn, idx = 0;
    Py_ssize_t n, off;
    int rc = -1;
    if ((src = get_obj(node, ND_source)) == NULL
        || (queue = PyObject_GetAttr(src, s_queue)) == NULL)
        return -1;
    if ((rc = PyObject_IsTrue(queue)) <= 0)
        goto done;
    rc = -1;
    if ((lanes = get_obj(node, ND_lanes)) == NULL)
        goto done;
    rr = INT(node, ND_rr);
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "_Node.lanes must be a list");
        goto done;
    }
    n = PyList_GET_SIZE(lanes);
    if (n > 0 && floor_divmod(rr, n, &turn, &rr) < 0)
        goto done;
    for (off = 0; off < n; off++) {
        idx = rr + off < n ? rr + off : rr + off - n;
        lane = PyList_GET_ITEM(lanes, idx);
        if (need(lane, IL_packet) < 0 || get_obj(lane, IL_packet) == NULL)
            goto done;
        if (REF(lane, IL_packet) == Py_None)
            break;
    }
    if (off == n) { /* every injection lane is taken */
        rc = 0;
        goto done;
    }
    INT(node, ND_rr) = idx + 1 < n ? idx + 1 : 0;
    Py_INCREF(lane); /* the source, then a probe, may run */
    if ((entry = PyObject_CallMethodNoArgs(queue, s_popleft)) != NULL) {
        rc = inject_header(j, node, lane, entry);
        Py_DECREF(entry);
    }
    Py_DECREF(lane);
done:
    Py_DECREF(queue);
    return rc;
}

/* One more flit of node.packet enters node.lane, if the lane has space. */
static int
stream_flit(Inject *j, PyObject *node, PyObject *pkt)
{
    PyObject *lane;
    long long received;
    if ((lane = get_obj(node, ND_lane)) == NULL || need(lane, IL_received) < 0)
        return -1;
    received = INT(lane, IL_received);
    if (received - INT(lane, IL_forwarded) >= j->cap)
        return 0;
    INT(lane, IL_received) = received + 1;
    INT(lane, IL_last_arrival) = j->now;
    INT(node, ND_sent) += 1;
    j->streamed += 1;
    if (need(pkt, PK_size) < 0)
        return -1;
    if (INT(node, ND_sent) == INT(pkt, PK_size)) {
        set_obj(node, ND_packet, Py_None);
        set_obj(node, ND_lane, Py_None);
    }
    return 0;
}

/* injection_phase(engine, t, handlers, warm) -> progress */
PyObject *
injection_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Inject j = {0};
    PyObject *engine, *config = NULL, *nodes = NULL, *node, *pkt;
    Py_ssize_t i;
    int rc = -1;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "injection_phase(engine, t, handlers, warm)");
        return NULL;
    }
    engine = args[0];
    j.t = args[1];
    if ((j.warm = PyObject_IsTrue(args[3])) < 0
        || as_int(j.t, &j.now) < 0
        || headers_open(&j.h, engine) < 0
        || handler(args[2], s_on_packets_generated, &j.on_generated) < 0
        || handler(args[2], s_on_packet_injected, &j.on_injected) < 0
        || (config = PyObject_GetAttr(engine, s_config)) == NULL
        || attr_int(config, s_buffer_flits, &j.cap) < 0
        || (j.default_size = PyObject_GetAttr(config, s_packet_flits)) == NULL
        || (j.result = PyObject_GetAttr(engine, s_result)) == NULL
        || (nodes = PyObject_GetAttr(engine, s_active_nodes)) == NULL)
        goto done;
    if (!PyList_Check(nodes)) {
        PyErr_SetString(PyExc_TypeError, "Engine.active_nodes must be a list");
        goto done;
    }
    /* A source is polled only from the cycle it next creates in; a node with
     * nothing queued and nothing streaming costs two tests. */
    for (i = 0; i < PyList_GET_SIZE(nodes); i++) {
        node = Py_NewRef(PyList_GET_ITEM(nodes, i)); /* a source or a probe may run */
        if (need(node, ND_wake) < 0
            || (j.now >= INT(node, ND_wake) && poll_source(&j, node) < 0)
            || (pkt = get_obj(node, ND_packet)) == NULL
            || (pkt == Py_None ? start_packet(&j, node) : stream_flit(&j, node, pkt)) < 0) {
            Py_DECREF(node);
            goto done;
        }
        Py_DECREF(node);
    }
    rc = j.streamed ? attr_add(engine, s_injected_flits_total, j.streamed) : 0;
done:
    headers_close(&j.h);
    Py_XDECREF(j.on_generated);
    Py_XDECREF(j.on_injected);
    Py_XDECREF(j.result);
    Py_XDECREF(j.default_size);
    Py_XDECREF(config);
    Py_XDECREF(nodes);
    return rc < 0 ? NULL : PyBool_FromLong(j.streamed != 0);
}

/* -- the routing phase --------------------------------------------------------- */

typedef struct {
    PyObject *engine, *t; /* borrowed from the caller */
    long long now;        /* t */
    int age;
    int drained;  /* a switch left the queue: rebuild it */
    int progress; /* a header was routed */
    /* owned; the handler is NULL when nobody consumes the event */
    PyObject *on_routed, *awake, *pending, *route_rr, *in_queue, *bindings;
    Router router;
} Walk;

/* Oldest header first: the positions of pend sorted by their packets'
 * creation cycle, ties in arrival order (a stable sort).  PyMem_Free it. */
typedef struct {
    long long age;
    Py_ssize_t at;
} Aged;

static Aged *
age_order(PyObject *pend, Py_ssize_t n)
{
    Aged *order = PyMem_Malloc(n * sizeof(Aged));
    PyObject *lane, *pkt;
    long long age;
    Py_ssize_t i, to;
    if (order == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        lane = PyList_GET_ITEM(pend, i);
        if (need(lane, IL_packet) < 0
            || (pkt = get_obj(lane, IL_packet)) == NULL
            || need(pkt, PK_created) < 0) {
            PyMem_Free(order);
            return NULL;
        }
        age = INT(pkt, PK_created);
        for (to = i; to > 0 && order[to - 1].age > age; to--)
            order[to] = order[to - 1];
        order[to].age = age;
        order[to].at = i;
    }
    return order;
}

/* The header on `lane` takes `out`. */
static int
bind(Walk *w, PyObject *switch_id, PyObject *lane, PyObject *pkt, PyObject *out)
{
    if (need(out, OL_packet) < 0)
        return -1;
    set_obj(lane, IL_bound, out);
    set_obj(out, OL_packet, pkt);
    if (PyList_Append(w->bindings, lane) < 0
        || (w->on_routed != NULL && call(w->on_routed, w->t, switch_id, lane, out) < 0))
        return -1;
    return 0;
}

/* One switch routes at most one header: its pending ones are tried from the
 * round-robin pointer on (oldest first under the age arbiter) until one
 * gets a lane. */
static int
route_switch(Walk *w, PyObject *switch_id)
{
    PyObject *flag, *pend, *lane, *pkt, *out;
    Aged *order = NULL;
    long long s, rr = 0, turn;
    Py_ssize_t n, off, idx, routed = -1;
    int rc, fresh = 0;
    if (as_int(switch_id, &s) < 0 || (flag = item(w->awake, s)) == NULL)
        return -1;
    if ((rc = truth(flag)) <= 0)
        return rc; /* asleep */
    if ((pend = item(w->pending, s)) == NULL)
        return -1;
    if (!PyList_Check(pend)) {
        PyErr_SetString(PyExc_TypeError, "the engine's routing queues must be lists");
        return -1;
    }
    n = PyList_GET_SIZE(pend);
    if (n == 0) {
        w->drained = 1;
        return put(w->in_queue, s, Py_False);
    }
    Py_INCREF(pend); /* a select() or a probe may run */
    rc = -1;
    if (w->age) {
        if ((order = age_order(pend, n)) == NULL)
            goto done;
    }
    else if (int_item(w->route_rr, s, &rr) < 0 || floor_divmod(rr, n, &turn, &rr) < 0)
        goto done;
    for (off = 0; off < n && routed < 0; off++) {
        idx = order != NULL ? order[off].at : rr + off < n ? rr + off : rr + off - n;
        if ((lane = item(pend, idx)) == NULL || need(lane, IL_received) < 0)
            goto done;
        if (INT(lane, IL_received) == 1 && INT(lane, IL_last_arrival) == w->now) {
            /* the header itself arrived in this cycle's link phase; routing
             * it costs one full T_routing */
            fresh = 1;
            continue;
        }
        if ((pkt = get_obj(lane, IL_packet)) == NULL)
            goto done;
        Py_INCREF(lane);
        Py_INCREF(pkt);
        rc = route(&w->router, switch_id, s, lane, pkt, &out);
        if (rc == 0 && out != NULL) {
            rc = bind(w, switch_id, lane, pkt, out);
            Py_DECREF(out);
            routed = idx;
        }
        Py_DECREF(lane);
        Py_DECREF(pkt);
        if (rc < 0)
            goto done;
        rc = -1;
    }
    if (routed >= 0) {
        if (PySequence_DelItem(pend, routed) < 0)
            goto done;
        w->progress = 1;
        if (PyList_GET_SIZE(pend) > 0)
            rc = put_int(w->route_rr, s, routed % PyList_GET_SIZE(pend));
        else {
            w->drained = 1;
            rc = put_int(w->route_rr, s, 0) < 0 ? -1 : put(w->in_queue, s, Py_False);
        }
    }
    else /* every pending header tried in vain: sleep until something changes */
        rc = fresh ? 0 : put(w->awake, s, Py_False);
done:
    PyMem_Free(order);
    Py_DECREF(pend);
    return rc;
}

/* engine.route_queue = the members of `queue` still marked in _in_route_queue */
static int
rebuild_queue(Walk *w, PyObject *queue)
{
    PyObject *kept = PyList_New(0), *switch_id, *flag;
    long long s;
    Py_ssize_t i;
    int rc = kept == NULL ? -1 : 0;
    for (i = 0; rc == 0 && i < PyList_GET_SIZE(queue); i++) {
        switch_id = PyList_GET_ITEM(queue, i);
        if (as_int(switch_id, &s) < 0 || (flag = item(w->in_queue, s)) == NULL || (rc = truth(flag)) < 0)
            rc = -1;
        else if (rc)
            rc = PyList_Append(kept, switch_id);
    }
    if (rc == 0)
        rc = PyObject_SetAttr(w->engine, s_route_queue, kept);
    Py_XDECREF(kept);
    return rc;
}

/* routing_phase(engine, t, handlers) -> progress */
PyObject *
routing_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w = {0};
    PyObject *queue, *routing = NULL, *switch_id;
    Py_ssize_t i;
    int rc = -1;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "routing_phase(engine, t, handlers)");
        return NULL;
    }
    w.engine = args[0];
    w.t = args[1];
    if ((queue = PyObject_GetAttr(w.engine, s_route_queue)) == NULL)
        return NULL;
    if (!PyList_Check(queue)) {
        PyErr_SetString(PyExc_TypeError, "Engine.route_queue must be a list");
        goto done;
    }
    if (PyList_GET_SIZE(queue) == 0) {
        rc = 0;
        goto done;
    }
    if (as_int(w.t, &w.now) < 0
        || handler(args[2], s_on_header_routed, &w.on_routed) < 0
        || (routing = PyObject_GetAttr(w.engine, s_routing)) == NULL
        || router_open(&w.router, routing) < 0
        || (w.pending = PyObject_GetAttr(w.engine, s_pending)) == NULL
        || (w.route_rr = PyObject_GetAttr(w.engine, s_route_rr)) == NULL
        || (w.in_queue = PyObject_GetAttr(w.engine, s__in_route_queue)) == NULL
        || (w.awake = PyObject_GetAttr(w.engine, s__route_awake)) == NULL
        || (w.bindings = PyObject_GetAttr(w.engine, s_bindings)) == NULL
        || (w.age = attr_true(w.engine, s__age_arbiter)) < 0)
        goto done;
    if (!PyList_Check(w.bindings)) {
        PyErr_SetString(PyExc_TypeError, "Engine.bindings must be a list");
        goto done;
    }
    /* The queue keeps its members and their order; a sleeping switch costs
     * one flag test. */
    for (i = 0; i < PyList_GET_SIZE(queue); i++) {
        switch_id = Py_NewRef(PyList_GET_ITEM(queue, i));
        rc = route_switch(&w, switch_id);
        Py_DECREF(switch_id);
        if (rc < 0)
            goto done;
    }
    rc = w.drained ? rebuild_queue(&w, queue) : 0;
done:
    router_close(&w.router);
    Py_XDECREF(w.on_routed);
    Py_XDECREF(w.awake);
    Py_XDECREF(w.pending);
    Py_XDECREF(w.route_rr);
    Py_XDECREF(w.in_queue);
    Py_XDECREF(w.bindings);
    Py_XDECREF(routing);
    Py_DECREF(queue);
    return rc < 0 ? NULL : PyBool_FromLong(w.progress);
}
