/* What the translation units of the compiled phases share: the attribute
 * names, the table of fields addressed by offset, and the accessors over it.
 *
 * No second data model: the phases walk the engine's own InputLane /
 * OutputLane / EjectionLane / LinkDirection / Packet / _Node objects and read
 * and write their fields in place.  The six classes take their storage from
 * struct types this extension builds out of their field tables (_storage.c):
 * one 8-byte member per field, a long long for every counter, id and cycle
 * stamp, an object pointer for every reference.  The phases address the
 * members at the offsets -- and of the kinds -- the classes' member
 * descriptors report (checked once, in setup()).
 *
 * An object is checked against its class once (need()), after which its
 * fields are addressed raw: a counter is a load, a store or an add.  Where a
 * check fails the phase raises what the reference raises on the same state
 * -- AttributeError on a None where a packet belongs -- and nothing is ever
 * read at an offset of a foreign object.  References are borrowed from the
 * engine's own lists and fields, except across a call into Python (a probe,
 * a source, a custom select), which may run anything: the objects in hand are
 * held through it.
 *
 * _phases.c defines what is declared here unless said otherwise; the units
 * are compiled one after the other (cc1 is a child of whoever imports first,
 * and its resident memory counts against them) and linked into one extension.
 */
#ifndef REPRO_PHASES_H
#define REPRO_PHASES_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#ifndef Py_T_OBJECT_EX /* CPython < 3.12 */
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_T_LONGLONG T_LONGLONG
#endif

/* -- names ------------------------------------------------------------------ */

/* attributes of the engine, its config and result, the handler object, the
 * traffic sources, the routing algorithms and the topology's links */
#define NAMES(X) \
    X(_fabric_dirs) X(_eject_dirs) X(_age_arbiter) X(_rr_after) X(_route_awake) \
    X(pending) X(_in_route_queue) X(route_queue) X(route_rr) X(bindings) X(config) X(result) \
    X(routing) X(active_nodes) X(_next_pid) X(_peak_in_flight) \
    X(injected_packets_total) X(injected_flits_total) X(dropped_packets_total) \
    X(delivered_flits_per_node) X(delivered_packets_total) X(delivered_flits_total) \
    X(_interval_delivered) X(warmup_cycles) X(collect_latencies) X(buffer_flits) X(packet_flits) \
    X(generated_packets) X(injected_packets) \
    X(delivered_packets) X(delivered_flits) X(latency_sum) X(head_latency_sum) \
    X(latency_max) X(latencies) \
    X(on_direction_blocked) X(on_head_arrived) X(on_head_delivered) X(on_tail_delivered) \
    X(on_packets_generated) X(on_packet_injected) X(on_header_routed) \
    X(advance) X(next_cycle) X(queue) X(popleft) \
    X(select) X(out) X(rng) X(getrandbits) X(k) X(_lo) X(_hi) X(_weight) X(_up_ports) \
    X(_coords) X(_hops) X(eject_port) X(half) X(n_adaptive) X(escape_base) \
    X(adaptive_grants) X(escape_grants) \
    X(topology) X(switch_links) X(node_links) X(switch_a) X(port_a) X(switch_b) X(port_b) \
    X(switch) X(port) X(node) X(in_lanes) X(out_lanes) X(dirs) X(eject_lanes) X(_injection_lanes)

#define X(n) extern PyObject *s_##n;
NAMES(X)
#undef X

/* the fields addressed by offset: class tag, attribute, member type (Py_T_...);
 * every field of the lanes and the direction, which the wiring twins
 * (_storage.c) store in FIELDS order */
#define SLOTS(X) \
    X(IL, switch, LONGLONG) X(IL, port, LONGLONG) X(IL, vc, LONGLONG) X(IL, cap, LONGLONG) \
    X(IL, packet, OBJECT_EX) X(IL, received, LONGLONG) X(IL, forwarded, LONGLONG) \
    X(IL, bound, OBJECT_EX) X(IL, src_out, OBJECT_EX) X(IL, last_arrival, LONGLONG) \
    X(OL, switch, LONGLONG) X(OL, port, LONGLONG) X(OL, vc, LONGLONG) X(OL, cap, LONGLONG) \
    X(OL, packet, OBJECT_EX) X(OL, buffered, LONGLONG) X(OL, credits, LONGLONG) \
    X(OL, sink, OBJECT_EX) X(OL, direction, OBJECT_EX) \
    X(EJ, node, LONGLONG) X(EJ, packet, OBJECT_EX) X(EJ, received, LONGLONG) \
    X(LD, lanes, OBJECT_EX) X(LD, rot, OBJECT_EX) X(LD, index, LONGLONG) X(LD, rr, LONGLONG) \
    X(LD, nbusy, LONGLONG) X(LD, to_node, OBJECT_EX) X(LD, flits, LONGLONG) \
    X(LD, flits_at_warmup, LONGLONG) X(LD, blocked, LONGLONG) X(LD, blocked_at_warmup, LONGLONG) \
    X(PK, src, LONGLONG) X(PK, dst, LONGLONG) X(PK, size, LONGLONG) X(PK, created, LONGLONG) \
    X(PK, injected, LONGLONG) X(PK, head_delivered, LONGLONG) X(PK, delivered, LONGLONG) \
    X(ND, nid, LONGLONG) X(ND, source, OBJECT_EX) X(ND, wake, LONGLONG) X(ND, lanes, OBJECT_EX) \
    X(ND, rr, LONGLONG) X(ND, packet, OBJECT_EX) X(ND, sent, LONGLONG) X(ND, lane, OBJECT_EX)

/* the six classes on the storage, then the routing algorithms with a compiled
 * select: the order of setup()'s arguments */
enum { IL, OL, EJ, LD, PK, ND, N_STORED };
enum { TREE_ADAPTIVE = N_STORED, TREE_DETERMINISTIC, DOR, DUATO, N_CLASSES };
enum {
#define X(c, a, k) c##_##a,
    SLOTS(X)
#undef X
    N_SLOTS
};

extern PyTypeObject *classes[N_CLASSES];
extern struct slot {
    int cls;
    const char *attr;
    int type; /* of the member: Py_T_LONGLONG or Py_T_OBJECT_EX */
    Py_ssize_t offset;
    PyObject *name;
} slots[N_SLOTS];

/* -- field access ------------------------------------------------------------ */

/* o.<slot> of a counter, id or cycle stamp: an lvalue */
#define INT(o, i) (*(long long *)((char *)(o) + slots[i].offset))
/* o.<slot> of a reference: NULL while unset */
#define REF(o, i) (*(PyObject **)((char *)(o) + slots[i].offset))

int need_slow(PyObject *o, int i);
int as_int_slow(PyObject *v, long long *out);

/* o must be an instance of the class slot i belongs to before INT(o, i),
 * REF(o, i) or any other slot of that class is addressed */
static inline int
need(PyObject *o, int i)
{
    return Py_IS_TYPE(o, classes[slots[i].cls]) ? 0 : need_slow(o, i);
}

/* o.<slot>, borrowed */
static inline PyObject *
get_obj(PyObject *o, int i)
{
    PyObject *v = REF(o, i);
    if (v == NULL)
        PyErr_SetObject(PyExc_AttributeError, slots[i].name);
    return v;
}

/* o.<slot> = v */
static inline void
set_obj(PyObject *o, int i, PyObject *v)
{
    PyObject *old = REF(o, i);
    REF(o, i) = Py_NewRef(v);
    Py_XDECREF(old);
}

/* a non-negative one-digit int, the common case, without a call */
#if PY_VERSION_HEX >= 0x030C0000
#define IS_SMALL(v) PyUnstable_Long_IsCompact((PyLongObject *)(v))
#define SMALL_VALUE(v) PyUnstable_Long_CompactValue((PyLongObject *)(v))
#else
#define IS_SMALL(v) (Py_SIZE(v) == 0 || Py_SIZE(v) == 1)
#define SMALL_VALUE(v) (Py_SIZE(v) ? (long long)((PyLongObject *)(v))->ob_digit[0] : 0)
#endif

/* an int object -- an argument, a list item, a plain attribute -- as a C
 * integer; TypeError for anything else */
static inline int
as_int(PyObject *v, long long *out)
{
    if (PyLong_CheckExact(v) && IS_SMALL(v)) {
        *out = SMALL_VALUE(v);
        return 0;
    }
    return as_int_slow(v, out);
}

/* -- plain attributes, items and calls ---------------------------------------- */

int attr_int(PyObject *o, PyObject *name, long long *out);
int attr_add(PyObject *o, PyObject *name, long long delta);
int attr_true(PyObject *o, PyObject *name);
int handler(PyObject *handlers, PyObject *event, PyObject **out);
int call(PyObject *fn, PyObject *a, PyObject *b, PyObject *c, PyObject *d);

/* seq[i] of a list or tuple, borrowed */
PyObject *item_slow(PyObject *seq, long long i);

static inline PyObject *
item(PyObject *seq, long long i)
{
    if (PyList_CheckExact(seq) && i >= 0 && i < PyList_GET_SIZE(seq))
        return PyList_GET_ITEM(seq, i);
    return item_slow(seq, i);
}

/* list[i] = value */
int put_slow(PyObject *list, long long i, PyObject *value);

static inline int
put(PyObject *list, long long i, PyObject *value)
{
    if (PyList_CheckExact(list) && i >= 0 && i < PyList_GET_SIZE(list)) {
        PyObject *old = PyList_GET_ITEM(list, i);
        PyList_SET_ITEM(list, i, Py_NewRef(value));
        Py_DECREF(old);
        return 0;
    }
    return put_slow(list, i, value);
}

/* bool(flag) */
static inline int
truth(PyObject *flag)
{
    return flag == Py_True ? 1 : flag == Py_False ? 0 : PyObject_IsTrue(flag);
}

/* int(seq[i]) */
static inline int
int_item(PyObject *seq, long long i, long long *out)
{
    PyObject *v = item(seq, i);
    return v == NULL ? -1 : as_int(v, out);
}

/* a // b and a % b the way Python rounds them */
static inline int
floor_divmod(long long a, long long b, long long *quotient, long long *remainder)
{
    if (b == 0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "integer division or modulo by zero");
        return -1;
    }
    *quotient = a / b;
    *remainder = a % b;
    if (*remainder != 0 && (*remainder < 0) != (b < 0)) {
        *quotient -= 1;
        *remainder += b;
    }
    return 0;
}

/* the engine's routing bookkeeping, as far as a header entering a switch
 * touches it: owned references */
typedef struct {
    PyObject *engine; /* borrowed from the caller */
    PyObject *awake, *pending, *in_queue;
} Headers;

int headers_open(Headers *h, PyObject *engine);
void headers_close(Headers *h);
int enqueue_header(Headers *h, PyObject *lane);

/* -- select(): _select.c -------------------------------------------------------- */

/* a routing algorithm for the length of a phase */
typedef struct {
    PyObject *routing; /* borrowed */
    int kind;          /* which compiled select(); 0: call the Python one */
    /* owned: the bound Python select(), or the tables attach() built */
    PyObject *select, *out, *rng, *getrandbits;
    PyObject *lo, *hi, *weight, *up_ports; /* trees */
    PyObject *coords, *hops;               /* cubes */
    long long k, eject_port, half, n_adaptive, escape_base;
} Router;

int router_open(Router *r, PyObject *routing);
void router_close(Router *r);
int route(Router *r, PyObject *switch_id, long long s, PyObject *lane, PyObject *pkt, PyObject **chosen);

/* -- the module's functions ----------------------------------------------------- */

PyObject *storage(PyObject *module, PyObject *const *args, Py_ssize_t nargs);         /* _storage.c */
PyObject *setup(PyObject *module, PyObject *const *args, Py_ssize_t nargs);
PyObject *wire_switch_links(PyObject *module, PyObject *const *args, Py_ssize_t nargs);
PyObject *wire_node_links(PyObject *module, PyObject *const *args, Py_ssize_t nargs);
PyObject *derive_directions(PyObject *module, PyObject *const *args, Py_ssize_t nargs);
PyObject *injection_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs); /* _routing.c */
PyObject *routing_phase(PyObject *module, PyObject *const *args, Py_ssize_t nargs);
PyObject *select_lane(PyObject *module, PyObject *const *args, Py_ssize_t nargs);     /* _select.c */

#endif
