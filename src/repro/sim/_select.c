/* RoutingAlgorithm.select, compiled, for the four algorithms the package
 * ships.
 *
 * Transcriptions of RoutingAlgorithm.pick_free_lane, randbelow and the
 * select() of tree_adaptive, tree_deterministic, dor and duato, statement by
 * statement over the tables their attach() built.  Random numbers are the
 * routing object's own: randbelow() calls its rng.getrandbits with the
 * rejection loop of the Python one, so the Mersenne state stays where
 * checkpoints and statehash read it.  A routing object whose type is not
 * exactly one of the four -- a custom algorithm, a subclass -- has its Python
 * select() called.
 */
#include "_phases.h"

void
router_close(Router *r)
{
    Py_XDECREF(r->select);
    Py_XDECREF(r->out);
    Py_XDECREF(r->rng);
    Py_XDECREF(r->getrandbits);
    Py_XDECREF(r->lo);
    Py_XDECREF(r->hi);
    Py_XDECREF(r->weight);
    Py_XDECREF(r->up_ports);
    Py_XDECREF(r->coords);
    Py_XDECREF(r->hops);
}

/* Which select() serves `routing` depends on its type alone: exactly one of
 * the four shipped classes, or the Python method. */
int
router_open(Router *r, PyObject *routing)
{
    int kind;
    r->routing = routing;
    for (kind = N_STORED; kind < N_CLASSES; kind++)
        if (Py_IS_TYPE(routing, classes[kind]))
            r->kind = kind;
    if (r->kind == 0)
        return (r->select = PyObject_GetAttr(routing, s_select)) == NULL ? -1 : 0;
    if ((r->out = PyObject_GetAttr(routing, s_out)) == NULL
        || (r->rng = PyObject_GetAttr(routing, s_rng)) == NULL)
        return -1;
    if (r->kind == TREE_ADAPTIVE || r->kind == TREE_DETERMINISTIC) {
        if ((r->lo = PyObject_GetAttr(routing, s__lo)) == NULL
            || (r->hi = PyObject_GetAttr(routing, s__hi)) == NULL
            || (r->weight = PyObject_GetAttr(routing, s__weight)) == NULL
            || attr_int(routing, s_k, &r->k) < 0
            || (r->kind == TREE_ADAPTIVE
                && (r->up_ports = PyObject_GetAttr(routing, s__up_ports)) == NULL))
            return -1;
        return 0;
    }
    if ((r->coords = PyObject_GetAttr(routing, s__coords)) == NULL
        || (r->hops = PyObject_GetAttr(routing, s__hops)) == NULL
        || attr_int(routing, s_eject_port, &r->eject_port) < 0
        || (r->kind == DOR && attr_int(routing, s_half, &r->half) < 0)
        || (r->kind == DUATO
            && (attr_int(routing, s_n_adaptive, &r->n_adaptive) < 0
                || attr_int(routing, s_escape_base, &r->escape_base) < 0)))
        return -1;
    return 0;
}

/* routing.base.randbelow: rng.randrange(n) for n >= 1 by the rejection loop
 * randrange itself runs, over the same getrandbits draws */
static int
randbelow(Router *r, long long n, long long *out)
{
    PyObject *bits, *drawn;
    int width = 0, rc;
    while (n >> width)
        width++;
    if (r->getrandbits == NULL
        && (r->getrandbits = PyObject_GetAttr(r->rng, s_getrandbits)) == NULL)
        return -1;
    if ((bits = PyLong_FromLong(width)) == NULL)
        return -1;
    do {
        if ((drawn = PyObject_CallOneArg(r->getrandbits, bits)) == NULL) {
            rc = -1;
            break;
        }
        rc = as_int(drawn, out);
        Py_DECREF(drawn);
    } while (rc == 0 && *out >= n);
    Py_DECREF(bits);
    return rc;
}

/* OutputLane.is_free(): allocatable to a new packet -- unowned, and its
 * downstream lane has drained the previous one */
static inline int
is_free(PyObject *lane)
{
    PyObject *sink, *held;
    if (need(lane, OL_packet) < 0 || (held = get_obj(lane, OL_packet)) == NULL)
        return -1;
    if (held != Py_None)
        return 0;
    if ((sink = get_obj(lane, OL_sink)) == NULL)
        return -1;
    if (sink == Py_None)
        return 1;
    if (Py_IS_TYPE(sink, classes[EJ]))
        held = get_obj(sink, EJ_packet);
    else
        held = need(sink, IL_packet) < 0 ? NULL : get_obj(sink, IL_packet);
    return held == NULL ? -1 : held == Py_None;
}

/* How many of lanes[:stop] are free; -1 on error.  A slice clips at the end
 * of the list, a loop over range(stop) (strict) does not. */
static Py_ssize_t
count_free(PyObject *lanes, Py_ssize_t stop, int strict)
{
    Py_ssize_t i, count = 0;
    int rc;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "the lanes of a port must be a list");
        return -1;
    }
    if (stop > PyList_GET_SIZE(lanes)) {
        if (strict) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
            return -1;
        }
        stop = PyList_GET_SIZE(lanes);
    }
    for (i = 0; i < stop; i++) {
        if ((rc = is_free(PyList_GET_ITEM(lanes, i))) < 0)
            return -1;
        count += rc;
    }
    return count;
}

/* RoutingAlgorithm.pick_free_lane(lanes[start:stop]): a fair choice among
 * the free lanes (borrowed), NULL when there is none -- and then no random
 * number is drawn. */
static int
pick_free_lane(Router *r, PyObject *lanes, Py_ssize_t start, Py_ssize_t stop, PyObject **chosen)
{
    PyObject *lane;
    long long nfree = 0, nth;
    Py_ssize_t i;
    int rc;
    *chosen = NULL;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "the lanes of a port must be a list");
        return -1;
    }
    if (stop > PyList_GET_SIZE(lanes))
        stop = PyList_GET_SIZE(lanes);
    for (i = start; i < stop; i++) {
        lane = PyList_GET_ITEM(lanes, i);
        if ((rc = is_free(lane)) < 0)
            return -1;
        if (rc && nfree++ == 0)
            *chosen = lane;
    }
    if (nfree < 2)
        return 0;
    if (randbelow(r, nfree, &nth) < 0)
        return -1;
    for (i = start; i < stop && i < PyList_GET_SIZE(lanes); i++) {
        lane = PyList_GET_ITEM(lanes, i);
        if ((rc = is_free(lane)) < 0)
            return -1;
        if (rc && nth-- == 0) {
            *chosen = lane;
            return 0;
        }
    }
    PyErr_SetString(PyExc_IndexError, "list index out of range");
    return -1;
}

/* pick_free_lane(out[switch][port]) */
static int
pick_at_port(Router *r, long long s, long long port, PyObject **chosen)
{
    PyObject *ports, *lanes;
    if ((ports = item(r->out, s)) == NULL || (lanes = item(ports, port)) == NULL)
        return -1;
    return pick_free_lane(r, lanes, 0, PY_SSIZE_T_MAX, chosen);
}

/* 1 and the unique down port towards dst (at a leaf switch the ejection
 * channel) when the switch is an ancestor of dst: the descending phase of a
 * tree; else 0 and the digit of `digit` at this level's weight. */
static int
tree_digit(Router *r, long long s, long long dst, long long digit, long long *port)
{
    long long lo, hi, weight, quotient;
    int down;
    if (int_item(r->lo, s, &lo) < 0)
        return -1;
    down = lo <= dst;
    if (down) {
        if (int_item(r->hi, s, &hi) < 0)
            return -1;
        down = dst < hi;
    }
    if (int_item(r->weight, s, &weight) < 0
        || floor_divmod(down ? dst : digit, weight, &quotient, port) < 0
        || floor_divmod(quotient, r->k, &quotient, port) < 0)
        return -1;
    return down;
}

/* How many lanes of the i-th up link of a switch are free; the lanes. */
static Py_ssize_t
up_link_free(Router *r, PyObject *ports, Py_ssize_t i, PyObject **lanes)
{
    long long port;
    if (int_item(r->up_ports, i, &port) < 0 || (*lanes = item(ports, port)) == NULL)
        return -1;
    return count_free(*lanes, PY_SSIZE_T_MAX, 0);
}

/* TreeAdaptiveRouting.select */
static int
select_tree_adaptive(Router *r, long long s, PyObject *pkt, PyObject **chosen)
{
    PyObject *ports, *lanes;
    long long dst = INT(pkt, PK_dst), port, nth = 0, tied = 0;
    Py_ssize_t i, links, count, best = 0;
    int down;
    if ((down = tree_digit(r, s, dst, 0, &port)) < 0)
        return -1;
    if (down)
        return pick_at_port(r, s, port, chosen);
    /* ascending: the least-loaded up link by free-lane count, a fair choice
     * among the links tied for it */
    if ((ports = item(r->out, s)) == NULL)
        return -1;
    if (!PyList_Check(r->up_ports)) {
        PyErr_SetString(PyExc_TypeError, "_up_ports must be a list");
        return -1;
    }
    links = PyList_GET_SIZE(r->up_ports);
    for (i = 0; i < links; i++) {
        if ((count = up_link_free(r, ports, i, &lanes)) < 0)
            return -1;
        if (count > best) {
            best = count;
            tied = 1;
        }
        else if (count && count == best)
            tied++;
    }
    if (tied == 0)
        return 0;
    if (tied > 1 && randbelow(r, tied, &nth) < 0)
        return -1;
    /* the tied links are not kept: count again up to the one drawn */
    for (i = 0; i < links && i < PyList_GET_SIZE(r->up_ports); i++) {
        if ((count = up_link_free(r, ports, i, &lanes)) < 0)
            return -1;
        if (count == best && nth-- == 0)
            return pick_free_lane(r, lanes, 0, PY_SSIZE_T_MAX, chosen);
    }
    PyErr_SetString(PyExc_IndexError, "list index out of range");
    return -1;
}

/* TreeDeterministicRouting.select */
static int
select_tree_deterministic(Router *r, long long s, PyObject *pkt, PyObject **chosen)
{
    long long port;
    int down;
    if ((down = tree_digit(r, s, INT(pkt, PK_dst), INT(pkt, PK_src), &port)) < 0)
        return -1;
    /* ascending: the fixed up port of the source digit */
    return pick_at_port(r, s, down ? port : r->k + port, chosen);
}

/* _CubeRoutingBase: the coordinates of switch and dst, dimension 0 first,
 * and how many dimensions zip() pairs */
static int
coordinates(Router *r, long long s, long long dst, PyObject **here, PyObject **there, Py_ssize_t *dims)
{
    if ((*here = item(r->coords, s)) == NULL || (*there = item(r->coords, dst)) == NULL)
        return -1;
    if (!PyTuple_Check(*here) || !PyTuple_Check(*there)) {
        PyErr_SetString(PyExc_TypeError, "_coords must hold tuples");
        return -1;
    }
    *dims = PyTuple_GET_SIZE(*here);
    if (PyTuple_GET_SIZE(*there) < *dims)
        *dims = PyTuple_GET_SIZE(*there);
    return 0;
}

/* _hops[dim][a][b] = (dim, minimal ports, dor port, dor direction, virtual
 * network) */
static int
dimension_hop(Router *r, Py_ssize_t dim, long long a, long long b,
              PyObject **ports, long long *dor_port, long long *vn)
{
    PyObject *hop;
    if ((hop = item(r->hops, dim)) == NULL || (hop = item(hop, a)) == NULL
        || (hop = item(hop, b)) == NULL)
        return -1;
    if (!PyTuple_Check(hop) || PyTuple_GET_SIZE(hop) != 5) {
        PyErr_SetString(PyExc_TypeError, "a _hops entry must be a 5-tuple");
        return -1;
    }
    *ports = PyTuple_GET_ITEM(hop, 1);
    if (!PyTuple_Check(*ports)) {
        PyErr_SetString(PyExc_TypeError, "the minimal ports of a hop must be a tuple");
        return -1;
    }
    if (as_int(PyTuple_GET_ITEM(hop, 2), dor_port) < 0 || as_int(PyTuple_GET_ITEM(hop, 4), vn) < 0)
        return -1;
    return 0;
}

/* DimensionOrderRouting.select: the lanes of the current virtual network on
 * the one link of the lowest dimension still to correct */
static int
select_dor(Router *r, long long s, PyObject *pkt, PyObject **chosen)
{
    PyObject *here, *there, *minimal, *ports, *lanes;
    long long a, b, dor_port, vn;
    Py_ssize_t dim, dims;
    if (coordinates(r, s, INT(pkt, PK_dst), &here, &there, &dims) < 0)
        return -1;
    for (dim = 0; dim < dims; dim++) {
        if (as_int(PyTuple_GET_ITEM(here, dim), &a) < 0 || as_int(PyTuple_GET_ITEM(there, dim), &b) < 0)
            return -1;
        if (a == b)
            continue;
        if (dimension_hop(r, dim, a, b, &minimal, &dor_port, &vn) < 0
            || (ports = item(r->out, s)) == NULL
            || (lanes = item(ports, dor_port)) == NULL)
            return -1;
        return pick_free_lane(r, lanes, vn * r->half, vn * r->half + r->half, chosen);
    }
    return pick_at_port(r, s, r->eject_port, chosen);
}

/* DuatoAdaptiveRouting.select: an adaptive lane on the least-loaded minimal
 * link, else the escape lane of the deterministic hop */
static int
select_duato(Router *r, long long s, PyObject *pkt, PyObject **chosen)
{
    PyObject *out_ports, *here, *there, *ports, *lanes, *best_lanes = NULL, *escape = NULL;
    long long dst = INT(pkt, PK_dst), a, b, dor_port, vn, port, n_best = 0, draw;
    Py_ssize_t dim, dims, i, count, best = 0;
    int rc;
    if (s == dst)
        return pick_at_port(r, s, r->eject_port, chosen);
    if ((out_ports = item(r->out, s)) == NULL || coordinates(r, s, dst, &here, &there, &dims) < 0)
        return -1;
    for (dim = 0; dim < dims; dim++) {
        if (as_int(PyTuple_GET_ITEM(here, dim), &a) < 0 || as_int(PyTuple_GET_ITEM(there, dim), &b) < 0)
            return -1;
        if (a == b)
            continue;
        if (dimension_hop(r, dim, a, b, &ports, &dor_port, &vn) < 0)
            return -1;
        if (escape == NULL) {
            /* the deterministic hop: lowest dimension still to correct */
            if ((lanes = item(out_ports, dor_port)) == NULL
                || (escape = item(lanes, r->escape_base + vn)) == NULL)
                return -1;
        }
        for (i = 0; i < PyTuple_GET_SIZE(ports); i++) {
            if (as_int(PyTuple_GET_ITEM(ports, i), &port) < 0
                || (lanes = item(out_ports, port)) == NULL
                || (count = count_free(lanes, r->n_adaptive, 1)) < 0)
                return -1;
            if (count > best) {
                best = count;
                best_lanes = lanes;
                n_best = 1;
            }
            else if (count && count == best) {
                /* reservoir-style fair choice among tied links */
                n_best += 1;
                if (randbelow(r, n_best, &draw) < 0)
                    return -1;
                if (draw == 0)
                    best_lanes = lanes;
            }
        }
    }
    if (best_lanes != NULL) {
        if (attr_add(r->routing, s_adaptive_grants, 1) < 0)
            return -1;
        return pick_free_lane(r, best_lanes, 0, r->n_adaptive, chosen);
    }
    /* contention on all adaptive candidates: deterministic escape hop */
    if (escape == NULL) {
        PyErr_SetString(PyExc_AttributeError, "'NoneType' object has no attribute 'packet'");
        return -1;
    }
    if ((rc = is_free(escape)) < 0 || (rc && attr_add(r->routing, s_escape_grants, 1) < 0))
        return -1;
    if (rc)
        *chosen = escape;
    return 0;
}

/* routing.select(switch, lane, pkt): *chosen is a new reference, or NULL
 * for None -- which draws nothing and changes nothing. */
int
route(Router *r, PyObject *switch_id, long long s, PyObject *lane, PyObject *pkt, PyObject **chosen)
{
    int rc;
    *chosen = NULL;
    if (r->kind == 0) {
        PyObject *out = PyObject_CallFunctionObjArgs(r->select, switch_id, lane, pkt, NULL);
        if (out == NULL)
            return -1;
        if (out == Py_None)
            Py_DECREF(out);
        else
            *chosen = out;
        return 0;
    }
    if (need(pkt, PK_dst) < 0)
        return -1;
    rc = r->kind == TREE_ADAPTIVE        ? select_tree_adaptive(r, s, pkt, chosen)
         : r->kind == TREE_DETERMINISTIC ? select_tree_deterministic(r, s, pkt, chosen)
         : r->kind == DOR                ? select_dor(r, s, pkt, chosen)
                                         : select_duato(r, s, pkt, chosen);
    if (rc < 0)
        *chosen = NULL;
    Py_XINCREF(*chosen);
    return rc;
}

/* select(routing, switch, lane, packet): the select() the routing phase
 * runs for `routing`, for the contract tests */
PyObject *
select_lane(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Router r = {0};
    PyObject *chosen = NULL;
    long long s;
    int rc;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "select(routing, switch, lane, packet)");
        return NULL;
    }
    rc = router_open(&r, args[0]) < 0 || as_int(args[1], &s) < 0
             ? -1
             : route(&r, args[1], s, args[2], args[3], &chosen);
    router_close(&r);
    if (rc < 0)
        return NULL;
    return chosen != NULL ? chosen : Py_NewRef(Py_None);
}
