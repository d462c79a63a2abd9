/* The storage of the classes the phases walk: struct types built from the
 * classes' field tables (native.py: storage()), and the setup() that holds the
 * classes to what the phases address.
 *
 * A type made here is a plain C struct behind an object header -- one 8-byte
 * member per field, in table order: a long long for an "int" field, an object
 * pointer (NULL while unset: AttributeError) for an "object" one -- with a
 * member descriptor per field, so Python code reads and writes `lane.buffered`
 * as it does on a __slots__ class and gets an int boxed on demand.  What a
 * member accepts is the descriptor's business: a long long takes an int (or
 * what has __index__) that fits 64 bits and cannot be deleted.  The classes
 * subclass their type with `__slots__ = ()`, which adds nothing to the
 * instance.
 *
 * A translation unit of its own, and setup() in it rather than beside the
 * phases, for the compiler's memory alone (see native.py): _phases.c is the
 * largest unit, and what cc1 holds grows with the unit.
 */
#include "_phases.h"

static void dealloc(PyObject *self);

/* the members of the struct type under type(self) */
static PyMemberDef *
members_of(PyObject *self)
{
    PyTypeObject *type = Py_TYPE(self);
    while (type->tp_dealloc != dealloc) /* a Python subclass has its own */
        type = type->tp_base;
    return type->tp_members;
}

/* lanes, sinks and directions refer to each other in cycles */
static int
traverse(PyObject *self, visitproc visit, void *arg)
{
    PyMemberDef *m;
    Py_VISIT(Py_TYPE(self));
    for (m = members_of(self); m->name != NULL; m++)
        if (m->type == Py_T_OBJECT_EX)
            Py_VISIT(*(PyObject **)((char *)self + m->offset));
    return 0;
}

static int
clear(PyObject *self)
{
    PyMemberDef *m;
    for (m = members_of(self); m->name != NULL; m++)
        if (m->type == Py_T_OBJECT_EX)
            Py_CLEAR(*(PyObject **)((char *)self + m->offset));
    return 0;
}

static void
dealloc(PyObject *self)
{
    PyTypeObject *type = Py_TYPE(self);
    if (PyType_IS_GC(type))
        PyObject_GC_UnTrack(self);
    clear(self);
    type->tp_free(self);
    Py_DECREF(type);
}

/* storage(name, ((field, kind), ...)) -> type; kind is "int" or "object".
 * A type without an object field holds nothing the collector could follow
 * and is left out of it. */
PyObject *
storage(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *fields, *qualified = NULL, *type = NULL;
    PyMemberDef *members = NULL;
    const char *name, *kind;
    Py_ssize_t i, n;
    int refs = 0;
    if (nargs != 2 || !PyUnicode_Check(args[0]) || !PyTuple_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "storage(name, ((field, kind), ...))");
        return NULL;
    }
    fields = args[1];
    n = PyTuple_GET_SIZE(fields);
    if ((members = PyMem_Calloc(n + 1, sizeof(PyMemberDef))) == NULL)
        return PyErr_NoMemory();
    for (i = 0; i < n; i++) {
        if (!PyTuple_Check(PyTuple_GET_ITEM(fields, i))
            || !PyArg_ParseTuple(PyTuple_GET_ITEM(fields, i), "ss", &name, &kind))
            goto done;
        if (strcmp(kind, "int") != 0 && strcmp(kind, "object") != 0) {
            PyErr_Format(PyExc_ValueError, "%s: a field is an \"int\" or an \"object\", not %s", name, kind);
            goto done;
        }
        members[i].name = name;
        members[i].type = kind[0] == 'i' ? Py_T_LONGLONG : Py_T_OBJECT_EX;
        members[i].offset = sizeof(PyObject) + 8 * i;
        refs |= kind[0] == 'o';
    }
    if ((qualified = PyUnicode_FromFormat("repro.sim._phases.%U", args[0])) != NULL
        && (name = PyUnicode_AsUTF8(qualified)) != NULL) {
        PyType_Slot type_slots[] = {
            {Py_tp_members, members}, {Py_tp_dealloc, dealloc},
            {Py_tp_traverse, traverse}, {Py_tp_clear, clear}, {0, NULL},
        };
        PyType_Spec spec = {
            name, sizeof(PyObject) + 8 * n, 0,
            Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | (refs ? Py_TPFLAGS_HAVE_GC : 0),
            type_slots,
        };
        if (!refs)
            type_slots[2].slot = 0; /* the list ends before traverse and clear */
        type = PyType_FromSpec(&spec);
    }
    if (type != NULL) {
        /* the type points into its name (before CPython 3.12) and into the
         * names of its members for as long as it lives: they are never freed */
        Py_INCREF(qualified);
        Py_INCREF(fields);
    }
done:
    Py_XDECREF(qualified);
    PyMem_Free(members);
    return type;
}

/* setup(InputLane, OutputLane, EjectionLane, LinkDirection, Packet, _Node,
 * TreeAdaptiveRouting, TreeDeterministicRouting, DimensionOrderRouting,
 * DuatoAdaptiveRouting): check that every field the phases address is a
 * member of the type they address it as -- a long long or an object pointer,
 * 8 bytes inside the instance -- and note its offset; remember the algorithms
 * whose select() exists compiled.  Raises TypeError for a class that is not
 * built on the C storage, and then leaves the previous setup in place. */
PyObject *
setup(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t offsets[N_SLOTS];
    int i;
    if (nargs != N_CLASSES) {
        PyErr_SetString(PyExc_TypeError, "setup() takes the six stored classes and the four routing algorithms");
        return NULL;
    }
    for (i = 0; i < N_CLASSES; i++)
        if (!PyType_Check(args[i])) {
            PyErr_SetString(PyExc_TypeError, "setup() takes classes");
            return NULL;
        }
    for (i = 0; i < N_SLOTS; i++) {
        PyTypeObject *cls = (PyTypeObject *)args[slots[i].cls];
        PyObject *descr;
        PyMemberDef *member = NULL;
        if (slots[i].name == NULL
            && (slots[i].name = PyUnicode_InternFromString(slots[i].attr)) == NULL)
            return NULL;
        /* a member descriptor looked up on its class is returned as it is */
        if ((descr = PyObject_GetAttr((PyObject *)cls, slots[i].name)) == NULL)
            PyErr_Clear();
        else if (Py_IS_TYPE(descr, &PyMemberDescr_Type))
            member = ((PyMemberDescrObject *)descr)->d_member;
        Py_XDECREF(descr);
        if (member == NULL || member->type != slots[i].type
            || member->offset < (Py_ssize_t)sizeof(PyObject) || member->offset % 8 != 0
            || member->offset + 8 > cls->tp_basicsize) {
            PyErr_Format(PyExc_TypeError, "%s.%s is not a field of the C storage",
                         cls->tp_name, slots[i].attr);
            return NULL;
        }
        offsets[i] = member->offset;
    }
    for (i = 0; i < N_SLOTS; i++)
        slots[i].offset = offsets[i];
    for (i = 0; i < N_CLASSES; i++)
        Py_XSETREF(classes[i], (PyTypeObject *)Py_NewRef(args[i]));
    Py_RETURN_NONE;
}

/* -- construction: the twins of phases.py's wiring ----------------------------
 *
 * The same objects, allocated in the same order, as the reference's calls of
 * the classes: per direction the list of its V input lanes and the lanes,
 * the list of its V output lanes and the lanes, the direction, its rot.  An
 * instance comes from its class's tp_alloc, zeroed, and every field is then
 * stored raw in FIELDS order -- no __init__ runs, no reference is left NULL.
 */

#define EJECT_CREDITS (1LL << 60) /* phases.EJECT_CREDITS */

static int
ready(void)
{
    if (classes[IL] != NULL)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "setup() has not been called");
    return -1;
}

/* [InputLane(switch, port, v, cap) for v in range(n)] */
static PyObject *
input_lanes(long long s, long long p, long long n, long long cap)
{
    PyObject *lanes = PyList_New(n), *lane;
    long long v;
    for (v = 0; lanes != NULL && v < n; v++) {
        if ((lane = classes[IL]->tp_alloc(classes[IL], 0)) == NULL) {
            Py_CLEAR(lanes);
            break;
        }
        INT(lane, IL_switch) = s;
        INT(lane, IL_port) = p;
        INT(lane, IL_vc) = v;
        INT(lane, IL_cap) = cap;
        REF(lane, IL_packet) = Py_NewRef(Py_None);
        INT(lane, IL_received) = 0;
        INT(lane, IL_forwarded) = 0;
        REF(lane, IL_bound) = Py_NewRef(Py_None);
        REF(lane, IL_src_out) = Py_NewRef(Py_None);
        INT(lane, IL_last_arrival) = -1;
        PyList_SET_ITEM(lanes, v, lane);
    }
    return lanes;
}

/* [OutputLane(switch, port, v, cap, sinks[v], credits) for v in range(len(sinks))] */
static PyObject *
output_lanes(long long s, long long p, long long cap, PyObject *sinks, long long credits)
{
    PyObject *lanes = PyList_New(PyList_GET_SIZE(sinks)), *lane;
    Py_ssize_t v;
    for (v = 0; lanes != NULL && v < PyList_GET_SIZE(sinks); v++) {
        if ((lane = classes[OL]->tp_alloc(classes[OL], 0)) == NULL) {
            Py_CLEAR(lanes);
            break;
        }
        INT(lane, OL_switch) = s;
        INT(lane, OL_port) = p;
        INT(lane, OL_vc) = v;
        INT(lane, OL_cap) = cap;
        REF(lane, OL_packet) = Py_NewRef(Py_None);
        INT(lane, OL_buffered) = 0;
        INT(lane, OL_credits) = credits;
        REF(lane, OL_sink) = Py_NewRef(PyList_GET_ITEM(sinks, v));
        REF(lane, OL_direction) = Py_NewRef(Py_None);
        PyList_SET_ITEM(lanes, v, lane);
    }
    return lanes;
}

/* [EjectionLane(node) for _ in range(n)] */
static PyObject *
ejection_lanes(long long node, long long n)
{
    PyObject *lanes = PyList_New(n), *lane;
    long long v;
    for (v = 0; lanes != NULL && v < n; v++) {
        if ((lane = classes[EJ]->tp_alloc(classes[EJ], 0)) == NULL) {
            Py_CLEAR(lanes);
            break;
        }
        INT(lane, EJ_node) = node;
        REF(lane, EJ_packet) = Py_NewRef(Py_None);
        INT(lane, EJ_received) = 0;
        PyList_SET_ITEM(lanes, v, lane);
    }
    return lanes;
}

/* LinkDirection.build_rot(): [lanes, (lanes + lanes)[1:1 + n], ...] */
static PyObject *
rot_of(PyObject *lanes)
{
    Py_ssize_t n = PyObject_Length(lanes), i;
    PyObject *rot, *doubled = NULL;
    if (n < 0 || (rot = PyList_New(n > 1 ? n : 1)) == NULL)
        return NULL;
    PyList_SET_ITEM(rot, 0, Py_NewRef(lanes));
    if (n > 1 && (doubled = PyNumber_Add(lanes, lanes)) == NULL)
        goto fail;
    for (i = 1; i < n; i++) {
        PyObject *slice = PySequence_GetSlice(doubled, i, i + n);
        if (slice == NULL)
            goto fail;
        PyList_SET_ITEM(rot, i, slice);
    }
    Py_XDECREF(doubled);
    return rot;
fail:
    Py_XDECREF(doubled);
    Py_DECREF(rot);
    return NULL;
}

/* dirs.append(LinkDirection(lanes, to_node, index=len(dirs))): lanes is a
 * new list of output lanes */
static int
append_direction(PyObject *dirs, PyObject *lanes, PyObject *to_node)
{
    PyObject *d = classes[LD]->tp_alloc(classes[LD], 0);
    Py_ssize_t v;
    int rc;
    if (d == NULL)
        return -1;
    REF(d, LD_lanes) = Py_NewRef(lanes);
    if ((REF(d, LD_rot) = rot_of(lanes)) == NULL) {
        Py_DECREF(d);
        return -1;
    }
    INT(d, LD_index) = PyList_GET_SIZE(dirs);
    INT(d, LD_rr) = 0;
    INT(d, LD_nbusy) = 0;
    REF(d, LD_to_node) = Py_NewRef(to_node);
    INT(d, LD_flits) = 0;
    INT(d, LD_flits_at_warmup) = 0;
    INT(d, LD_blocked) = 0;
    INT(d, LD_blocked_at_warmup) = 0;
    for (v = 0; v < PyList_GET_SIZE(lanes); v++)
        set_obj(PyList_GET_ITEM(lanes, v), OL_direction, d);
    rc = PyList_Append(dirs, d);
    Py_DECREF(d);
    return rc;
}

/* table[row][column] = value */
static int
put_in(PyObject *table, long long row, long long column, PyObject *value)
{
    PyObject *ports = item(table, row);
    return ports == NULL ? -1 : put(ports, column, value);
}

/* engine.<name> as a list, owned */
static PyObject *
list_attr(PyObject *engine, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(engine, name);
    if (v != NULL && !PyList_Check(v)) {
        PyErr_Format(PyExc_TypeError, "Engine.%U must be a list", name);
        Py_CLEAR(v);
    }
    return v;
}

/* iter(engine.topology.<method>()), owned */
static PyObject *
links_of(PyObject *engine, PyObject *method)
{
    PyObject *topology = PyObject_GetAttr(engine, s_topology), *links, *it;
    if (topology == NULL)
        return NULL;
    links = PyObject_CallMethodNoArgs(topology, method);
    Py_DECREF(topology);
    if (links == NULL)
        return NULL;
    it = PyObject_GetIter(links);
    Py_DECREF(links);
    return it;
}

/* wire_switch_links(engine, cap, vcs) */
PyObject *
wire_switch_links(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *in_lanes = NULL, *out_lanes = NULL, *dirs = NULL, *links = NULL, *link;
    PyObject *ins = NULL, *outs = NULL, *result = NULL;
    long long cap, vcs, end[4], v;
    int side;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "wire_switch_links(engine, cap, vcs)");
        return NULL;
    }
    if (ready() < 0 || as_int(args[1], &cap) < 0 || as_int(args[2], &vcs) < 0
        || (in_lanes = list_attr(args[0], s_in_lanes)) == NULL
        || (out_lanes = list_attr(args[0], s_out_lanes)) == NULL
        || (dirs = list_attr(args[0], s_dirs)) == NULL
        || (links = links_of(args[0], s_switch_links)) == NULL)
        goto done;
    while ((link = PyIter_Next(links)) != NULL) {
        int rc = attr_int(link, s_switch_a, &end[0]) < 0 || attr_int(link, s_port_a, &end[1]) < 0
                 || attr_int(link, s_switch_b, &end[2]) < 0 || attr_int(link, s_port_b, &end[3]) < 0;
        Py_DECREF(link);
        if (rc)
            goto done;
        for (side = 0; side < 2; side++) {
            long long sa = end[2 * side], pa = end[2 * side + 1];
            long long sb = end[2 - 2 * side], pb = end[3 - 2 * side];
            PyObject *row, *taken;
            int wired;
            if ((row = item(out_lanes, sa)) == NULL || (taken = item(row, pa)) == NULL
                || (wired = PyObject_IsTrue(taken)) < 0)
                goto done;
            if (!wired && ((row = item(in_lanes, sb)) == NULL || (taken = item(row, pb)) == NULL
                           || (wired = PyObject_IsTrue(taken)) < 0))
                goto done;
            if (wired) {
                PyObject *errors = PyImport_ImportModule("repro.errors"), *error;
                if (errors != NULL && (error = PyObject_GetAttrString(errors, "SimulationError")) != NULL) {
                    PyErr_Format(error, "port wired twice: switch %lld port %lld -> switch %lld port %lld",
                                 sa, pa, sb, pb);
                    Py_DECREF(error);
                }
                Py_XDECREF(errors);
                goto done;
            }
            if ((ins = input_lanes(sb, pb, vcs, cap)) == NULL
                || (outs = output_lanes(sa, pa, cap, ins, cap)) == NULL)
                goto done;
            for (v = 0; v < vcs; v++)
                set_obj(PyList_GET_ITEM(ins, v), IL_src_out, PyList_GET_ITEM(outs, v));
            if (put_in(in_lanes, sb, pb, ins) < 0 || put_in(out_lanes, sa, pa, outs) < 0
                || append_direction(dirs, outs, Py_False) < 0)
                goto done;
            Py_CLEAR(ins);
            Py_CLEAR(outs);
        }
    }
    if (!PyErr_Occurred())
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(ins);
    Py_XDECREF(outs);
    Py_XDECREF(links);
    Py_XDECREF(dirs);
    Py_XDECREF(out_lanes);
    Py_XDECREF(in_lanes);
    return result;
}

/* wire_node_links(engine, cap, vcs, injection_lanes) */
PyObject *
wire_node_links(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *in_lanes = NULL, *out_lanes = NULL, *dirs = NULL, *eject = NULL, *inject = NULL;
    PyObject *links = NULL, *nl, *sinks = NULL, *outs = NULL, *ins = NULL, *result = NULL;
    long long cap, vcs, lanes, s, p, node;
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "wire_node_links(engine, cap, vcs, injection_lanes)");
        return NULL;
    }
    if (ready() < 0 || as_int(args[1], &cap) < 0 || as_int(args[2], &vcs) < 0
        || as_int(args[3], &lanes) < 0
        || (in_lanes = list_attr(args[0], s_in_lanes)) == NULL
        || (out_lanes = list_attr(args[0], s_out_lanes)) == NULL
        || (dirs = list_attr(args[0], s_dirs)) == NULL
        || (eject = list_attr(args[0], s_eject_lanes)) == NULL
        || (inject = list_attr(args[0], s__injection_lanes)) == NULL
        || (links = links_of(args[0], s_node_links)) == NULL)
        goto done;
    while ((nl = PyIter_Next(links)) != NULL) {
        int rc = attr_int(nl, s_switch, &s) < 0 || attr_int(nl, s_port, &p) < 0
                 || attr_int(nl, s_node, &node) < 0;
        Py_DECREF(nl);
        if (rc)
            goto done;
        /* ejection: switch output lanes -> per-VC ejection sinks */
        if ((sinks = ejection_lanes(node, vcs)) == NULL
            || (outs = output_lanes(s, p, cap, sinks, EJECT_CREDITS)) == NULL)
            goto done;
        if (put(eject, node, sinks) < 0 || put_in(out_lanes, s, p, outs) < 0
            || append_direction(dirs, outs, Py_True) < 0)
            goto done;
        /* injection: the node feeds the switch input lanes directly */
        if ((ins = input_lanes(s, p, lanes, cap)) == NULL || put_in(in_lanes, s, p, ins) < 0
            || put(inject, node, ins) < 0)
            goto done;
        Py_CLEAR(sinks);
        Py_CLEAR(outs);
        Py_CLEAR(ins);
    }
    if (!PyErr_Occurred())
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(sinks);
    Py_XDECREF(outs);
    Py_XDECREF(ins);
    Py_XDECREF(links);
    Py_XDECREF(inject);
    Py_XDECREF(eject);
    Py_XDECREF(dirs);
    Py_XDECREF(out_lanes);
    Py_XDECREF(in_lanes);
    return result;
}

/* derive_directions(dirs) */
PyObject *
derive_directions(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *it, *d, *lanes, *rot;
    long long index = 0;
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "derive_directions(dirs)");
        return NULL;
    }
    if (ready() < 0 || (it = PyObject_GetIter(args[0])) == NULL)
        return NULL;
    while ((d = PyIter_Next(it)) != NULL) {
        rot = NULL;
        if (need(d, LD_index) == 0) {
            INT(d, LD_index) = index++;
            if ((lanes = get_obj(d, LD_lanes)) != NULL) {
                Py_INCREF(lanes); /* slicing a sequence may run anything */
                rot = rot_of(lanes);
                Py_DECREF(lanes);
            }
        }
        if (rot != NULL)
            Py_XSETREF(REF(d, LD_rot), rot);
        Py_DECREF(d);
        if (rot == NULL)
            break;
    }
    Py_DECREF(it);
    return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
}
