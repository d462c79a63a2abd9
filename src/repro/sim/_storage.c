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
