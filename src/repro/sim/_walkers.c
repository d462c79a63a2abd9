/* The other reads beside Engine.step: the search of a fail-stop kill
 * (find_worm, twin of phases.py's), a flight sample's link totals
 * (link_totals, likewise), and random.Random's Mersenne state packed
 * (mt_words), restored (mt_load) and hashed (mt_hash) where it lies, once
 * mt_setup() has held its reading of the struct to getstate(), setstate()
 * and hash().  Nothing is changed but an mt_load()'s stream.  A unit of its
 * own for the compiler's memory (see native.py).
 */
#include "_phases.h"

/* a direction's lanes, owned, and whether it links into a node (its sinks
 * are then ejection lanes) */
PyObject *
lanes_of(PyObject *d, int *to_node)
{
    PyObject *flag, *lanes;
    if (need(d, LD_lanes) < 0 || (flag = get_obj(d, LD_to_node)) == NULL
        || (*to_node = truth(flag)) < 0 || (lanes = get_obj(d, LD_lanes)) == NULL)
        return NULL;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "LinkDirection.lanes must be a list");
        return NULL;
    }
    return Py_NewRef(lanes);
}

/* find_worm(dirs, packet) -> (owned, holding): the output lanes whose packet
 * it is and the sinks -- fabric input lanes, or its destination's ejection
 * lanes -- that hold it, each list in dirs order.  What Engine.kill_packet
 * flushes; it reads and changes nothing. */
PyObject *
find_worm(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *dirs, *packet, *owned = NULL, *holding = NULL, *d = NULL, *lanes = NULL;
    PyObject *lane, *sink, *at, *result = NULL;
    Py_ssize_t i, v;
    int node, field;
    if (nargs != 2 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "find_worm(dirs, packet): dirs is a list");
        return NULL;
    }
    dirs = args[0];
    packet = args[1];
    if ((owned = PyList_New(0)) == NULL || (holding = PyList_New(0)) == NULL)
        goto done;
    for (i = 0; i < PyList_GET_SIZE(dirs); i++) {
        d = Py_NewRef(PyList_GET_ITEM(dirs, i));
        if ((lanes = lanes_of(d, &node)) == NULL)
            goto done;
        field = node ? EJ_packet : IL_packet;
        for (v = 0; v < PyList_GET_SIZE(lanes); v++) {
            if ((lane = item(lanes, v)) == NULL || need(lane, OL_packet) < 0
                || (at = get_obj(lane, OL_packet)) == NULL
                || (at == packet && PyList_Append(owned, lane) < 0)
                || (sink = get_obj(lane, OL_sink)) == NULL || need(sink, field) < 0
                || (at = get_obj(sink, field)) == NULL
                || (at == packet && PyList_Append(holding, sink) < 0))
                goto done;
        }
        Py_CLEAR(lanes);
        Py_CLEAR(d);
    }
    result = PyTuple_Pack(2, owned, holding);
done:
    Py_XDECREF(lanes);
    Py_XDECREF(d);
    Py_XDECREF(owned);
    Py_XDECREF(holding);
    return result;
}

/* link_totals(dirs) -> (flits, blocked, occupancy): every direction's flit
 * count, the sum of their blocked cycles and the flits buffered in all their
 * lanes -- what a flight sample reads of the links.  Reads nothing but
 * fields. */
PyObject *
link_totals(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *dirs, *flits, *d, *lanes, *lane, *count;
    long long blocked = 0, occupancy = 0;
    Py_ssize_t i, v;
    if (nargs != 1 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "link_totals(dirs): dirs is a list");
        return NULL;
    }
    dirs = args[0];
    if ((flits = PyList_New(PyList_GET_SIZE(dirs))) == NULL)
        return NULL;
    for (i = 0; i < PyList_GET_SIZE(dirs); i++) {
        d = PyList_GET_ITEM(dirs, i);
        if (need(d, LD_flits) < 0 || (count = PyLong_FromLongLong(INT(d, LD_flits))) == NULL)
            goto failed;
        PyList_SET_ITEM(flits, i, count);
    }
    for (i = 0; i < PyList_GET_SIZE(dirs); i++) {
        d = PyList_GET_ITEM(dirs, i);
        blocked += INT(d, LD_blocked);
        if ((lanes = get_obj(d, LD_lanes)) == NULL)
            goto failed;
        if (!PyList_Check(lanes)) {
            PyErr_SetString(PyExc_TypeError, "LinkDirection.lanes must be a list");
            goto failed;
        }
        for (v = 0; v < PyList_GET_SIZE(lanes); v++) {
            lane = PyList_GET_ITEM(lanes, v);
            if (need(lane, OL_buffered) < 0)
                goto failed;
            occupancy += INT(lane, OL_buffered);
        }
    }
    return Py_BuildValue("NLL", flits, blocked, occupancy);
failed:
    Py_DECREF(flits);
    return NULL;
}

/* -- Mersenne streams in place ---------------------------------------------------- */

#define MT_N 624                   /* words of state; then the position */
#define MT_BYTES (4 * (MT_N + 1))  /* checkpoint._MT_STATE.size */

/* what mt_setup() found: the class the three read, exactly, and where the
 * position (an int) and the words (uint32) lie in an instance of it */
static PyTypeObject *mt_type;
static Py_ssize_t mt_index_at, mt_state_at;

#define MT_INDEX(rng) (*(int *)((char *)(rng) + mt_index_at))
#define MT_STATE(rng) ((uint32_t *)((char *)(rng) + mt_state_at))

static int
mt_check(PyObject *rng)
{
    if (mt_type != NULL && Py_IS_TYPE(rng, mt_type))
        return 0;
    PyErr_Format(PyExc_TypeError, "the compiled Mersenne functions take a %s, not a %s",
                 mt_type == NULL ? "stream" : mt_type->tp_name, Py_TYPE(rng)->tp_name);
    return -1;
}

static void
put_u32(unsigned char *at, uint32_t v)
{
    at[0] = v & 0xff;
    at[1] = (v >> 8) & 0xff;
    at[2] = (v >> 16) & 0xff;
    at[3] = v >> 24;
}

static uint32_t
get_u32(const unsigned char *at)
{
    return at[0] | (uint32_t)at[1] << 8 | (uint32_t)at[2] << 16 | (uint32_t)at[3] << 24;
}

/* mt_words(rng) -> bytes: checkpoint._MT_STATE.pack(*rng.getstate()[1]) */
static PyObject *
mt_words(PyObject *module, PyObject *rng)
{
    PyObject *packed;
    unsigned char *at;
    int i;
    if (mt_check(rng) < 0 || (packed = PyBytes_FromStringAndSize(NULL, MT_BYTES)) == NULL)
        return NULL;
    at = (unsigned char *)PyBytes_AS_STRING(packed);
    for (i = 0; i < MT_N; i++)
        put_u32(at + 4 * i, MT_STATE(rng)[i]);
    put_u32(at + 4 * MT_N, (uint32_t)MT_INDEX(rng));
    return packed;
}

/* mt_load(rng, packed): rng.setstate((3, _MT_STATE.unpack(packed), gauss))
 * but for gauss_next, which is left as it is: ValueError("invalid state") for
 * a position past the words, and then the stream is left as it was */
static PyObject *
mt_load(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    const unsigned char *at;
    uint32_t index;
    int i;
    if (nargs != 2 || !PyBytes_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "mt_load(rng, packed): packed is bytes");
        return NULL;
    }
    if (mt_check(args[0]) < 0)
        return NULL;
    if (PyBytes_GET_SIZE(args[1]) != MT_BYTES) {
        PyErr_Format(PyExc_ValueError, "packed Mersenne state is %zd bytes, not %d",
                     PyBytes_GET_SIZE(args[1]), MT_BYTES);
        return NULL;
    }
    at = (const unsigned char *)PyBytes_AS_STRING(args[1]);
    if ((index = get_u32(at + 4 * MT_N)) > MT_N) {
        PyErr_SetString(PyExc_ValueError, "invalid state");
        return NULL;
    }
    for (i = 0; i < MT_N; i++)
        MT_STATE(args[0])[i] = get_u32(at + 4 * i);
    MT_INDEX(args[0]) = (int)index;
    Py_RETURN_NONE;
}

/* hash(rng.getstate()[1]): CPython's tuple hash (xxHash's round over the
 * items' hashes, 64-bit constants) over 625 ints below 2**61 - 1, each its own
 * hash */
static Py_hash_t
mt_hash_of(PyObject *rng)
{
    const Py_uhash_t prime1 = 11400714785074694791ULL, prime2 = 14029467366897019727ULL;
    const Py_uhash_t prime5 = 2870177450012600261ULL;
    Py_uhash_t acc = prime5, lane;
    int i;
    for (i = 0; i <= MT_N; i++) {
        lane = i < MT_N ? MT_STATE(rng)[i] : (Py_uhash_t)MT_INDEX(rng);
        acc += lane * prime2;
        acc = (acc << 31) | (acc >> 33);
        acc *= prime1;
    }
    acc += (MT_N + 1) ^ (prime5 ^ 3527539UL);
    return acc == (Py_uhash_t)-1 ? 1546275796 : (Py_hash_t)acc;
}

static PyObject *
mt_hash(PyObject *module, PyObject *rng)
{
    return mt_check(rng) < 0 ? NULL : PyLong_FromSsize_t(mt_hash_of(rng));
}

static PyMethodDef mt_methods[] = {
    {"mt_words", (PyCFunction)mt_words, METH_O, NULL},
    {"mt_load", (PyCFunction)(void (*)(void))mt_load, METH_FASTCALL, NULL},
    {"mt_hash", (PyCFunction)mt_hash, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

/* whether the words and position of `rng` read as rng.getstate()[1] and its
 * hash as hash() of it */
static int
mt_reads(PyObject *rng, PyObject *internal)
{
    unsigned long v;
    int i;
    if (!PyTuple_Check(internal) || PyTuple_GET_SIZE(internal) != MT_N + 1)
        return 0;
    for (i = 0; i <= MT_N; i++) {
        v = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(internal, i));
        if (v == (unsigned long)-1 && PyErr_Occurred())
            return -1;
        if (v != (i < MT_N ? MT_STATE(rng)[i] : (unsigned long)MT_INDEX(rng)))
            return 0;
    }
    return PyObject_Hash(internal) == mt_hash_of(rng);
}

/* a stream of `cls` seeded, then drawn into the middle of a block */
static PyObject *
mt_sample(PyTypeObject *cls, long seed)
{
    PyObject *rng = PyObject_CallFunction((PyObject *)cls, "l", seed), *r;
    if (rng == NULL)
        return NULL;
    if ((r = PyObject_CallMethod(rng, "getrandbits", "i", 1000 + (int)seed)) == NULL)
        Py_CLEAR(rng);
    Py_XDECREF(r);
    return rng;
}

/* its getstate()[1], owned */
static PyObject *
mt_internal(PyObject *rng)
{
    PyObject *state = PyObject_CallMethod(rng, "getstate", NULL), *internal = NULL;
    if (state != NULL && PyTuple_Check(state) && PyTuple_GET_SIZE(state) == 3)
        internal = Py_NewRef(PyTuple_GET_ITEM(state, 1));
    else if (state != NULL)
        PyErr_SetString(PyExc_TypeError, "getstate() is (version, words, gauss_next)");
    Py_XDECREF(state);
    return internal;
}

/* whether the Mersenne functions read `cls` right at these offsets: its words
 * and position as getstate() gives them, its hash as hash() does, and a stream
 * loaded from another's words in getstate()'s agreement with it */
static int
mt_agrees(PyTypeObject *cls)
{
    PyObject *a = NULL, *b = NULL, *internal = NULL, *packed = NULL, *other = NULL, *r;
    int ok = -1;
    if ((a = mt_sample(cls, 2)) == NULL || (internal = mt_internal(a)) == NULL
        || (ok = mt_reads(a, internal)) != 1)
        goto done;
    ok = -1;
    if ((b = mt_sample(cls, 3)) == NULL || (packed = mt_words(NULL, a)) == NULL)
        goto done;
    r = mt_load(NULL, (PyObject *[]){b, packed}, 2);
    if (r == NULL)
        goto done;
    Py_DECREF(r);
    if ((other = mt_internal(b)) != NULL)
        ok = PyObject_RichCompareBool(internal, other, Py_EQ);
done:
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(internal);
    Py_XDECREF(packed);
    Py_XDECREF(other);
    return ok;
}

/* mt_setup(cls, index_at, state_at) -> bool: bind mt_words, mt_load and
 * mt_hash to the module for instances of exactly cls, whose position is an
 * int at byte index_at and whose 624 words are uint32 from state_at -- once
 * that reading of a seeded stream agrees with its getstate(), setstate()
 * and hash().  Where it does not, or the offsets leave the instance, the
 * three are taken off the module (False), and their callers run Python. */
PyObject *
mt_setup(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyTypeObject *cls;
    long long index_at, state_at;
    PyMethodDef *def;
    int ok;
    if (nargs != 3 || !PyType_Check(args[0]) || as_int(args[1], &index_at) < 0
        || as_int(args[2], &state_at) < 0) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "mt_setup(cls, index_at, state_at)");
        return NULL;
    }
    for (def = mt_methods; def->ml_name != NULL; def++)
        if (PyObject_HasAttrString(module, def->ml_name) && PyObject_DelAttrString(module, def->ml_name) < 0)
            return NULL;
    Py_CLEAR(mt_type);
    cls = (PyTypeObject *)args[0];
    if (index_at < (long long)sizeof(PyObject) || state_at < (long long)sizeof(PyObject)
        || index_at % 4 || state_at % 4 || index_at + 4 > cls->tp_basicsize
        || state_at + 4 * MT_N > cls->tp_basicsize
        || (index_at + 4 > state_at && state_at + 4 * MT_N > index_at))
        Py_RETURN_FALSE;
    mt_type = (PyTypeObject *)Py_NewRef(cls);
    mt_index_at = index_at;
    mt_state_at = state_at;
    if ((ok = mt_agrees(cls)) < 0) {
        /* a stream read at the wrong place may fail anywhere: no agreement */
        if (!PyErr_ExceptionMatches(PyExc_Exception)) {
            Py_CLEAR(mt_type);
            return NULL;
        }
        PyErr_Clear();
        ok = 0;
    }
    if (ok && PyModule_AddFunctions(module, mt_methods) < 0) {
        Py_CLEAR(mt_type);
        return NULL;
    }
    if (!ok)
        Py_CLEAR(mt_type);
    return PyBool_FromLong(ok);
}
