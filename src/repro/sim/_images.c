/* What the state fingerprint hashes, read from the C structs: the int64 words
 * obs/statehash.py makes of the fabric (fabric_image, reference
 * _fabric_rows), of each node's injection side (node_images, _node_tables)
 * and of the routing tables (routing_image, _routing_tables).  One writer
 * (Image) writes them all; the crossbar bindings the reference sorts are
 * sorted here, over ints.  Nothing is changed.  A unit of its own for the
 * compiler's memory (see native.py).
 */
#include "_phases.h"

#define NONE_WORD (-(1LL << 62) - 11) /* statehash._NONE: an absent value */
#define IMAGE_WORDS 8192              /* 64 KiB handed off at a time */

typedef struct {
    PyObject *update; /* borrowed: what the filled words go to; NULL: they are kept */
    PyObject *parts;  /* owned: the words handed off so far while update is NULL */
    Py_ssize_t n;     /* words filled */
    long long words[IMAGE_WORDS];
} Image;

/* -- the writer: int64 words, handed off as bytes --------------------------------- */

static Image *
image_open(PyObject *update)
{
    Image *im = PyMem_Malloc(sizeof(Image));
    if (im == NULL)
        return (Image *)PyErr_NoMemory();
    im->update = update;
    im->parts = NULL;
    im->n = 0;
    return im;
}

static void
image_close(Image *im)
{
    Py_XDECREF(im->parts);
    PyMem_Free(im);
}

/* hand the filled words off: to update() as bytes, or to parts */
static int
image_flush(Image *im)
{
    PyObject *chunk, *r;
    int rc;
    if ((chunk = PyBytes_FromStringAndSize((const char *)im->words, im->n * 8)) == NULL)
        return -1;
    im->n = 0;
    if (im->update != NULL) {
        r = PyObject_CallOneArg(im->update, chunk);
        Py_DECREF(chunk);
        Py_XDECREF(r);
        return r == NULL ? -1 : 0;
    }
    if (im->parts == NULL && (im->parts = PyList_New(0)) == NULL) {
        Py_DECREF(chunk);
        return -1;
    }
    rc = PyList_Append(im->parts, chunk);
    Py_DECREF(chunk);
    return rc;
}

/* make room for `more` words (at most IMAGE_WORDS) */
static int
image_room(Image *im, Py_ssize_t more)
{
    return im->n + more <= IMAGE_WORDS ? 0 : image_flush(im);
}

static int
image_word(Image *im, long long w)
{
    if (im->n == IMAGE_WORDS && image_flush(im) < 0)
        return -1;
    im->words[im->n++] = w;
    return 0;
}

/* the words written since the last take, as one bytes object; the image is
 * empty after it */
static PyObject *
image_take(Image *im)
{
    PyObject *whole;
    Py_ssize_t i, size = 0;
    char *at;
    if (im->parts == NULL) {
        whole = PyBytes_FromStringAndSize((const char *)im->words, im->n * 8);
        im->n = 0;
        return whole;
    }
    if (image_flush(im) < 0)
        return NULL;
    for (i = 0; i < PyList_GET_SIZE(im->parts); i++)
        size += PyBytes_GET_SIZE(PyList_GET_ITEM(im->parts, i));
    if ((whole = PyBytes_FromStringAndSize(NULL, size)) != NULL)
        for (at = PyBytes_AS_STRING(whole), i = 0; i < PyList_GET_SIZE(im->parts); i++) {
            PyObject *part = PyList_GET_ITEM(im->parts, i);
            memcpy(at, PyBytes_AS_STRING(part), PyBytes_GET_SIZE(part));
            at += PyBytes_GET_SIZE(part);
        }
    Py_CLEAR(im->parts);
    return whole;
}

/* int(v) */
static int
image_int(Image *im, PyObject *v)
{
    long long w;
    return as_int(v, &w) < 0 ? -1 : image_word(im, w);
}

/* every item of an iterable, as ints */
static int
image_ints(Image *im, PyObject *iterable)
{
    PyObject *it = PyObject_GetIter(iterable), *v;
    int rc = 0;
    if (it == NULL)
        return -1;
    while (rc == 0 && (v = PyIter_Next(it)) != NULL) {
        rc = image_int(im, v);
        Py_DECREF(v);
    }
    Py_DECREF(it);
    return rc < 0 || PyErr_Occurred() ? -1 : 0;
}

/* packet.pid, or NONE_WORD for None */
static int
pid_word(PyObject *packet, long long *out)
{
    if (packet == Py_None) {
        *out = NONE_WORD;
        return 0;
    }
    if (need(packet, PK_pid) < 0)
        return -1;
    *out = INT(packet, PK_pid);
    return 0;
}

static int
image_pid(Image *im, PyObject *packet)
{
    long long w;
    return pid_word(packet, &w) < 0 ? -1 : image_word(im, w);
}

/* a bound output lane's switch, port and vc, NONE_WORD three times for None */
static int
image_bound(Image *im, PyObject *bound)
{
    if (bound == Py_None)
        return image_word(im, NONE_WORD) < 0 || image_word(im, NONE_WORD) < 0
               || image_word(im, NONE_WORD) < 0 ? -1 : 0;
    if (need(bound, OL_switch) < 0)
        return -1;
    return image_word(im, INT(bound, OL_switch)) < 0 || image_word(im, INT(bound, OL_port)) < 0
           || image_word(im, INT(bound, OL_vc)) < 0 ? -1 : 0;
}

/* getattr(o, name, None), owned; NULL only on an error */
static PyObject *
optional_attr(PyObject *o, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(o, name);
    if (v == NULL && PyErr_ExceptionMatches(PyExc_AttributeError)) {
        PyErr_Clear();
        v = Py_NewRef(Py_None);
    }
    return v;
}

/* -- sorted rows: what the reference sorts, sorted over ints ---------------------- */

/* a row to sort: up to three int keys, its place before the sort (the
 * reference's sorts are stable) and the object it stands for, held */
typedef struct {
    long long key[3];
    Py_ssize_t at;
    PyObject *value;
} Entry;

static int
entry_order(const void *a, const void *b)
{
    const Entry *x = a, *y = b;
    int i;
    for (i = 0; i < 3; i++)
        if (x->key[i] != y->key[i])
            return x->key[i] < y->key[i] ? -1 : 1;
    return x->at < y->at ? -1 : x->at > y->at;
}

static void
entries_free(Entry *rows, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++)
        Py_XDECREF(rows[i].value);
    PyMem_Free(rows);
}

/* -- the fabric ------------------------------------------------------------------- */

/* a lane's _OUT_LANE words, then its sink's: _EJECTION_LANE behind a link into
 * a node, _IN_LANE behind any other -- 7 or 12 words, room for which is made */
static int
image_lane(Image *im, PyObject *lane, int to_node)
{
    long long *w = im->words + im->n;
    PyObject *packet, *sink, *held, *bound;
    if (need(lane, OL_packet) < 0 || (packet = get_obj(lane, OL_packet)) == NULL
        || (sink = get_obj(lane, OL_sink)) == NULL || need(sink, to_node ? EJ_packet : IL_packet) < 0
        || (held = get_obj(sink, to_node ? EJ_packet : IL_packet)) == NULL
        || pid_word(packet, &w[1]) < 0 || pid_word(held, &w[5]) < 0)
        return -1;
    w[0] = INT(lane, OL_vc);
    w[2] = INT(lane, OL_buffered);
    w[6] = to_node ? INT(sink, EJ_received) : INT(sink, IL_received);
    /* OutputLane.sent: what the sink has received of the lane's packet */
    w[3] = packet != Py_None && held == packet ? w[6] : 0;
    w[4] = INT(lane, OL_credits);
    im->n += 7;
    if (to_node)
        return 0;
    w[7] = INT(sink, IL_forwarded);
    w[8] = INT(sink, IL_last_arrival);
    if ((bound = get_obj(sink, IL_bound)) == NULL)
        return -1;
    if (bound == Py_None)
        w[9] = w[10] = w[11] = NONE_WORD;
    else {
        if (need(bound, OL_switch) < 0)
            return -1;
        w[9] = INT(bound, OL_switch);
        w[10] = INT(bound, OL_port);
        w[11] = INT(bound, OL_vc);
    }
    im->n += 5;
    return 0;
}

/* fabric_image(dirs, update): the int64 words statehash._fabric_rows makes of
 * dirs -- per direction its _DIRECTION header, then every lane with its sink
 * -- handed to update() as bytes, at most IMAGE_WORDS words at a time, so the
 * image of the fabric is never held whole.  The direction and its lanes are
 * held across a call of update(), which may run anything. */
PyObject *
fabric_image(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *dirs, *d = NULL, *lanes = NULL, *lane, *result = NULL;
    Image *im;
    Py_ssize_t i, v;
    int node;
    if (nargs != 2 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "fabric_image(dirs, update): dirs is a list");
        return NULL;
    }
    if ((im = image_open(args[1])) == NULL)
        return NULL;
    dirs = args[0];
    for (i = 0; i < PyList_GET_SIZE(dirs); i++) {
        d = Py_NewRef(PyList_GET_ITEM(dirs, i));
        if ((lanes = lanes_of(d, &node)) == NULL || image_room(im, 5) < 0)
            goto done;
        im->words[im->n++] = i;
        im->words[im->n++] = INT(d, LD_rr);
        im->words[im->n++] = INT(d, LD_nbusy);
        im->words[im->n++] = INT(d, LD_flits);
        im->words[im->n++] = node;
        for (v = 0; v < PyList_GET_SIZE(lanes); v++)
            if (image_room(im, node ? 7 : 12) < 0 || (lane = item(lanes, v)) == NULL
                || image_lane(im, lane, node) < 0)
                goto done;
        Py_CLEAR(lanes);
        Py_CLEAR(d);
    }
    if (image_flush(im) == 0)
        result = Py_NewRef(Py_None);
done:
    Py_XDECREF(lanes);
    Py_XDECREF(d);
    image_close(im);
    return result;
}

/* -- injection: statehash._node_tables --------------------------------------------- */

/* statehash._source_tables: whether the source is active, each queued entry
 * as its length and its ints, the next arrival cycle (NONE_WORD for None);
 * read by attribute, what is absent reading as the reference's default */
static int
image_source(Image *im, PyObject *src)
{
    PyObject *v, *it, *entry, *fast;
    Py_ssize_t i;
    int rc;
    if ((v = optional_attr(src, s_active)) == NULL)
        return -1;
    rc = truth(v);
    Py_DECREF(v);
    if (rc < 0 || image_word(im, rc) < 0)
        return -1;
    if ((v = PyObject_GetAttr(src, s_queue)) == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_AttributeError))
            return -1;
        PyErr_Clear();
    } else {
        it = PyObject_GetIter(v);
        Py_DECREF(v);
        if (it == NULL)
            return -1;
        rc = 0;
        while (rc == 0 && (entry = PyIter_Next(it)) != NULL) {
            fast = PySequence_Fast(entry, "a queued entry is a sequence of ints");
            Py_DECREF(entry);
            if (fast == NULL || image_word(im, PySequence_Fast_GET_SIZE(fast)) < 0)
                rc = -1;
            for (i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(fast); i++)
                rc = image_int(im, PySequence_Fast_GET_ITEM(fast, i));
            Py_XDECREF(fast);
        }
        Py_DECREF(it);
        if (rc < 0 || PyErr_Occurred())
            return -1;
    }
    if ((v = optional_attr(src, s__next)) == NULL)
        return -1;
    rc = v == Py_None ? image_word(im, NONE_WORD) : image_int(im, v);
    Py_DECREF(v);
    return rc;
}

/* one node's pre-image: its _NODE row, its lanes' _NODE_LANE rows, its
 * source's and the source's inner source's */
static int
image_node(Image *im, PyObject *node)
{
    PyObject *packet, *current, *lanes, *lane, *src, *inner;
    Py_ssize_t v;
    int rc;
    if (need(node, ND_nid) < 0 || (packet = get_obj(node, ND_packet)) == NULL
        || (current = get_obj(node, ND_lane)) == NULL || image_word(im, INT(node, ND_nid)) < 0
        || image_word(im, INT(node, ND_rr)) < 0 || image_word(im, INT(node, ND_sent)) < 0
        || image_pid(im, packet) < 0)
        return -1;
    if (current == Py_None)
        rc = image_word(im, NONE_WORD);
    else
        rc = need(current, IL_vc) < 0 ? -1 : image_word(im, INT(current, IL_vc));
    if (rc < 0 || (lanes = get_obj(node, ND_lanes)) == NULL)
        return -1;
    if (!PyList_Check(lanes)) {
        PyErr_SetString(PyExc_TypeError, "_Node.lanes must be a list");
        return -1;
    }
    for (v = 0; v < PyList_GET_SIZE(lanes); v++) {
        lane = PyList_GET_ITEM(lanes, v);
        if (need(lane, IL_vc) < 0 || (packet = get_obj(lane, IL_packet)) == NULL
            || (current = get_obj(lane, IL_bound)) == NULL || image_word(im, INT(lane, IL_vc)) < 0
            || image_pid(im, packet) < 0 || image_word(im, INT(lane, IL_received)) < 0
            || image_word(im, INT(lane, IL_forwarded)) < 0
            || image_word(im, INT(lane, IL_last_arrival)) < 0 || image_bound(im, current) < 0)
            return -1;
    }
    if ((src = get_obj(node, ND_source)) == NULL)
        return -1;
    Py_INCREF(src);
    rc = -1;
    if (image_source(im, src) == 0 && (inner = optional_attr(src, s_inner)) != NULL) {
        rc = inner == Py_None ? 0 : image_source(im, inner);
        Py_DECREF(inner);
    }
    Py_DECREF(src);
    return rc;
}

/* node_images(nodes) -> [bytes]: per node the pre-image statehash._node_tables
 * makes of it */
PyObject *
node_images(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *nodes, *images, *node, *image;
    Image *im;
    Py_ssize_t i;
    if (nargs != 1 || !PyList_Check(args[0])) {
        PyErr_SetString(PyExc_TypeError, "node_images(nodes): nodes is a list");
        return NULL;
    }
    nodes = args[0];
    if ((images = PyList_New(PyList_GET_SIZE(nodes))) == NULL)
        return NULL;
    if ((im = image_open(NULL)) == NULL) {
        Py_DECREF(images);
        return NULL;
    }
    for (i = 0; i < PyList_GET_SIZE(nodes) && i < PyList_GET_SIZE(images); i++) {
        node = Py_NewRef(PyList_GET_ITEM(nodes, i));
        image = image_node(im, node) < 0 ? NULL : image_take(im);
        Py_DECREF(node);
        if (image == NULL) {
            Py_CLEAR(images);
            break;
        }
        PyList_SET_ITEM(images, i, image);
    }
    image_close(im);
    if (images != NULL && PyList_GET_SIZE(images) != PyList_GET_SIZE(nodes)) {
        PyErr_SetString(PyExc_RuntimeError, "the nodes changed while they were read");
        Py_CLEAR(images);
    }
    return images;
}

/* -- routing: statehash._routing_tables ------------------------------------------- */

/* routing_image(engine) -> bytes: the round-robin pointers, the pending
 * headers of each switch that has some, the route queue and the crossbar
 * bindings sorted by (switch, port, vc) */
PyObject *
routing_image(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *engine, *v = NULL, *lanes, *lane, *packet, *result = NULL;
    Entry *rows = NULL;
    Py_ssize_t s, i, n = 0;
    Image *im;
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "routing_image(engine)");
        return NULL;
    }
    engine = args[0];
    if ((im = image_open(NULL)) == NULL)
        return NULL;
    if ((v = PyObject_GetAttr(engine, s_route_rr)) == NULL || image_ints(im, v) < 0
        || image_word(im, NONE_WORD) < 0)
        goto done;
    Py_SETREF(v, list_attr(engine, s_pending));
    for (s = 0; v != NULL && s < PyList_GET_SIZE(v); s++) {
        lanes = PyList_GET_ITEM(v, s);
        if (!PyList_Check(lanes)) {
            PyErr_SetString(PyExc_TypeError, "Engine.pending holds lists");
            goto done;
        }
        if (PyList_GET_SIZE(lanes) && image_word(im, s) < 0)
            goto done;
        for (i = 0; i < PyList_GET_SIZE(lanes); i++) {
            lane = PyList_GET_ITEM(lanes, i);
            if (need(lane, IL_port) < 0 || (packet = get_obj(lane, IL_packet)) == NULL
                || image_word(im, INT(lane, IL_port)) < 0 || image_word(im, INT(lane, IL_vc)) < 0
                || image_pid(im, packet) < 0)
                goto done;
        }
    }
    if (v == NULL || image_word(im, NONE_WORD) < 0)
        goto done;
    Py_SETREF(v, PyObject_GetAttr(engine, s_route_queue));
    if (v == NULL || image_ints(im, v) < 0 || image_word(im, NONE_WORD) < 0)
        goto done;
    Py_SETREF(v, list_attr(engine, s_bindings));
    if (v == NULL)
        goto done;
    if ((rows = PyMem_Calloc(PyList_GET_SIZE(v) + 1, sizeof(Entry))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (; n < PyList_GET_SIZE(v); n++) {
        lane = PyList_GET_ITEM(v, n);
        if (need(lane, IL_switch) < 0)
            goto done;
        rows[n].key[0] = INT(lane, IL_switch);
        rows[n].key[1] = INT(lane, IL_port);
        rows[n].key[2] = INT(lane, IL_vc);
        rows[n].at = n;
        rows[n].value = Py_NewRef(lane);
    }
    qsort(rows, n, sizeof(Entry), entry_order);
    for (i = 0; i < n; i++)
        if ((packet = get_obj(rows[i].value, IL_packet)) == NULL || image_word(im, rows[i].key[0]) < 0
            || image_word(im, rows[i].key[1]) < 0 || image_word(im, rows[i].key[2]) < 0
            || image_pid(im, packet) < 0)
            goto done;
    result = image_take(im);
done:
    if (rows != NULL)
        entries_free(rows, n);
    Py_XDECREF(v);
    image_close(im);
    return result;
}
