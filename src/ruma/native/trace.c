/* The canonical-line kernel of ruma.trace.parse_trace, a CPython
 * extension module.
 *
 * parse(lines, live, first_line, events) reads the list `lines` from its
 * head and takes each line that has both of these properties:
 *
 *   - it is canonical ASCII: "a ID SIZE", "r ID SIZE" or "f ID", with
 *     single spaces, an ID of printable ASCII other than '#', a SIZE of
 *     1 to 18 digits, and an optional final '\n';
 *   - it passes the liveness rule: an alloc's ID is not a key of the
 *     dict `live`, a realloc's or a free's is.
 *
 * For each line it takes, it appends to `events` the tuple
 * (kind, ident, size, line) that the Python loop appends, where `ident`
 * is the alloc's own str from `live` and `line` counts from first_line,
 * and it updates `live` as that loop does. It stops at the first line it
 * does not take and returns how many it took; the Python loop parses the
 * rest, so every error message, and every other spelling of a line
 * (comments, blank lines, tabs, CRLF, non-ASCII ids), stays the Python
 * loop's. No input raises: `lines` that is not a list, or `live` that is
 * not a dict, takes nothing.
 *
 * The module calls nothing outside the interpreter, so the library needs
 * no symbol beyond Py* and _Py* ones.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

enum { ALLOC, REALLOC, FREE };

static PyObject *kinds[3]; /* "alloc", "realloc", "free", interned */

/* Take `line` if it is canonical and live-consistent: 1 when taken, 0
 * when not, -1 with an exception set when the interpreter fails. */
static int take(PyObject *line, PyObject *live, Py_ssize_t lineno, PyObject *events)
{
    if (!PyUnicode_CheckExact(line) || !PyUnicode_IS_ASCII(line))
        return 0;
    const unsigned char *text = PyUnicode_DATA(line);
    const unsigned char *end = text + PyUnicode_GET_LENGTH(line);
    if (end > text && end[-1] == '\n')
        end--;
    if (end - text < 3 || text[1] != ' ')
        return 0;
    int kind;
    switch (text[0]) {
    case 'a': kind = ALLOC; break;
    case 'r': kind = REALLOC; break;
    case 'f': kind = FREE; break;
    default: return 0;
    }
    const unsigned char *id = text + 2, *p = id;
    while (p < end && *p > ' ' && *p < 0x7f && *p != '#')
        p++;
    Py_ssize_t id_length = p - id;
    if (id_length == 0)
        return 0;
    unsigned long long size = 0;
    if (kind != FREE) {
        if (p == end || *p != ' ')
            return 0;
        const unsigned char *digits = ++p;
        /* past 18 digits the line is not taken, so no wrap is ever used */
        for (; p < end && *p >= '0' && *p <= '9'; p++)
            size = size * 10 + (*p - '0');
        if (p == digits || p - digits > 18)
            return 0;
    }
    if (p != end)
        return 0;

    PyObject *ident = PyUnicode_Substring(line, 2, 2 + id_length);
    if (ident == NULL)
        return -1;
    if (kind == ALLOC) {
        int known = PyDict_Contains(live, ident);
        if (known != 0 || PyDict_SetItem(live, ident, ident) < 0) {
            Py_DECREF(ident);
            return known > 0 ? 0 : -1;
        }
    } else {
        /* the alloc's own str: one object per id however often it recurs */
        PyObject *own = PyDict_GetItemWithError(live, ident);
        if (own == NULL) {
            Py_DECREF(ident);
            return PyErr_Occurred() ? -1 : 0;
        }
        Py_INCREF(own);
        if (kind == FREE && PyDict_DelItem(live, ident) < 0) {
            Py_DECREF(own);
            Py_DECREF(ident);
            return -1;
        }
        Py_DECREF(ident);
        ident = own;
    }

    PyObject *event = PyTuple_New(4);
    PyObject *size_obj = kind == FREE ? Py_NewRef(Py_None)
                                      : PyLong_FromUnsignedLongLong(size);
    PyObject *line_obj = PyLong_FromSsize_t(lineno);
    if (event == NULL || size_obj == NULL || line_obj == NULL) {
        Py_XDECREF(event);
        Py_XDECREF(size_obj);
        Py_XDECREF(line_obj);
        Py_DECREF(ident);
        return -1;
    }
    Py_INCREF(kinds[kind]);
    PyTuple_SET_ITEM(event, 0, kinds[kind]);
    PyTuple_SET_ITEM(event, 1, ident);
    PyTuple_SET_ITEM(event, 2, size_obj);
    PyTuple_SET_ITEM(event, 3, line_obj);
    int appended = PyList_Append(events, event);
    Py_DECREF(event);
    return appended < 0 ? -1 : 1;
}

static PyObject *parse(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *lines, *live, *events;
    Py_ssize_t first_line, taken = 0;
    if (!PyArg_ParseTuple(args, "OOnO!:parse", &lines, &live, &first_line,
                          &PyList_Type, &events))
        return NULL;
    if (PyList_Check(lines) && PyDict_CheckExact(live)) {
        /* the length is read again each time: a key's __eq__ in `live`
         * could run code that shortens the list */
        while (taken < PyList_GET_SIZE(lines)) {
            PyObject *line = PyList_GET_ITEM(lines, taken);
            Py_INCREF(line);
            int took = take(line, live, first_line + taken, events);
            Py_DECREF(line);
            if (took < 0)
                return NULL;
            if (took == 0)
                break;
            taken++;
        }
    }
    return PyLong_FromSsize_t(taken);
}

static PyMethodDef methods[] = {
    {"parse", parse, METH_VARARGS,
     "parse(lines, live, first_line, events) -> the number of lines taken"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "trace",
    .m_doc = "The canonical-line kernel of ruma.trace.parse_trace.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit_trace(void)
{
    static const char *names[3] = {"alloc", "realloc", "free"};
    for (int k = 0; k < 3; k++)
        if (kinds[k] == NULL && (kinds[k] = PyUnicode_InternFromString(names[k])) == NULL)
            return NULL;
    return PyModule_Create(&module);
}
