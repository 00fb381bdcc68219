/* The compiled kernels of ruma, one CPython extension module: parse for
 * ruma.trace.parse_trace, generate for generate_trace, serialize for
 * serialize_trace and spray_successes for ruma.spray.monte_carlo. Each
 * does exactly what its Python loop does, for the inputs it takes; the
 * loop handles every other input, and alone raises the trace's errors.
 * generate and spray_successes read the one Philox4x64-10 stream of
 * philox() below.
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
 * loop's. No input raises: `lines` that is not exactly a list, or `live`
 * that is not exactly a dict, takes nothing (a list subclass may iterate
 * other than its storage).
 *
 * generate(events, (k0, k1), alloc_below, realloc_below, mean, sigma,
 * min_size, max_size, (ki, wi, fi, r, inv_r)) returns generate_trace's
 * event list, drawn from the Philox stream under the key (k0, k1) as
 * ruma.philox draws it: the same rolls, Lemire picks with the same kept
 * half, and numpy's ziggurat over ruma.philox's tables and constants,
 * passed in so that they exist once. It follows ruma.philox's
 * expressions in their order, and ruma.native builds it with
 * -ffp-contract=off, so every double is the one Python computes. It
 * returns None, and generate_trace's loop makes the trace, unless sigma
 * and the size bounds are ints or floats strictly between -2**53 and
 * 2**53.
 *
 * serialize(events) returns (text, taken): the canonical text of the
 * events at the head of the list `events` that are exact 4-tuples of an
 * interned kind string (the very object that parse and generate put in
 * their events), an ASCII str id and, but for a free, an int size in
 * [0, 2**64), and how many those are. serialize_trace's loop writes the
 * rest, and alone raises on a malformed event.
 *
 * spray_successes(k0, k1, first_half, chains, k, field) counts, of the
 * `chains` chains of k 32-bit halves that start at half first_half of
 * the stream under (k0, k1), those whose every half ANDed with `field`
 * is zero: the chains whose every stage reads the sprayed value back.
 * Half h of the stream is 32-bit half h % 2 of word h / 2, the low half
 * first, as numpy's next_uint32 serves them. It releases the GIL while
 * it counts; its arguments are not checked for overflow, so the caller
 * keeps first_half + chains * k below 2**64.
 *
 * The module calls nothing outside the interpreter, so the library needs
 * no symbol beyond Py* and _Py* ones: exp and log1p are the math
 * module's functions, called as Python calls them, and no copy is left
 * to memcpy (ruma.native builds with -fno-builtin).
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
    if (PyList_CheckExact(lines) && PyDict_CheckExact(live)) {
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

/* ---- the Philox stream of generate and spray_successes ---- */

typedef unsigned __int128 u128;

/* words[0..3] = the Philox4x64-10 block (Salmon et al., SC 2011) for
 * `counter` under (k0, k1): numpy.random.Philox's stream under the key
 * that ruma.philox.seed_key derives from the seed, for counters 1, 2,
 * 3, ... */
static void philox(uint64_t counter, uint64_t k0, uint64_t k1, uint64_t words[4])
{
    uint64_t x0 = counter, x1 = 0, x2 = 0, x3 = 0;
    /* unrolled, the sampler takes about a fifth less time at -O2 (GCC 12) */
#pragma GCC unroll 10
    for (int round = 0; round < 10; round++) {
        u128 p0 = (u128)x0 * 0xD2E7470EE14C6C93u;
        u128 p1 = (u128)x2 * 0xCA5A826395121157u;
        x0 = (uint64_t)(p1 >> 64) ^ x1 ^ k0;
        x1 = (uint64_t)p1;
        x2 = (uint64_t)(p0 >> 64) ^ x3 ^ k1;
        x3 = (uint64_t)p0;
        k0 += 0x9E3779B97F4A7C15u;
        k1 += 0xBB67AE8584CAA73Bu;
    }
    words[0] = x0;
    words[1] = x1;
    words[2] = x2;
    words[3] = x3;
}

/* ---- generate: the synthetic trace of ruma.trace.generate_trace ---- */

static PyObject *math_exp, *math_log1p; /* the math module's functions */

/* One key's stream from counter 1, word by word, with the high half a
 * 32-bit draw keeps (ruma.philox.pick's `spare`) */
struct stream {
    uint64_t k0, k1, counter, words[4];
    int used;      /* words of the block read so far */
    int has_spare;
    uint32_t spare;
};

static uint64_t next_word(struct stream *s)
{
    if (s->used == 4) {
        philox(++s->counter, s->k0, s->k1, s->words);
        s->used = 0;
    }
    return s->words[s->used++];
}

/* ruma.philox.pick: Generator.integers(0, n) for 1 <= n < 2**64 */
static uint64_t pick(struct stream *s, uint64_t n)
{
    if (n == 1)
        return 0;
    if (n > 0xFFFFFFFFu) {
        for (;;) {
            u128 m = (u128)next_word(s) * n;
            uint64_t low = (uint64_t)m;
            if (low >= n || low >= (0 - n) % n)
                return (uint64_t)(m >> 64);
        }
    }
    for (;;) {
        uint32_t half;
        if (!s->has_spare) {
            uint64_t word = next_word(s);
            half = (uint32_t)word;
            s->spare = (uint32_t)(word >> 32);
            s->has_spare = 1;
        } else {
            half = s->spare;
            s->has_spare = 0;
        }
        uint64_t m = (uint64_t)half * n;
        uint64_t low = m & 0xFFFFFFFFu;
        if (low >= n || low >= (0x100000000u - n) % n)
            return m >> 32;
    }
}

/* numpy's ziggurat: ruma.philox's tables _KI, _WI and _FI, and its
 * constants _R and _INV_R */
struct ziggurat {
    uint64_t ki[256];
    double wi[256], fi[256], r, inv_r;
};

static int read_ziggurat(PyObject *ki, PyObject *wi, PyObject *fi, PyObject *r,
                         PyObject *inv_r, struct ziggurat *t)
{
    if (!PyTuple_CheckExact(ki) || PyTuple_GET_SIZE(ki) != 256 ||
        !PyTuple_CheckExact(wi) || PyTuple_GET_SIZE(wi) != 256 ||
        !PyTuple_CheckExact(fi) || PyTuple_GET_SIZE(fi) != 256) {
        PyErr_SetString(PyExc_ValueError, "the ziggurat tables are tuples of 256");
        return -1;
    }
    t->r = PyFloat_AsDouble(r);
    t->inv_r = PyFloat_AsDouble(inv_r);
    for (int i = 0; i < 256; i++) {
        t->ki[i] = PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(ki, i));
        t->wi[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(wi, i));
        t->fi[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(fi, i));
        if (PyErr_Occurred())
            return -1;
    }
    return 0;
}

/* *out = f(x) for one of the math module's functions: 0, or -1 with an
 * exception set */
static int call_math(PyObject *f, double x, double *out)
{
    PyObject *arg = PyFloat_FromDouble(x);
    if (arg == NULL)
        return -1;
    PyObject *result = PyObject_CallOneArg(f, arg);
    Py_DECREF(arg);
    if (result == NULL)
        return -1;
    *out = PyFloat_AsDouble(result);
    Py_DECREF(result);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

#define TO_DOUBLE (1.0 / 9007199254740992.0)

/* ruma.philox.standard_normal, expression for expression */
static int standard_normal(struct stream *s, const struct ziggurat *t, double *out)
{
    for (;;) {
        uint64_t r = next_word(s);
        int idx = r & 0xFF;
        uint64_t rabs = r >> 9 & 0xFFFFFFFFFFFFFu;
        double x = rabs * t->wi[idx];
        if (r & 0x100)
            x = -x;
        if (rabs < t->ki[idx]) {
            *out = x;
            return 0;
        }
        if (idx == 0) {
            for (;;) {
                double xx, yy;
                if (call_math(math_log1p, -((next_word(s) >> 11) * TO_DOUBLE), &xx) < 0)
                    return -1;
                xx = -t->inv_r * xx;
                if (call_math(math_log1p, -((next_word(s) >> 11) * TO_DOUBLE), &yy) < 0)
                    return -1;
                yy = -yy;
                if (yy + yy > xx * xx) {
                    /* numpy signs a tail draw by bit 17 of the word, not 8 */
                    *out = rabs >> 8 & 1 ? -(t->r + xx) : t->r + xx;
                    return 0;
                }
            }
        } else {
            double u = (next_word(s) >> 11) * TO_DOUBLE, e;
            if (call_math(math_exp, -0.5 * x * x, &e) < 0)
                return -1;
            if ((t->fi[idx - 1] - t->fi[idx]) * u + t->fi[idx] < e) {
                *out = x;
                return 0;
            }
        }
    }
}

/* *out = the value of `obj`, an int or float strictly between -2**53 and
 * 2**53, where every such value is a double and every double op on it is
 * the one Python makes: 1, or 0 for any other object */
static int exact_double(PyObject *obj, double *out)
{
    if (PyFloat_CheckExact(obj)) {
        *out = PyFloat_AS_DOUBLE(obj);
    } else if (PyLong_CheckExact(obj)) {
        int overflow;
        long long value = PyLong_AsLongLongAndOverflow(obj, &overflow);
        if (overflow)
            return 0;
        *out = (double)value;
    } else {
        return 0;
    }
    /* false for a NaN too */
    return *out > -9007199254740992.0 && *out < 9007199254740992.0;
}

/* Python's round() of a double in [0, 2**53): ties go to even */
static uint64_t round_half_even(double x)
{
    uint64_t whole = (uint64_t)x;
    double rest = x - (double)whole; /* exact */
    return whole + (rest > 0.5 || (rest == 0.5 && whole & 1));
}

/* A new event tuple (kind, ident, size, 0); steals `size`, which may be
 * NULL after a failed call, and borrows the rest */
static PyObject *event(int kind, PyObject *ident, PyObject *size)
{
    if (size == NULL)
        return NULL;
    PyObject *tuple = PyTuple_New(4);
    if (tuple == NULL) {
        Py_DECREF(size);
        return NULL;
    }
    PyTuple_SET_ITEM(tuple, 0, Py_NewRef(kinds[kind]));
    PyTuple_SET_ITEM(tuple, 1, Py_NewRef(ident));
    PyTuple_SET_ITEM(tuple, 2, size);
    PyTuple_SET_ITEM(tuple, 3, PyLong_FromLong(0)); /* a cached small int */
    return tuple;
}

/* The size of an alloc or realloc, as a new int: exp(mean + sigma * z)
 * clamped to [min_size, max_size] and rounded, or NULL with an
 * exception set */
static PyObject *draw_size(struct stream *s, const struct ziggurat *t, double mean,
                           double sigma, double min_size, double max_size)
{
    double z, size;
    if (standard_normal(s, t, &z) < 0)
        return NULL;
    if (call_math(math_exp, mean + sigma * z, &size) < 0) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return NULL;
        PyErr_Clear(); /* where C's exp, and so numpy's, gives inf */
        size = INFINITY;
    }
    /* clamped before rounding, so a draw that overflows to inf is max_size */
    size = size < min_size ? min_size : size > max_size ? max_size : size;
    return PyLong_FromUnsignedLongLong(round_half_even(size));
}

/* Write n in decimal, at most 20 digits, from p; returns the end */
static char *write_decimal(char *p, uint64_t n)
{
    char digits[20];
    int start = 20;
    do
        digits[--start] = '0' + n % 10;
    while (n /= 10);
    while (start < 20)
        *p++ = digits[start++];
    return p;
}

/* str(n) */
static PyObject *decimal(uint64_t n)
{
    char text[20];
    return PyUnicode_FromStringAndSize(text, write_decimal(text, n) - text);
}

static PyObject *generate(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_ssize_t count;
    struct stream s = {.used = 4};
    uint64_t alloc_below, realloc_below;
    double mean, sigma, min_size, max_size;
    PyObject *sigma_obj, *min_obj, *max_obj, *ki, *wi, *fi, *r, *inv_r;
    struct ziggurat t;
    if (!PyArg_ParseTuple(args, "n(KK)KKdOOO(OOOOO):generate", &count, &s.k0, &s.k1,
                          &alloc_below, &realloc_below, &mean, &sigma_obj, &min_obj,
                          &max_obj, &ki, &wi, &fi, &r, &inv_r))
        return NULL;
    if (!exact_double(sigma_obj, &sigma) || !exact_double(min_obj, &min_size) ||
        !exact_double(max_obj, &max_size))
        Py_RETURN_NONE;
    if (read_ziggurat(ki, wi, fi, r, inv_r, &t) < 0)
        return NULL;

    PyObject *out = PyList_New(count > 0 ? count : 0);
    /* the live ids, borrowed: each alloc's event in `out` owns its id */
    PyObject **live = NULL;
    Py_ssize_t n_live = 0, room = 0;
    uint64_t next_id = 1;
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < count; i++) {
        uint64_t word = next_word(&s);
        Py_ssize_t chosen = -1;
        PyObject *item;
        if (word >= alloc_below && n_live > 0) {
            chosen = (Py_ssize_t)pick(&s, (uint64_t)n_live);
            if (word >= realloc_below) {
                PyObject *ident = live[chosen];
                live[chosen] = live[--n_live];
                if ((item = event(FREE, ident, Py_NewRef(Py_None))) == NULL)
                    goto fail;
                PyList_SET_ITEM(out, i, item);
                continue;
            }
        }
        PyObject *size = draw_size(&s, &t, mean, sigma, min_size, max_size);
        if (chosen >= 0) {
            item = event(REALLOC, live[chosen], size);
        } else {
            if (n_live == room) {
                room = room ? 2 * room : 1024;
                PyObject **grown = PyMem_Realloc(live, room * sizeof *live);
                if (grown == NULL) {
                    Py_XDECREF(size);
                    PyErr_NoMemory();
                    goto fail;
                }
                live = grown;
            }
            PyObject *ident = decimal(next_id++);
            if (ident == NULL) {
                Py_XDECREF(size);
                goto fail;
            }
            item = event(ALLOC, ident, size);
            Py_DECREF(ident);
            if (item != NULL)
                live[n_live++] = ident;
        }
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(out, i, item);
    }
    PyMem_Free(live);
    return out;
fail:
    PyMem_Free(live);
    Py_DECREF(out);
    return NULL;
}

/* ---- serialize: the canonical text of ruma.trace.serialize_trace ---- */

/* serialize(events) -> (text, taken): the text of the events at the head
 * of the list `events` that it can write as the Python loop would */
static PyObject *serialize(PyObject *Py_UNUSED(self), PyObject *events)
{
    char *text = NULL;
    Py_ssize_t length = 0, room = 0, taken = 0;
    if (PyList_CheckExact(events)) {
        for (; taken < PyList_GET_SIZE(events); taken++) {
            PyObject *item = PyList_GET_ITEM(events, taken);
            if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 4)
                break;
            PyObject *kind_obj = PyTuple_GET_ITEM(item, 0);
            PyObject *ident = PyTuple_GET_ITEM(item, 1);
            int kind = 0;
            while (kind < 3 && kinds[kind] != kind_obj)
                kind++;
            if (kind == 3 || !PyUnicode_CheckExact(ident) || !PyUnicode_IS_ASCII(ident))
                break;
            /* a free's size is not written, whatever it is */
            unsigned long long size = 0;
            if (kind != FREE) {
                PyObject *size_obj = PyTuple_GET_ITEM(item, 2);
                if (!PyLong_CheckExact(size_obj))
                    break;
                size = PyLong_AsUnsignedLongLong(size_obj);
                if (size == (unsigned long long)-1 && PyErr_Occurred()) {
                    PyErr_Clear(); /* negative, or 2**64 and above */
                    break;
                }
            }
            Py_ssize_t id_length = PyUnicode_GET_LENGTH(ident);
            /* "k ID SIZE\n", at most 20 digits of size */
            if (room - length < id_length + 24) {
                room = 2 * room + id_length + 24 + 65536;
                char *grown = PyMem_Realloc(text, room);
                if (grown == NULL) {
                    PyMem_Free(text);
                    return PyErr_NoMemory();
                }
                text = grown;
            }
            char *p = text + length;
            *p++ = "arf"[kind];
            *p++ = ' ';
            const char *id = (const char *)PyUnicode_1BYTE_DATA(ident);
            for (Py_ssize_t j = 0; j < id_length; j++)
                *p++ = id[j];
            if (kind != FREE) {
                *p++ = ' ';
                p = write_decimal(p, size);
            }
            *p++ = '\n';
            length = p - text;
        }
    }
    PyObject *head = PyUnicode_FromStringAndSize(text, length);
    PyMem_Free(text);
    return head == NULL ? NULL : Py_BuildValue("(Nn)", head, taken);
}

/* ---- spray_successes: the sampler of ruma.spray.monte_carlo ---- */

/* A chain stops at its first failed stage, and the next chain starts
 * where the failed one would have ended. An even chain starts on a word
 * (the caller passes whole chains) and is tested k / 2 whole words at a
 * time against the field in both halves; an odd one is tested half by
 * half. */
static uint64_t count_successes(uint64_t k0, uint64_t k1, uint64_t first_half,
                                uint64_t chains, uint64_t k, uint32_t field)
{
    uint64_t words[4], block = 0; /* the block in words; no stream block is 0 */
    uint64_t successes = 0;
    if (k % 2 == 0) {
        uint64_t mask = (uint64_t)field << 32 | field;
        uint64_t w = first_half / 2;
        for (; chains; chains--) {
            uint64_t end = w + k / 2;
            for (; w < end; w++) {
                if (w / 4 + 1 != block)
                    philox(block = w / 4 + 1, k0, k1, words);
                if (words[w % 4] & mask)
                    break;
            }
            successes += w == end;
            w = end;
        }
    } else {
        uint64_t h = first_half;
        for (; chains; chains--) {
            uint64_t end = h + k;
            for (; h < end; h++) {
                if (h / 8 + 1 != block)
                    philox(block = h / 8 + 1, k0, k1, words);
                if ((uint32_t)(words[h / 2 % 4] >> (h % 2 * 32)) & field)
                    break;
            }
            successes += h == end;
            h = end;
        }
    }
    return successes;
}

static PyObject *spray_successes(PyObject *Py_UNUSED(self), PyObject *args)
{
    unsigned long long k0, k1, first_half, chains, k, successes;
    unsigned int field;
    if (!PyArg_ParseTuple(args, "KKKKKI:spray_successes", &k0, &k1, &first_half,
                          &chains, &k, &field))
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    successes = count_successes(k0, k1, first_half, chains, k, field);
    Py_END_ALLOW_THREADS
    return PyLong_FromUnsignedLongLong(successes);
}

static PyMethodDef methods[] = {
    {"parse", parse, METH_VARARGS,
     "parse(lines, live, first_line, events) -> the number of lines taken"},
    {"generate", generate, METH_VARARGS,
     "generate(events, key, alloc_below, realloc_below, mean, sigma, min_size, "
     "max_size, ziggurat) -> the event list, or None"},
    {"serialize", serialize, METH_O, "serialize(events) -> (text, taken)"},
    {"spray_successes", spray_successes, METH_VARARGS,
     "spray_successes(k0, k1, first_half, chains, k, field) -> the chains "
     "that read the value back"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "kernels",
    .m_doc = "The compiled kernels of ruma.trace and ruma.spray.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit_kernels(void)
{
    static const char *names[3] = {"alloc", "realloc", "free"};
    for (int k = 0; k < 3; k++)
        if (kinds[k] == NULL && (kinds[k] = PyUnicode_InternFromString(names[k])) == NULL)
            return NULL;
    if (math_exp == NULL) {
        PyObject *math = PyImport_ImportModule("math");
        if (math == NULL)
            return NULL;
        math_exp = PyObject_GetAttrString(math, "exp");
        math_log1p = PyObject_GetAttrString(math, "log1p");
        Py_DECREF(math);
        if (math_exp == NULL || math_log1p == NULL) {
            Py_CLEAR(math_exp);
            Py_CLEAR(math_log1p);
            return NULL;
        }
    }
    return PyModule_Create(&module);
}
