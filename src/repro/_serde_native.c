/* The compiled canonical serde codec (repro.serde's encode/decode): a
   CPython extension that walks the object graph in C and produces the
   same bytes as the pure-Python codec.  Every value it declines (an int
   outside 64 bits, a subclass, an unsupported type, nesting deeper than
   MAX_DEPTH, a malformed or non-bytes blob) goes to the pure-Python
   function registered with set_fallback(), which owns every error and
   its message.  repro._cbuild compiles it; repro._serde_native loads it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdlib.h>
#include <string.h>

/* ------------------------------------------------------------------ buffer */

typedef struct {
    unsigned char *p;
    size_t len;
    size_t cap;
} buf_t;

static int buf_reserve(buf_t *b, size_t extra) {
    if (b->len + extra <= b->cap)
        return 0;
    size_t cap = b->cap ? b->cap : 256;
    while (cap < b->len + extra)
        cap *= 2;
    unsigned char *p = (unsigned char *)realloc(b->p, cap);
    if (!p)
        return -1;
    b->p = p;
    b->cap = cap;
    return 0;
}

static int buf_put(buf_t *b, const void *src, size_t n) {
    if (buf_reserve(b, n))
        return -1;
    memcpy(b->p + b->len, src, n);
    b->len += n;
    return 0;
}

static void put_len8(unsigned char *dst, unsigned long long n) {
    int i;
    for (i = 0; i < 8; i++)
        dst[i] = (unsigned char)(n >> (8 * (7 - i)));
}

/* ------------------------------------------------------------------ encode */

#define ENC_OK 0
#define ENC_FALLBACK 1 /* pure Python must handle this value */
#define ENC_ERR 2      /* hard failure (out of memory) */

#define MAX_DEPTH 64

static int enc_value(PyObject *obj, buf_t *b, int depth);

static int enc_long(PyObject *obj, buf_t *b) {
    int overflow = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
    unsigned char tmp[17];
    unsigned long long uv;
    int i;
    if (overflow || (v == -1 && PyErr_Occurred())) {
        PyErr_Clear();
        return ENC_FALLBACK; /* beyond 64 bits: rare, pure path encodes */
    }
    tmp[0] = 'I';
    memset(tmp + 1, v < 0 ? 0xff : 0x00, 8);
    uv = (unsigned long long)v;
    for (i = 0; i < 8; i++)
        tmp[9 + i] = (unsigned char)(uv >> (8 * (7 - i)));
    return buf_put(b, tmp, 17) ? ENC_ERR : ENC_OK;
}

typedef struct {
    const unsigned char *key; /* resolved after the key buffer stops moving */
    size_t key_off;
    size_t key_len;
    PyObject *value;          /* borrowed */
} dict_item_t;

static int dict_item_cmp(const void *a, const void *b) {
    const dict_item_t *x = (const dict_item_t *)a;
    const dict_item_t *y = (const dict_item_t *)b;
    size_t n = x->key_len < y->key_len ? x->key_len : y->key_len;
    int c = memcmp(x->key, y->key, n);
    if (c)
        return c;
    if (x->key_len == y->key_len)
        return 0;
    return x->key_len < y->key_len ? -1 : 1;
}

static int enc_dict(PyObject *obj, buf_t *b, int depth) {
    Py_ssize_t count = PyDict_GET_SIZE(obj);
    Py_ssize_t pos = 0;
    PyObject *key, *value;
    buf_t kb = {NULL, 0, 0};
    dict_item_t *items = NULL;
    size_t i = 0, n = (size_t)count;
    int rc = ENC_OK;
    unsigned char header[9];

    header[0] = 'D';
    put_len8(header + 1, (unsigned long long)count);
    if (buf_put(b, header, 9))
        return ENC_ERR;
    if (count == 0)
        return ENC_OK;
    items = (dict_item_t *)malloc(n * sizeof(dict_item_t));
    if (!items)
        return ENC_ERR;
    while (PyDict_Next(obj, &pos, &key, &value)) {
        size_t start = kb.len;
        rc = enc_value(key, &kb, depth + 1);
        if (rc)
            goto done;
        items[i].key_off = start;
        items[i].key_len = kb.len - start;
        items[i].value = value;
        i++;
    }
    for (i = 0; i < n; i++)
        items[i].key = kb.p + items[i].key_off;
    qsort(items, n, sizeof(dict_item_t), dict_item_cmp);
    for (i = 0; i < n; i++) {
        if (buf_put(b, items[i].key, items[i].key_len)) {
            rc = ENC_ERR;
            goto done;
        }
        rc = enc_value(items[i].value, b, depth + 1);
        if (rc)
            goto done;
    }
done:
    free(items);
    free(kb.p);
    return rc;
}

static int enc_value(PyObject *obj, buf_t *b, int depth) {
    PyTypeObject *tp;
    unsigned char header[9];

    if (depth > MAX_DEPTH)
        return ENC_FALLBACK;
    if (obj == Py_None) {
        header[0] = 'N';
        return buf_put(b, header, 1) ? ENC_ERR : ENC_OK;
    }
    if (obj == Py_True) {
        header[0] = 'T';
        return buf_put(b, header, 1) ? ENC_ERR : ENC_OK;
    }
    if (obj == Py_False) {
        header[0] = 'F';
        return buf_put(b, header, 1) ? ENC_ERR : ENC_OK;
    }
    tp = Py_TYPE(obj);
    if (tp == &PyLong_Type)
        return enc_long(obj, b);
    if (tp == &PyBytes_Type) {
        Py_ssize_t size = PyBytes_GET_SIZE(obj);
        header[0] = 'B';
        put_len8(header + 1, (unsigned long long)size);
        if (buf_put(b, header, 9) ||
            buf_put(b, PyBytes_AS_STRING(obj), (size_t)size))
            return ENC_ERR;
        return ENC_OK;
    }
    if (tp == &PyByteArray_Type) {
        Py_ssize_t size = PyByteArray_GET_SIZE(obj);
        header[0] = 'B';
        put_len8(header + 1, (unsigned long long)size);
        if (buf_put(b, header, 9) ||
            buf_put(b, PyByteArray_AS_STRING(obj), (size_t)size))
            return ENC_ERR;
        return ENC_OK;
    }
    if (tp == &PyUnicode_Type) {
        Py_ssize_t size;
        const char *utf8 = PyUnicode_AsUTF8AndSize(obj, &size);
        if (!utf8) {
            PyErr_Clear(); /* lone surrogates: pure path raises */
            return ENC_FALLBACK;
        }
        header[0] = 'S';
        put_len8(header + 1, (unsigned long long)size);
        if (buf_put(b, header, 9) || buf_put(b, utf8, (size_t)size))
            return ENC_ERR;
        return ENC_OK;
    }
    if (tp == &PyList_Type || tp == &PyTuple_Type) {
        Py_ssize_t size = tp == &PyList_Type ? PyList_GET_SIZE(obj)
                                             : PyTuple_GET_SIZE(obj);
        Py_ssize_t i;
        header[0] = 'L';
        put_len8(header + 1, (unsigned long long)size);
        if (buf_put(b, header, 9))
            return ENC_ERR;
        for (i = 0; i < size; i++) {
            PyObject *item = tp == &PyList_Type ? PyList_GET_ITEM(obj, i)
                                                : PyTuple_GET_ITEM(obj, i);
            int rc = enc_value(item, b, depth + 1);
            if (rc)
                return rc;
        }
        return ENC_OK;
    }
    if (tp == &PyDict_Type)
        return enc_dict(obj, b, depth);
    return ENC_FALLBACK; /* subclasses, floats, exotic types */
}

/* Pure-Python fallbacks; NULL until set_fallback() registers them. */
static PyObject *enc_fallback_cb = NULL;
static PyObject *dec_fallback_cb = NULL;

static PyObject *call_fallback(PyObject *cb, PyObject *arg) {
    if (!cb) {
        PyErr_SetString(PyExc_RuntimeError, "set_fallback() was not called");
        return NULL;
    }
    return PyObject_CallOneArg(cb, arg);
}

static PyObject *serde_encode(PyObject *self, PyObject *obj) {
    buf_t b = {NULL, 0, 0};
    int rc = enc_value(obj, &b, 0);
    PyObject *out;
    (void)self;
    if (rc == ENC_FALLBACK) {
        free(b.p);
        return call_fallback(enc_fallback_cb, obj);
    }
    if (rc == ENC_ERR) {
        free(b.p);
        return PyErr_NoMemory();
    }
    out = PyBytes_FromStringAndSize((const char *)b.p, (Py_ssize_t)b.len);
    free(b.p);
    return out;
}

/* ------------------------------------------------------------------ decode */

/* Returns a new reference, or NULL with no exception set to request the
   pure-Python fallback (which re-raises the precise protocol error). */
static PyObject *dec_value(const unsigned char *p, Py_ssize_t size,
                           Py_ssize_t *off, int depth) {
    unsigned char tag;
    Py_ssize_t at = *off;

    if (depth > MAX_DEPTH || at >= size)
        return NULL;
    tag = p[at++];
    if (tag == 'I') {
        int fits, i;
        unsigned long long uv = 0;
        if (at + 16 > size)
            return NULL;
        /* only 64-bit-representable ints decode natively; wider ones
           (valid up to 128 bits) take the pure path */
        if (p[at] == 0x00) {
            fits = 1;
            for (i = 1; i < 8; i++)
                if (p[at + i] != 0x00)
                    fits = 0;
            if (p[at + 8] & 0x80)
                fits = 0;
        } else if (p[at] == 0xff) {
            fits = 1;
            for (i = 1; i < 8; i++)
                if (p[at + i] != 0xff)
                    fits = 0;
            if (!(p[at + 8] & 0x80))
                fits = 0;
        } else {
            fits = 0;
        }
        if (!fits)
            return NULL;
        for (i = 0; i < 8; i++)
            uv = (uv << 8) | p[at + 8 + i];
        *off = at + 16;
        return PyLong_FromLongLong((long long)uv);
    }
    if (tag == 'B' || tag == 'S') {
        unsigned long long n = 0;
        int i;
        Py_ssize_t start;
        if (at + 8 > size)
            return NULL;
        for (i = 0; i < 8; i++)
            n = (n << 8) | p[at + i];
        at += 8;
        if (n > (unsigned long long)(size - at))
            return NULL;
        start = at;
        *off = at + (Py_ssize_t)n;
        if (tag == 'B')
            return PyBytes_FromStringAndSize((const char *)p + start,
                                             (Py_ssize_t)n);
        {
            PyObject *s = PyUnicode_DecodeUTF8((const char *)p + start,
                                               (Py_ssize_t)n, NULL);
            if (!s)
                PyErr_Clear(); /* malformed utf-8: pure path raises */
            return s;
        }
    }
    if (tag == 'L') {
        unsigned long long n = 0;
        unsigned long long i;
        int j;
        PyObject *list;
        if (at + 8 > size)
            return NULL;
        for (j = 0; j < 8; j++)
            n = (n << 8) | p[at + j];
        at += 8;
        if (n > (unsigned long long)(size - at))
            return NULL; /* each item takes >= 1 byte */
        list = PyList_New((Py_ssize_t)n);
        if (!list)
            return NULL;
        *off = at;
        for (i = 0; i < n; i++) {
            PyObject *item = dec_value(p, size, off, depth + 1);
            if (!item) {
                Py_DECREF(list);
                return NULL;
            }
            PyList_SET_ITEM(list, (Py_ssize_t)i, item);
        }
        return list;
    }
    if (tag == 'D') {
        unsigned long long n = 0;
        unsigned long long i;
        int j;
        PyObject *dict;
        if (at + 8 > size)
            return NULL;
        for (j = 0; j < 8; j++)
            n = (n << 8) | p[at + j];
        at += 8;
        if (n > (unsigned long long)(size - at) / 2)
            return NULL; /* each pair takes >= 2 bytes */
        dict = PyDict_New();
        if (!dict)
            return NULL;
        *off = at;
        for (i = 0; i < n; i++) {
            PyObject *key = dec_value(p, size, off, depth + 1);
            PyObject *value;
            if (!key) {
                Py_DECREF(dict);
                return NULL;
            }
            value = dec_value(p, size, off, depth + 1);
            if (!value) {
                Py_DECREF(key);
                Py_DECREF(dict);
                return NULL;
            }
            if (PyDict_SetItem(dict, key, value)) {
                PyErr_Clear(); /* unhashable key: pure path raises */
                Py_DECREF(key);
                Py_DECREF(value);
                Py_DECREF(dict);
                return NULL;
            }
            Py_DECREF(key);
            Py_DECREF(value);
        }
        return dict;
    }
    if (tag == 'N') {
        *off = at;
        Py_RETURN_NONE;
    }
    if (tag == 'T') {
        *off = at;
        Py_RETURN_TRUE;
    }
    if (tag == 'F') {
        *off = at;
        Py_RETURN_FALSE;
    }
    return NULL; /* unknown tag */
}

static PyObject *serde_decode(PyObject *self, PyObject *arg) {
    Py_buffer view;
    Py_ssize_t off = 0;
    PyObject *value;
    (void)self;
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE)) {
        PyErr_Clear();
        return call_fallback(dec_fallback_cb, arg); /* not bytes-like */
    }
    value = dec_value((const unsigned char *)view.buf, view.len, &off, 0);
    if (!value || off != view.len) {
        PyBuffer_Release(&view);
        Py_XDECREF(value);
        if (PyErr_Occurred())
            return NULL; /* genuine failure (memory) */
        /* malformed, trailing bytes or a big int: the pure path */
        return call_fallback(dec_fallback_cb, arg);
    }
    PyBuffer_Release(&view);
    return value;
}

static PyObject *serde_set_fallback(PyObject *self, PyObject *args) {
    PyObject *enc, *dec;
    (void)self;
    if (!PyArg_ParseTuple(args, "OO", &enc, &dec))
        return NULL;
    Py_INCREF(enc);
    Py_INCREF(dec);
    Py_XSETREF(enc_fallback_cb, enc);
    Py_XSETREF(dec_fallback_cb, dec);
    Py_RETURN_NONE;
}

static PyMethodDef serde_methods[] = {
    {"encode", serde_encode, METH_O,
     "Canonical bytes of the value (declined values go to the fallback)."},
    {"decode", serde_decode, METH_O,
     "Value decoded from canonical bytes (declined blobs go to the "
     "fallback)."},
    {"set_fallback", serde_set_fallback, METH_VARARGS,
     "Register (encode_cb, decode_cb) pure-Python fallbacks."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef serde_module = {
    PyModuleDef_HEAD_INIT, "_lcm_serde", NULL, -1, serde_methods,
    NULL, NULL, NULL, NULL};

PyMODINIT_FUNC PyInit__lcm_serde(void) {
    return PyModule_Create(&serde_module);
}
