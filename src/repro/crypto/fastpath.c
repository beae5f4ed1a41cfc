/* The C tier of repro.crypto.fastpath: SHA-256 (SHA-NI or portable
   compression) under the CTR keystream, a 16-lane AVX-512F keystream
   kernel, the keystream cache, whole-box and whole-batch AEAD seal/open,
   the hash-chain step, the INVOKE/REPLY codecs of Alg. 1 and Alg. 2 and
   the Montgomery exponentiation behind the DH channel.  It is a CPython
   extension module (the method table is at the end of this file):
   repro._cbuild compiles it and repro.crypto.fastpath loads it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* A byte-string argument of an entry point: a bytes object read in
   place, or any other object through the buffer protocol.  view.obj
   holds what release_args must let go of (NULL: nothing). */
typedef struct {
    const unsigned char *p;
    size_t n;
    Py_buffer view;
} arg_bytes;

typedef struct {
    uint32_t state[8];
    uint64_t nbytes;
    uint8_t buf[64];
    size_t buflen;
} sha_ctx;

static const uint32_t K[64] = {
    0x428a2f98,0x71374491,0xb5c0fbcf,0xe9b5dba5,0x3956c25b,0x59f111f1,
    0x923f82a4,0xab1c5ed5,0xd807aa98,0x12835b01,0x243185be,0x550c7dc3,
    0x72be5d74,0x80deb1fe,0x9bdc06a7,0xc19bf174,0xe49b69c1,0xefbe4786,
    0x0fc19dc6,0x240ca1cc,0x2de92c6f,0x4a7484aa,0x5cb0a9dc,0x76f988da,
    0x983e5152,0xa831c66d,0xb00327c8,0xbf597fc7,0xc6e00bf3,0xd5a79147,
    0x06ca6351,0x14292967,0x27b70a85,0x2e1b2138,0x4d2c6dfc,0x53380d13,
    0x650a7354,0x766a0abb,0x81c2c92e,0x92722c85,0xa2bfe8a1,0xa81a664b,
    0xc24b8b70,0xc76c51a3,0xd192e819,0xd6990624,0xf40e3585,0x106aa070,
    0x19a4c116,0x1e376c08,0x2748774c,0x34b0bcb5,0x391c0cb3,0x4ed8aa4a,
    0x5b9cca4f,0x682e6ff3,0x748f82ee,0x78a5636f,0x84c87814,0x8cc70208,
    0x90befffa,0xa4506ceb,0xbef9a3f7,0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static uint32_t load_be32(const uint8_t *p)
{
    return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

/* The 64-word message schedule of one 64-byte block. */
static void sha_schedule(uint32_t *w, const uint8_t *p)
{
    int i;
    for (i = 0; i < 16; i++)
        w[i] = load_be32(p + 4 * i);
    for (i = 16; i < 64; i++) {
        uint32_t s0 = ROTR(w[i - 15], 7) ^ ROTR(w[i - 15], 18) ^ (w[i - 15] >> 3);
        uint32_t s1 = ROTR(w[i - 2], 17) ^ ROTR(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
}

static void sha_compress_portable(uint32_t *s, const uint8_t *p)
{
    uint32_t w[64];
    uint32_t a, b, c, d, e, f, g, h;
    int i;
    sha_schedule(w, p);
    a = s[0]; b = s[1]; c = s[2]; d = s[3];
    e = s[4]; f = s[5]; g = s[6]; h = s[7];
    for (i = 0; i < 64; i++) {
        uint32_t S1 = ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25);
        uint32_t ch = (e & f) ^ ((~e) & g);
        uint32_t t1 = h + S1 + ch + K[i] + w[i];
        uint32_t S0 = ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22);
        uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        uint32_t t2 = S0 + maj;
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    s[0] += a; s[1] += b; s[2] += c; s[3] += d;
    s[4] += e; s[5] += f; s[6] += g; s[7] += h;
}

/* SHA-NI path: the hot machines hashlib (OpenSSL) runs on execute one
   round quartet per instruction; matching it is what makes this backend
   faster than the stdlib per-block loop rather than merely equal. */
#if defined(__x86_64__) && defined(__GNUC__)
#define LCM_HAVE_SHA_NI 1
#define LCM_HAVE_AVX512 1
#include <immintrin.h>

__attribute__((target("sha,sse4.1,ssse3")))
static void sha_compress_ni(uint32_t *s, const uint8_t *p)
{
    __m128i state0, state1, abef_save, cdgh_save, tmp;
    __m128i msgs[4];
    const __m128i mask =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    int i;

    tmp    = _mm_loadu_si128((const __m128i *)&s[0]);   /* DCBA */
    state1 = _mm_loadu_si128((const __m128i *)&s[4]);   /* HGFE */
    tmp    = _mm_shuffle_epi32(tmp, 0xB1);              /* CDAB */
    state1 = _mm_shuffle_epi32(state1, 0x1B);           /* EFGH */
    state0 = _mm_alignr_epi8(tmp, state1, 8);           /* ABEF */
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);        /* CDGH */
    abef_save = state0;
    cdgh_save = state1;

    for (i = 0; i < 4; i++)
        msgs[i] = _mm_shuffle_epi8(
            _mm_loadu_si128((const __m128i *)(p + 16 * i)), mask);

    for (i = 0; i < 16; i++) {
        __m128i kv = _mm_loadu_si128((const __m128i *)&K[4 * i]);
        __m128i msg = _mm_add_epi32(msgs[i & 3], kv);
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        if (i >= 3 && i < 15) {
            /* schedule message quad i+1 into the slot of quad i-3 */
            __m128i t = _mm_alignr_epi8(msgs[i & 3], msgs[(i - 1) & 3], 4);
            __m128i nxt =
                _mm_sha256msg1_epu32(msgs[(i - 3) & 3], msgs[(i - 2) & 3]);
            nxt = _mm_add_epi32(nxt, t);
            msgs[(i - 3) & 3] = _mm_sha256msg2_epu32(nxt, msgs[i & 3]);
        }
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    tmp    = _mm_shuffle_epi32(state0, 0x1B);           /* FEBA */
    state1 = _mm_shuffle_epi32(state1, 0xB1);           /* DCHG */
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);        /* DCBA */
    state1 = _mm_alignr_epi8(state1, tmp, 8);           /* HGFE */
    _mm_storeu_si128((__m128i *)&s[0], state0);
    _mm_storeu_si128((__m128i *)&s[4], state1);
}
#endif

/* chosen at load time by lcm_pick_compress, below the keystream kernels */
static void (*sha_compress)(uint32_t *, const uint8_t *) = 0;

static void sha_init(sha_ctx *c)
{
    c->state[0] = 0x6a09e667; c->state[1] = 0xbb67ae85;
    c->state[2] = 0x3c6ef372; c->state[3] = 0xa54ff53a;
    c->state[4] = 0x510e527f; c->state[5] = 0x9b05688c;
    c->state[6] = 0x1f83d9ab; c->state[7] = 0x5be0cd19;
    c->nbytes = 0;
    c->buflen = 0;
}

static void sha_update(sha_ctx *c, const uint8_t *d, size_t n)
{
    c->nbytes += n;
    if (c->buflen) {
        size_t take = 64 - c->buflen;
        if (take > n) take = n;
        memcpy(c->buf + c->buflen, d, take);
        c->buflen += take;
        d += take;
        n -= take;
        if (c->buflen == 64) {
            sha_compress(c->state, c->buf);
            c->buflen = 0;
        }
    }
    while (n >= 64) {
        sha_compress(c->state, d);
        d += 64;
        n -= 64;
    }
    if (n) {
        memcpy(c->buf, d, n);
        c->buflen = n;
    }
}

static void sha_final(sha_ctx *c, uint8_t *out)
{
    uint64_t bits = c->nbytes * 8;
    size_t i;
    uint8_t pad = 0x80;
    sha_update(c, &pad, 1);
    {
        static const uint8_t zeros[64] = {0};
        size_t fill = (c->buflen <= 56) ? 56 - c->buflen : 120 - c->buflen;
        /* sha_update counts these bytes into nbytes, but `bits` was
           latched before padding, so the length word stays correct */
        sha_update(c, zeros, fill);
    }
    {
        uint8_t len[8];
        for (i = 0; i < 8; i++)
            len[i] = (uint8_t)(bits >> (56 - 8 * i));
        sha_update(c, len, 8);
    }
    for (i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(c->state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(c->state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(c->state[i] >> 8);
        out[4 * i + 3] = (uint8_t)(c->state[i]);
    }
}

static void store_be32x8(const uint32_t *state, uint8_t *out)
{
    int i;
    for (i = 0; i < 8; i++) {
        out[4 * i] = (uint8_t)(state[i] >> 24);
        out[4 * i + 1] = (uint8_t)(state[i] >> 16);
        out[4 * i + 2] = (uint8_t)(state[i] >> 8);
        out[4 * i + 3] = (uint8_t)(state[i]);
    }
}

static const uint32_t SHA_IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19
};

static uint64_t load_be64(const unsigned char *p)
{
    uint64_t v = 0;
    int b;
    for (b = 0; b < 8; b++)
        v = (v << 8) | p[b];
    return v;
}

static void put_be64(unsigned char *p, uint64_t v)
{
    int b;
    for (b = 0; b < 8; b++)
        p[b] = (uint8_t)(v >> (56 - 8 * b));
}

/* ---- SHA-256-CTR keystream ------------------------------------------ */

/* Keystream block i of a box is SHA-256(b"lcm-ctr" || enc_key || nonce ||
   i_8be): a 59-byte message, so two compression blocks.  Block 1 holds
   the 51-byte prefix, the counter and the 0x80 pad byte; block 2 is the
   same padding block (zeros, then the bit length 472) for every key.

   Every keystream in this module comes out of ctr_fill, which runs one
   of two kernels: the scalar one (two sha_compress calls per block) or,
   where the CPU has AVX-512F and the stream is at least CTR_X16_MIN
   blocks long, a 16-lane one that computes 16 counters' blocks at once.
   In a tight loop a 16-lane pass beats the scalar loop from 5 blocks
   on, but boxes under 12 blocks are what the small-value workloads
   send one at a time between stretches of Python, and there the
   sporadic 512-bit passes measured slower end to end (txn_mix lost 8
   of 8 interleaved pairs at a minimum of 6), so they stay scalar.
   The lane kernel shares two pieces of work across all counters of a
   box: rounds 0-11 of block 1 read only the prefix, so they run once
   (scalar) and their state is broadcast to every lane; block 2's
   message schedule is the same for every key, so K[t] + W[t] is one
   table, filled when the module loads. */
#define CTR_PREFIX_LEN 51
#define CTR_X16_MIN 12

typedef struct {
    uint8_t b1[64];      /* prefix || counter || 0x80 || zeros */
    /* lane-kernel seed, filled on first use by ctr_seed_lanes */
    int have_lanes;
    uint32_t w[12];      /* block-1 words 0-11 (prefix bytes only) */
    uint32_t w12;        /* word 12 without its counter byte */
    uint32_t mid[8];     /* state after rounds 0-11 of block 1 */
} ctr_seed;

static const uint8_t CTR_PAD[64] = {
    [62] = (59 * 8) >> 8, [63] = (59 * 8) & 0xFF
};

static uint32_t ctr_pad_kw[64];  /* K[t] + W[t] of CTR_PAD */

static void ctr_seed_init(ctr_seed *s, const uint8_t *label7,
                          const uint8_t *enc_key, const uint8_t *nonce)
{
    memcpy(s->b1, label7, 7);
    memcpy(s->b1 + 7, enc_key, 32);
    memcpy(s->b1 + 39, nonce, 12);
    s->b1[59] = 0x80;
    memset(s->b1 + 60, 0, 4);
    s->have_lanes = 0;
}

static void ctr_seed_lanes(ctr_seed *s)
{
    uint32_t a = SHA_IV[0], b = SHA_IV[1], c = SHA_IV[2], d = SHA_IV[3];
    uint32_t e = SHA_IV[4], f = SHA_IV[5], g = SHA_IV[6], h = SHA_IV[7];
    int i;
    for (i = 0; i < 12; i++) {
        uint32_t t1, t2;
        s->w[i] = load_be32(s->b1 + 4 * i);
        t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
           + ((e & f) ^ (~e & g)) + K[i] + s->w[i];
        t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
           + ((a & b) ^ (a & c) ^ (b & c));
        h = g; g = f; f = e; e = d + t1;
        d = c; c = b; b = a; a = t1 + t2;
    }
    s->mid[0] = a; s->mid[1] = b; s->mid[2] = c; s->mid[3] = d;
    s->mid[4] = e; s->mid[5] = f; s->mid[6] = g; s->mid[7] = h;
    s->w12 = load_be32(s->b1 + 48) & 0xFFFFFF00u;
    s->have_lanes = 1;
}

static void ctr_pad_schedule(void)
{
    uint32_t w[64];
    int i;
    sha_schedule(w, CTR_PAD);
    for (i = 0; i < 64; i++)
        ctr_pad_kw[i] = K[i] + w[i];
}

#ifdef LCM_HAVE_AVX512
#define X16_ADD(x, y) _mm512_add_epi32((x), (y))
#define X16_XOR3(x, y, z) _mm512_ternarylogic_epi32((x), (y), (z), 0x96)
#define X16_ROR3(x, p, q, r) X16_XOR3(_mm512_ror_epi32((x), (p)), \
    _mm512_ror_epi32((x), (q)), _mm512_ror_epi32((x), (r)))
/* one SHA-256 round on 16 lanes; 0xCA is Ch(e, f, g), 0xE8 Maj(a, b, c) */
#define X16_ROUND(a, b, c, d, e, f, g, h, kw) do {                          \
        __m512i t1_ = X16_ADD(X16_ADD(h, kw), X16_ADD(X16_ROR3(e, 6, 11, 25),  \
            _mm512_ternarylogic_epi32(e, f, g, 0xCA)));                        \
        d = X16_ADD(d, t1_);                                                   \
        h = X16_ADD(t1_, X16_ADD(X16_ROR3(a, 2, 13, 22),                       \
            _mm512_ternarylogic_epi32(a, b, c, 0xE8)));                        \
    } while (0)
/* rounds t..t+7 with the working variables renamed instead of moved */
#define X16_ROUNDS8(kw, t) do {                                             \
        X16_ROUND(a, b, c, d, e, f, g, h, kw((t)));                        \
        X16_ROUND(h, a, b, c, d, e, f, g, kw((t) + 1));                    \
        X16_ROUND(g, h, a, b, c, d, e, f, kw((t) + 2));                    \
        X16_ROUND(f, g, h, a, b, c, d, e, kw((t) + 3));                    \
        X16_ROUND(e, f, g, h, a, b, c, d, kw((t) + 4));                    \
        X16_ROUND(d, e, f, g, h, a, b, c, kw((t) + 5));                    \
        X16_ROUND(c, d, e, f, g, h, a, b, kw((t) + 6));                    \
        X16_ROUND(b, c, d, e, f, g, h, a, kw((t) + 7));                    \
    } while (0)
#define X16_KW1(t) X16_ADD(_mm512_set1_epi32((int)K[t]), w[t])
#define X16_KW2(t) _mm512_set1_epi32((int)ctr_pad_kw[t])

/* Keystream blocks first .. first+15 of one box into out (512 bytes). */
__attribute__((target("avx512f")))
static void ctr_x16(const ctr_seed *s, uint64_t first, uint8_t *out)
{
    __m512i w[64];
    __m512i a, b, c, d, e, f, g, h;
    __m512i a0, b0, c0, d0, e0, f0, g0, h0;
    uint32_t lanes[3][16];
    uint32_t words[8][16];
    int t, i, j;

    /* words 12-14 carry the counter, one per lane; word 15 is zero */
    for (i = 0; i < 16; i++) {
        uint64_t counter = first + (uint64_t)i;
        lanes[0][i] = s->w12 | (uint32_t)(counter >> 56);
        lanes[1][i] = (uint32_t)(counter >> 24);
        lanes[2][i] = ((uint32_t)counter << 8) | 0x80;
    }
    for (t = 0; t < 12; t++)
        w[t] = _mm512_set1_epi32((int)s->w[t]);
    w[12] = _mm512_loadu_si512(lanes[0]);
    w[13] = _mm512_loadu_si512(lanes[1]);
    w[14] = _mm512_loadu_si512(lanes[2]);
    w[15] = _mm512_setzero_si512();
    for (t = 16; t < 64; t++)
        w[t] = X16_ADD(X16_ADD(w[t - 16], w[t - 7]), X16_ADD(
            X16_XOR3(_mm512_ror_epi32(w[t - 15], 7),
                     _mm512_ror_epi32(w[t - 15], 18),
                     _mm512_srli_epi32(w[t - 15], 3)),
            X16_XOR3(_mm512_ror_epi32(w[t - 2], 17),
                     _mm512_ror_epi32(w[t - 2], 19),
                     _mm512_srli_epi32(w[t - 2], 10))));

    /* block 1 from the broadcast mid-state: round 12 sits at position 4
       of the 8-round renaming, so the state enters rotated by four */
    e = _mm512_set1_epi32((int)s->mid[0]);
    f = _mm512_set1_epi32((int)s->mid[1]);
    g = _mm512_set1_epi32((int)s->mid[2]);
    h = _mm512_set1_epi32((int)s->mid[3]);
    a = _mm512_set1_epi32((int)s->mid[4]);
    b = _mm512_set1_epi32((int)s->mid[5]);
    c = _mm512_set1_epi32((int)s->mid[6]);
    d = _mm512_set1_epi32((int)s->mid[7]);
    X16_ROUND(e, f, g, h, a, b, c, d, X16_KW1(12));
    X16_ROUND(d, e, f, g, h, a, b, c, X16_KW1(13));
    X16_ROUND(c, d, e, f, g, h, a, b, X16_KW1(14));
    X16_ROUND(b, c, d, e, f, g, h, a, X16_KW1(15));
    for (t = 16; t < 64; t += 8)
        X16_ROUNDS8(X16_KW1, t);
    a0 = a = X16_ADD(a, _mm512_set1_epi32((int)SHA_IV[0]));
    b0 = b = X16_ADD(b, _mm512_set1_epi32((int)SHA_IV[1]));
    c0 = c = X16_ADD(c, _mm512_set1_epi32((int)SHA_IV[2]));
    d0 = d = X16_ADD(d, _mm512_set1_epi32((int)SHA_IV[3]));
    e0 = e = X16_ADD(e, _mm512_set1_epi32((int)SHA_IV[4]));
    f0 = f = X16_ADD(f, _mm512_set1_epi32((int)SHA_IV[5]));
    g0 = g = X16_ADD(g, _mm512_set1_epi32((int)SHA_IV[6]));
    h0 = h = X16_ADD(h, _mm512_set1_epi32((int)SHA_IV[7]));

    /* block 2: the padding block, K + W read from ctr_pad_kw */
    for (t = 0; t < 64; t += 8)
        X16_ROUNDS8(X16_KW2, t);
    _mm512_storeu_si512(words[0], X16_ADD(a, a0));
    _mm512_storeu_si512(words[1], X16_ADD(b, b0));
    _mm512_storeu_si512(words[2], X16_ADD(c, c0));
    _mm512_storeu_si512(words[3], X16_ADD(d, d0));
    _mm512_storeu_si512(words[4], X16_ADD(e, e0));
    _mm512_storeu_si512(words[5], X16_ADD(f, f0));
    _mm512_storeu_si512(words[6], X16_ADD(g, g0));
    _mm512_storeu_si512(words[7], X16_ADD(h, h0));
    /* lane i's eight words are block i, stored big-endian (whole-word
       stores: storing byte by byte costs as much as the rounds) */
    for (i = 0; i < 16; i++)
        for (j = 0; j < 8; j++) {
            uint32_t v = __builtin_bswap32(words[j][i]);
            memcpy(out + 32 * i + 4 * j, &v, 4);
        }
}
#endif

static void (*ctr_x16_kernel)(const ctr_seed *, uint64_t, uint8_t *) = 0;

/* lcm_modexp (the DH kernel, at the end of this file) needs unsigned
   __int128; without it it reports "fall back" and the name says so. */
#ifdef __SIZEOF_INT128__
#define LCM_MONT_KERNEL "+mont64"
#else
#define LCM_MONT_KERNEL ""
#endif
static const char *lcm_kernel_names = "portable" LCM_MONT_KERNEL;

__attribute__((constructor))
static void lcm_pick_compress(void)
{
    sha_compress = sha_compress_portable;
#ifdef LCM_HAVE_SHA_NI
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
        sha_compress = sha_compress_ni;
        lcm_kernel_names = "sha-ni" LCM_MONT_KERNEL;
    }
#endif
#ifdef LCM_HAVE_AVX512
    if (__builtin_cpu_supports("avx512f")) {
        ctr_pad_schedule();
        ctr_x16_kernel = ctr_x16;
        lcm_kernel_names = sha_compress == sha_compress_ni
            ? "sha-ni+avx512x16" LCM_MONT_KERNEL
            : "portable+avx512x16" LCM_MONT_KERNEL;
    }
#endif
}

/* Keystream blocks first .. first+nblocks-1 of the seeded box into out. */
static void ctr_fill(ctr_seed *s, uint64_t first, size_t nblocks,
                     uint8_t *out)
{
    if (ctr_x16_kernel && nblocks >= CTR_X16_MIN) {
        if (!s->have_lanes)
            ctr_seed_lanes(s);
        for (; nblocks >= 16; nblocks -= 16, first += 16, out += 512)
            ctr_x16_kernel(s, first, out);
        if (nblocks >= CTR_X16_MIN) {
            uint8_t tail[512];
            ctr_x16_kernel(s, first, tail);
            memcpy(out, tail, 32 * nblocks);
            return;
        }
    }
    for (; nblocks; nblocks--, first++, out += 32) {
        uint32_t state[8];
        put_be64(s->b1 + CTR_PREFIX_LEN, first);
        memcpy(state, SHA_IV, sizeof state);
        sha_compress(state, s->b1);
        sha_compress(state, CTR_PAD);
        store_be32x8(state, out);
    }
}

/* The block loop behind the keystream entry point: a CTR_PREFIX_LEN-byte
   prefix (every AEAD keystream) goes through ctr_fill; any other length,
   which only the parity tests ask for, hashes prefix || counter
   generically. */
static void lcm_ctr_keystream(const unsigned char *prefix, size_t prefix_len,
                              unsigned long long first_counter,
                              unsigned long long nblocks, unsigned char *out)
{
    sha_ctx seeded, block;
    uint8_t counter[8];
    unsigned long long i;

    if (prefix_len == CTR_PREFIX_LEN) {
        ctr_seed seed;
        ctr_seed_init(&seed, prefix, prefix + 7, prefix + 39);
        ctr_fill(&seed, first_counter, (size_t)nblocks, out);
        return;
    }
    sha_init(&seeded);
    sha_update(&seeded, prefix, prefix_len);
    for (i = 0; i < nblocks; i++) {
        put_be64(counter, first_counter + i);
        block = seeded;
        sha_update(&block, counter, 8);
        sha_final(&block, out + 32 * i);
    }
}

/* hash(len8(prev) || prev || len8(op) || op || seq8 || cid8) — the LCM
   hash-chain step with its injective field framing built C-side, so one
   crossing replaces four int.to_bytes and a five-way concat. */
static void lcm_chain_extend(const unsigned char *prev, size_t prev_len,
                             const unsigned char *op, size_t op_len,
                             unsigned long long sequence,
                             unsigned long long client_id,
                             unsigned char *out)
{
    sha_ctx c;
    uint8_t word[8];
    int b;
    sha_init(&c);
    for (b = 0; b < 8; b++)
        word[b] = (uint8_t)((uint64_t)prev_len >> (56 - 8 * b));
    sha_update(&c, word, 8);
    sha_update(&c, prev, prev_len);
    for (b = 0; b < 8; b++)
        word[b] = (uint8_t)((uint64_t)op_len >> (56 - 8 * b));
    sha_update(&c, word, 8);
    sha_update(&c, op, op_len);
    for (b = 0; b < 8; b++)
        word[b] = (uint8_t)(sequence >> (56 - 8 * b));
    sha_update(&c, word, 8);
    for (b = 0; b < 8; b++)
        word[b] = (uint8_t)(client_id >> (56 - 8 * b));
    sha_update(&c, word, 8);
    sha_final(&c, out);
}

/* ---- fused AEAD box primitives -------------------------------------- */

/* Direct-mapped in-process keystream cache: in this simulation every box
   is sealed by one party and opened by another inside the same
   interpreter, so the opener's keystream is a cache hit.  Reuse is safe
   because a slot only answers for the exact (enc_key, nonce) pair that
   filled it, and the stream for a pair is deterministic.

   Streams up to KS_SHORT_STREAM bytes, the size of every box that
   carries small values, live in a table of KS_SLOTS slots.  Longer ones,
   up to KS_MAX_STREAM, live in a second table of KS_LONG_SLOTS slots,
   allocated the first time a long stream is cached: KS_MAX_STREAM covers
   an INVOKE or REPLY carrying a 4 KiB value plus its framing (about
   4.25 KB), so opening one is a hit like opening a small box, while a
   process that only sends small boxes never pays for the long slots.  A
   closed loop has at most one such box in flight per client, so a
   smaller table answers nearly as often.  Section seals (lcm_stream_box)
   bypass the cache: only a restore reads their keystream back.  Longer
   payloads, and an allocation failure, stream through ctr_fill 16
   blocks at a time instead.

   The cache is thread-local, so that no thread ever reads a slot another
   one is filling: lazily allocated per-thread tables (a __thread array
   could exhaust the static TLS block when the module is dlopened; a
   __thread pointer cannot). */
#define KS_SLOTS 512
#define KS_SHORT_STREAM 1024
#define KS_LONG_SLOTS 128
#define KS_MAX_STREAM 4352

typedef struct {
    uint8_t key[32];
    uint8_t nonce[12];
    uint32_t nbytes;     /* keystream bytes held; 0 while empty */
} ks_slot;               /* followed by the slot's stream bytes */

static __thread uint8_t *ks_tables_tls[2];

/* At least len keystream bytes for (enc_key, nonce) from its cache slot,
   filling the slot on a miss; NULL when no slot can hold them. */
static const uint8_t *ks_stream(const unsigned char *enc_key,
                                const unsigned char *nonce, size_t len)
{
    int wide = len > KS_SHORT_STREAM;
    size_t nslots = wide ? KS_LONG_SLOTS : KS_SLOTS;
    size_t stride = sizeof(ks_slot) + (wide ? KS_MAX_STREAM : KS_SHORT_STREAM);
    uint8_t *table = ks_tables_tls[wide];
    size_t nblocks = (len + 31) / 32;
    uint32_t index;
    ks_slot *slot;
    uint8_t *stream;
    ctr_seed seed;

    if (len > KS_MAX_STREAM)
        return 0;
    if (!table) {
        table = (uint8_t *)calloc(nslots, stride);
        if (!table)
            return 0;
        ks_tables_tls[wide] = table;
    }
    memcpy(&index, nonce, 4);
    slot = (ks_slot *)(table + stride * (index % nslots));
    stream = (uint8_t *)(slot + 1);
    if (slot->nbytes >= len && !memcmp(slot->nonce, nonce, 12)
        && !memcmp(slot->key, enc_key, 32))
        return stream;
    ctr_seed_init(&seed, (const uint8_t *)"lcm-ctr", enc_key, nonce);
    ctr_fill(&seed, 0, nblocks, stream);
    memcpy(slot->key, enc_key, 32);
    memcpy(slot->nonce, nonce, 12);
    slot->nbytes = (uint32_t)(32 * nblocks);
    return stream;
}

/* XOR `in` with the SHA-256-CTR keystream for (enc_key, nonce) into
   `out`, generated 16 blocks at a time into a stack buffer (uncached). */
static void ctr_xor_stream(const unsigned char *enc_key,
                           const unsigned char *nonce,
                           const unsigned char *in, size_t len,
                           unsigned char *out)
{
    uint8_t chunk[32 * 16];
    ctr_seed seed;
    uint64_t first = 0;
    size_t k;

    ctr_seed_init(&seed, (const uint8_t *)"lcm-ctr", enc_key, nonce);
    while (len) {
        size_t take = len < sizeof chunk ? len : sizeof chunk;
        ctr_fill(&seed, first, (take + 31) / 32, chunk);
        for (k = 0; k < take; k++)
            out[k] = in[k] ^ chunk[k];
        in += take;
        out += take;
        len -= take;
        first += 16;
    }
}

/* XOR `in` with the SHA-256-CTR keystream for (enc_key, nonce) into
   `out`, going through the keystream cache for in-process pairs. */
static void ctr_xor(const unsigned char *enc_key, const unsigned char *nonce,
                    const unsigned char *in, size_t len, unsigned char *out)
{
    const uint8_t *stream;
    size_t k;

    if (!len)
        return;
    stream = ks_stream(enc_key, nonce, len);
    if (!stream) {
        ctr_xor_stream(enc_key, nonce, in, len, out);
        return;
    }
    for (k = 0; k < len; k++)
        out[k] = in[k] ^ stream[k];
}

static void hmac_pad_states(const unsigned char *key, size_t keylen,
                            uint32_t *ipad_state, uint32_t *opad_state)
{
    uint8_t pad[64];
    size_t i;
    memcpy(ipad_state, SHA_IV, 32);
    for (i = 0; i < 64; i++)
        pad[i] = (i < keylen ? key[i] : 0) ^ 0x36;
    sha_compress(ipad_state, pad);
    memcpy(opad_state, SHA_IV, 32);
    for (i = 0; i < 64; i++)
        pad[i] = (i < keylen ? key[i] : 0) ^ 0x5c;
    sha_compress(opad_state, pad);
}

static void derive_tag16(const uint32_t *ipad_state, const uint32_t *opad_state,
                         const unsigned char *frame, size_t frame_len,
                         const unsigned char *seg, size_t seg_len,
                         unsigned char *out16)
{
    uint8_t inner[32], full[32];
    sha_ctx c;
    memcpy(c.state, ipad_state, 32);
    c.nbytes = 64;
    c.buflen = 0;
    sha_update(&c, frame, frame_len);
    sha_update(&c, seg, seg_len);
    sha_final(&c, inner);
    memcpy(c.state, opad_state, 32);
    c.nbytes = 64;
    c.buflen = 0;
    sha_update(&c, inner, 32);
    sha_final(&c, full);
    memcpy(out16, full, 16);
}

static int tag16_differs(const unsigned char *a, const unsigned char *b)
{
    unsigned char acc = 0;
    int i;
    for (i = 0; i < 16; i++)
        acc |= a[i] ^ b[i];
    return acc != 0;
}

/* out = nonce(12) || ciphertext(pt_len): confidentiality only, for the
   sections whose integrity the manifest tag provides.  Written straight
   through, not cached: only a restore reads a section back. */
static void lcm_stream_box(const unsigned char *enc_key,
                           const unsigned char *nonce,
                           const unsigned char *pt, size_t pt_len,
                           unsigned char *out)
{
    memcpy(out, nonce, 12);
    ctr_xor_stream(enc_key, nonce, pt, pt_len, out + 12);
}

/* out = nonce(12) || ciphertext(pt_len) || tag(16) */
static void lcm_seal_box(const unsigned char *enc_key,
                         const unsigned char *mac_key,
                         const unsigned char *nonce,
                         const unsigned char *frame, size_t frame_len,
                         const unsigned char *pt, size_t pt_len,
                         unsigned char *out)
{
    uint32_t ipad_state[8], opad_state[8];
    memcpy(out, nonce, 12);
    ctr_xor(enc_key, nonce, pt, pt_len, out + 12);
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    derive_tag16(ipad_state, opad_state, frame, frame_len,
                 out, 12 + pt_len, out + 12 + pt_len);
}

/* Returns 0 and writes box_len-28 plaintext bytes, or -1 on a bad MAC
   (nothing written). */
static int lcm_open_box(const unsigned char *enc_key,
                        const unsigned char *mac_key,
                        const unsigned char *frame, size_t frame_len,
                        const unsigned char *box, size_t box_len,
                        unsigned char *out_pt)
{
    uint32_t ipad_state[8], opad_state[8];
    unsigned char tag[16];
    if (box_len < 28)
        return -1;
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    derive_tag16(ipad_state, opad_state, frame, frame_len,
                 box, box_len - 16, tag);
    if (tag16_differs(tag, box + box_len - 16))
        return -1;
    ctr_xor(enc_key, box, box + 12, box_len - 28, out_pt);
    return 0;
}

/* ---- batched INVOKE/REPLY protocol codec ---------------------------- */

/* The canonical serde layout for the two protocol messages (pinned by
   the message-wire golden tests):

   INVOKE  prefix25 || i128(tc) || 'B' len8 hc || 'B' len8 op
           || 'I' i128(cid) || 'T'/'F'
   REPLY   prefix24 || i128(t) || 'B' len8 chain || 'B' len8 result
           || 'I' i128(q) || 'B' len8 prev_chain

   i128 is a 16-byte big-endian two's-complement integer; the prefixes
   (list header + verb string + leading 'I') are passed in from Python so
   this code never hard-codes serde framing bytes.  Any deviation from
   the canonical shape reports "fall back" and the generic Python codec
   takes over — nothing here extends what the wire accepts. */

/* i128 -> int64, rejecting values that need more than 64 bits. */
static int i128_to_i64(const unsigned char *p, long long *out)
{
    uint64_t hi = load_be64(p);
    uint64_t lo = load_be64(p + 8);
    if (hi == 0 && !(lo >> 63)) {
        *out = (long long)lo;
        return 0;
    }
    if (hi == 0xFFFFFFFFFFFFFFFFULL && (lo >> 63)) {
        *out = (long long)lo;
        return 0;
    }
    return -1;
}

static void i64_to_i128(long long value, unsigned char *out)
{
    memset(out, value < 0 ? 0xFF : 0x00, 8);
    put_be64(out + 8, (uint64_t)value);
}

static long long sorted_find(const long long *xs, size_t n, long long v)
{
    size_t lo = 0, hi = n;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (xs[mid] < v)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < n && xs[lo] == v)
        return (long long)lo;
    return -1;
}

/* Delete one occurrence of `value` and insert `fresh`, keeping the
   sorted acknowledged mirror sorted — the multiset result is identical
   to Python's del-at-bisect_left + insort. */
static void acks_replace(long long *acks, size_t n, long long value,
                         long long fresh)
{
    size_t lo = 0, hi = n;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (acks[mid] < value)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(acks + lo, acks + lo + 1, (n - lo - 1) * sizeof(long long));
    lo = 0;
    hi = n - 1;
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (acks[mid] <= fresh)
            lo = mid + 1;
        else
            hi = mid;
    }
    memmove(acks + lo + 1, acks + lo, (n - 1 - lo) * sizeof(long long));
    acks[lo] = fresh;
}

/* nonce_i = SHA-256(seed32 || counter_8be)[:12] — the per-context
   deterministic nonce sequence (40-byte message, one padded block). */
static void derive_nonce(const unsigned char *seed, uint64_t counter,
                         unsigned char *out12)
{
    uint8_t block[64];
    uint32_t state[8];
    uint8_t digest[32];
    uint64_t bits = 40 * 8;
    memset(block, 0, 64);
    memcpy(block, seed, 32);
    put_be64(block + 32, counter);
    block[40] = 0x80;
    put_be64(block + 56, bits);
    memcpy(state, SHA_IV, sizeof state);
    sha_compress(state, block);
    store_be32x8(state, digest);
    memcpy(out12, digest, 12);
}

/* Client-side fused INVOKE codec: canonical field encode + seal in one
   call.  `out` receives prefix_len+52+hc_len+op_len+28 box bytes. */
static int lcm_seal_invoke(const unsigned char *enc_key,
                           const unsigned char *mac_key,
                           const unsigned char *nonce,
                           const unsigned char *frame, size_t frame_len,
                           const unsigned char *prefix, size_t prefix_len,
                           long long tc,
                           const unsigned char *hc, size_t hc_len,
                           const unsigned char *op, size_t op_len,
                           long long cid, int retry,
                           unsigned char *out)
{
    size_t pt_len = 52 + prefix_len + hc_len + op_len;
    unsigned char *pt = (unsigned char *)malloc(pt_len);
    unsigned char *p = pt;
    uint32_t ipad_state[8], opad_state[8];
    if (!pt)
        return -1;
    memcpy(p, prefix, prefix_len);
    p += prefix_len;
    i64_to_i128(tc, p);
    p += 16;
    *p++ = 'B';
    put_be64(p, (uint64_t)hc_len);
    p += 8;
    memcpy(p, hc, hc_len);
    p += hc_len;
    *p++ = 'B';
    put_be64(p, (uint64_t)op_len);
    p += 8;
    memcpy(p, op, op_len);
    p += op_len;
    *p++ = 'I';
    i64_to_i128(cid, p);
    p += 16;
    *p++ = retry ? 'T' : 'F';
    memcpy(out, nonce, 12);
    ctr_xor(enc_key, nonce, pt, pt_len, out + 12);
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    derive_tag16(ipad_state, opad_state, frame, frame_len,
                 out, 12 + pt_len, out + 12 + pt_len);
    free(pt);
    return 0;
}

/* Client-side fused REPLY open: authenticate, decrypt and parse in one
   call.  Returns 0 with meta = [t, chain_off, chain_len, result_off,
   result_len, q, prev_off, prev_len]; -1 on authentication failure
   (nothing written); -2 when the box is authentic but not canonically
   shaped (out_pt holds the plaintext; the generic codec re-parses). */
static long long lcm_open_reply(const unsigned char *enc_key,
                                const unsigned char *mac_key,
                                const unsigned char *frame, size_t frame_len,
                                const unsigned char *prefix, size_t prefix_len,
                                const unsigned char *box, size_t box_len,
                                unsigned char *out_pt, long long *meta)
{
    uint32_t ipad_state[8], opad_state[8];
    unsigned char tag[16];
    size_t size, pos;
    uint64_t flen;
    long long t, q;

    if (box_len < 28)
        return -1;
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    derive_tag16(ipad_state, opad_state, frame, frame_len,
                 box, box_len - 16, tag);
    if (tag16_differs(tag, box + box_len - 16))
        return -1;
    size = box_len - 28;
    ctr_xor(enc_key, box, box + 12, size, out_pt);

    if (size < prefix_len + 16 + 9 + 9 + 17 + 9
        || memcmp(out_pt, prefix, prefix_len) != 0)
        return -2;
    if (i128_to_i64(out_pt + prefix_len, &t) != 0)
        return -2;
    pos = prefix_len + 16;
    if (out_pt[pos] != 'B')
        return -2;
    flen = load_be64(out_pt + pos + 1);
    pos += 9;
    if (flen > size - pos)
        return -2;
    meta[1] = (long long)pos;
    meta[2] = (long long)flen;
    pos += (size_t)flen;
    if (size - pos < 9 || out_pt[pos] != 'B')
        return -2;
    flen = load_be64(out_pt + pos + 1);
    pos += 9;
    if (flen > size - pos)
        return -2;
    meta[3] = (long long)pos;
    meta[4] = (long long)flen;
    pos += (size_t)flen;
    if (size - pos < 17 + 9 || out_pt[pos] != 'I')
        return -2;
    if (i128_to_i64(out_pt + pos + 1, &q) != 0)
        return -2;
    pos += 17;
    if (out_pt[pos] != 'B')
        return -2;
    flen = load_be64(out_pt + pos + 1);
    pos += 9;
    if (flen != size - pos)
        return -2;
    meta[6] = (long long)pos;
    meta[7] = (long long)flen;
    meta[0] = t;
    meta[5] = q;
    return 0;
}

/* The enclave's whole-batch INVOKE pass: authenticate and decrypt every
   box, parse every canonical INVOKE, then run the Alg. 1 verification
   loop (retry-resend, sequence, hash-chain) against the packed V-table
   *in place*, assigning global sequence numbers and extending the hash
   chain for accepted operations.

   meta holds 10 int64 per op:
     [0] status: 0 execute / 1 resend / -1 unknown client / -2 replay
         / -3 rollback / -4 fork  (phase 3 parks the retry flag here)
     [1] V slot (-1 when unknown)   [2] cid   [3] tc
     [4] op offset  [5] op len  [6] hc offset  [7] hc len
         (absolute offsets into out_pt)
     [8] assigned sequence (resend: the row's sequence)
     [9] majority-stable after this op (resend: at this position)

   Returns the count of ops processed — all n, or the index of the first
   violating op, whose meta row names the violation (earlier rows are
   already committed; the caller halts, exactly like the per-op path).
   Returns -1000-i for the first unauthentic box and -2000-i for the
   first non-canonical INVOKE, in both cases before any state is
   touched, so the caller can rerun the batch through the generic path.

   One deliberate divergence from the per-op path: V rows and the hash
   chain for *all* verified ops are committed before any operation is
   applied to the service state, so a functionality.apply that raises
   mid-batch leaves later rows already advanced (the per-op path would
   have stopped at the raiser).  The ecall aborts either way, before any
   reply or seal is produced, so nothing inconsistent is ever emitted. */
static long long lcm_invoke_batch_open(const unsigned char *enc_key,
                                       const unsigned char *mac_key,
                                       const unsigned char *frame,
                                       size_t frame_len,
                                       const unsigned char *prefix,
                                       size_t prefix_len,
                                       const arg_bytes *boxes, size_t n,
                                       unsigned char *out_pt,
                                       long long *meta,
                                       unsigned char *chains_out,
                                       const long long *row_ids, size_t nrows,
                                       long long *row_ack, long long *row_seq,
                                       unsigned char *row_chains,
                                       long long *acks,
                                       long long quorum,
                                       long long *sequence_io,
                                       unsigned char *chain_io)
{
    uint32_t ipad_state[8], opad_state[8];
    unsigned char tag[16];
    long long bad = -1;
    size_t i;

    /* authenticate every box before any plaintext exists; a too-short
       box wins over an earlier bad MAC, matching the AEAD batch-open
       error report (short scan first, then MAC scan) */
    for (i = 0; i < n; i++) {
        if (boxes[i].n < 28)
            return -1000 - (long long)i;
    }
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    for (i = 0; i < n; i++) {
        const unsigned char *box = boxes[i].p;
        size_t box_len = boxes[i].n;
        derive_tag16(ipad_state, opad_state, frame, frame_len,
                     box, box_len - 16, tag);
        if (tag16_differs(tag, box + box_len - 16) && bad < 0)
            bad = (long long)i;
    }
    if (bad >= 0)
        return -1000 - bad;

    {
        unsigned char *pt = out_pt;
        for (i = 0; i < n; i++) {
            ctr_xor(enc_key, boxes[i].p, boxes[i].p + 12, boxes[i].n - 28,
                    pt);
            pt += boxes[i].n - 28;
        }
    }

    /* parse every INVOKE before touching any state */
    {
        size_t pt_off = 0;
        for (i = 0; i < n; i++) {
            const unsigned char *pt = out_pt + pt_off;
            size_t size = boxes[i].n - 28;
            long long *m = meta + 10 * i;
            size_t pos;
            uint64_t hc_len, op_len;
            long long tc, cid;
            if (size < prefix_len + 52
                || memcmp(pt, prefix, prefix_len) != 0)
                return -2000 - (long long)i;
            if (i128_to_i64(pt + prefix_len, &tc) != 0 || tc < 0)
                return -2000 - (long long)i;
            pos = prefix_len + 16;
            if (pt[pos] != 'B')
                return -2000 - (long long)i;
            hc_len = load_be64(pt + pos + 1);
            pos += 9;
            if (hc_len > size - pos)
                return -2000 - (long long)i;
            m[6] = (long long)(pt_off + pos);
            m[7] = (long long)hc_len;
            pos += (size_t)hc_len;
            if (size - pos < 9 || pt[pos] != 'B')
                return -2000 - (long long)i;
            op_len = load_be64(pt + pos + 1);
            pos += 9;
            if (op_len > size - pos)
                return -2000 - (long long)i;
            m[4] = (long long)(pt_off + pos);
            m[5] = (long long)op_len;
            pos += (size_t)op_len;
            if (size - pos != 18 || pt[pos] != 'I')
                return -2000 - (long long)i;
            if (i128_to_i64(pt + pos + 1, &cid) != 0 || cid < 0)
                return -2000 - (long long)i;
            if (pt[pos + 17] == 'T')
                m[0] = 1;
            else if (pt[pos + 17] == 'F')
                m[0] = 0;
            else
                return -2000 - (long long)i;
            m[2] = cid;
            m[3] = tc;
            pt_off += size;
        }
    }

    /* Alg. 1 verification in arrival order against the live table */
    {
        long long sequence = sequence_io[0];
        for (i = 0; i < n; i++) {
            long long *m = meta + 10 * i;
            long long retry = m[0];
            long long cid = m[2], tc = m[3];
            long long slot = sorted_find(row_ids, nrows, cid);
            m[1] = slot;
            if (slot < 0) {
                m[0] = -1;
                sequence_io[0] = sequence;
                return (long long)i;
            }
            if (retry && row_ack[slot] == tc && row_seq[slot] > tc) {
                /* Sec. 4.6.1 retry: reproduce the recorded reply */
                m[0] = 1;
                m[8] = row_seq[slot];
                m[9] = acks[nrows - (size_t)quorum];
                memcpy(chains_out + 32 * i, row_chains + 32 * slot, 32);
                continue;
            }
            if (tc != row_seq[slot]) {
                m[0] = (tc < row_seq[slot]) ? -2 : -3;
                sequence_io[0] = sequence;
                return (long long)i;
            }
            if (m[7] != 32
                || memcmp(out_pt + m[6], row_chains + 32 * slot, 32) != 0) {
                m[0] = -4;
                sequence_io[0] = sequence;
                return (long long)i;
            }
            sequence += 1;
            lcm_chain_extend(chain_io, 32, out_pt + m[4], (size_t)m[5],
                             (unsigned long long)sequence,
                             (unsigned long long)cid,
                             chains_out + 32 * i);
            memcpy(chain_io, chains_out + 32 * i, 32);
            acks_replace(acks, nrows, row_ack[slot], tc);
            row_ack[slot] = tc;
            row_seq[slot] = sequence;
            memcpy(row_chains + 32 * slot, chains_out + 32 * i, 32);
            m[0] = 0;
            m[8] = sequence;
            m[9] = acks[nrows - (size_t)quorum];
        }
        sequence_io[0] = sequence;
        return (long long)n;
    }
}

/* The enclave's whole-batch REPLY pass: canonical field encode + seal
   for every reply in one call.  `meta`/`chains`/`pt_in` come from
   lcm_invoke_batch_open (hc echoes are read straight out of the decoded
   INVOKE plaintexts); `results` holds the serialized results in batch
   order; nonces are the deterministic per-context sequence.  Box i goes
   to out_boxes[i], prefix_len+120+result_len+hc_len bytes.

   Each executed operation's reply box is also the payload of that
   client's sealed V-row record, so the row pieces the sealed-blob
   assembler needs are built here while the box bytes are hot: per
   executed op, out_rows[i] receives the 61+box_len-byte blob piece

       enc_id('I'+i128 cid) || 'B'+len8(35+box_len) ||
       'L'+len8(2) || 'I'+i128(ack) || 'B'+len8(box_len) || box

   and out_manifests[i] the 58-byte manifest piece

       enc_id || 'B'+len8(32) || sha256(blob_piece[26:])

   — byte-for-byte what the Python row-seal builder produces.  A resend
   (meta status 1) reuses its stored row: out_rows[i] and
   out_manifests[i] are NULL.  Returns 0, or -1 on allocation failure. */
static int lcm_invoke_batch_reply(const unsigned char *enc_key,
                                  const unsigned char *mac_key,
                                  const unsigned char *frame,
                                  size_t frame_len,
                                  const unsigned char *prefix,
                                  size_t prefix_len,
                                  const long long *meta, size_t n,
                                  const unsigned char *chains,
                                  const unsigned char *pt_in,
                                  const arg_bytes *results,
                                  const unsigned char *nonce_seed,
                                  unsigned long long nonce_counter,
                                  unsigned char *const *out_boxes,
                                  unsigned char *const *out_rows,
                                  unsigned char *const *out_manifests)
{
    uint32_t ipad_state[8], opad_state[8];
    unsigned char *scratch;
    size_t scratch_len = 1;
    size_t i;

    for (i = 0; i < n; i++) {
        size_t pt_len = 92 + prefix_len + results[i].n
            + (size_t)meta[10 * i + 7];
        if (pt_len > scratch_len)
            scratch_len = pt_len;
    }
    scratch = (unsigned char *)malloc(scratch_len);
    if (!scratch)
        return -1;
    hmac_pad_states(mac_key, 32, ipad_state, opad_state);
    for (i = 0; i < n; i++) {
        const long long *m = meta + 10 * i;
        size_t rlen = results[i].n;
        size_t hc_len = (size_t)m[7];
        size_t pt_len = 92 + prefix_len + rlen + hc_len;
        unsigned char *p = scratch;
        unsigned char *box = out_boxes[i];
        unsigned char nonce[12];

        memcpy(p, prefix, prefix_len);
        p += prefix_len;
        i64_to_i128(m[8], p);
        p += 16;
        *p++ = 'B';
        put_be64(p, 32);
        p += 8;
        memcpy(p, chains + 32 * i, 32);
        p += 32;
        *p++ = 'B';
        put_be64(p, (uint64_t)rlen);
        p += 8;
        memcpy(p, results[i].p, rlen);
        p += rlen;
        *p++ = 'I';
        i64_to_i128(m[9], p);
        p += 16;
        *p++ = 'B';
        put_be64(p, (uint64_t)hc_len);
        p += 8;
        memcpy(p, pt_in + m[6], hc_len);

        derive_nonce(nonce_seed, nonce_counter + i, nonce);
        memcpy(box, nonce, 12);
        ctr_xor(enc_key, nonce, scratch, pt_len, box + 12);
        derive_tag16(ipad_state, opad_state, frame, frame_len,
                     box, 12 + pt_len, box + 12 + pt_len);
        if (out_rows[i]) {
            size_t box_len = 28 + pt_len;
            unsigned char *rp = out_rows[i];
            unsigned char *mp = out_manifests[i];
            sha_ctx c;
            rp[0] = 'I';
            i64_to_i128(m[2], rp + 1);
            rp[17] = 'B';
            put_be64(rp + 18, (uint64_t)(35 + box_len));
            rp[26] = 'L';
            put_be64(rp + 27, 2);
            rp[35] = 'I';
            i64_to_i128(m[3], rp + 36);
            rp[52] = 'B';
            put_be64(rp + 53, (uint64_t)box_len);
            memcpy(rp + 61, box, box_len);
            memcpy(mp, rp, 17);
            mp[17] = 'B';
            put_be64(mp + 18, 32);
            sha_init(&c);
            sha_update(&c, rp + 26, 35 + box_len);
            sha_final(&c, mp + 26);
        }
    }
    free(scratch);
    return 0;
}

/* ---- modular exponentiation (the attested DH channel) --------------- */

/* pow(base, exponent, n) for an odd n below 2^2048, as crypto/dh.py runs
   it over RFC 3526 group 14: Montgomery multiplication over 32 64-bit
   limbs, one product column at a time (each column's a*b and m*n terms
   summed in a three-word accumulator, so no row of partial products
   goes through memory), and a 4-bit fixed window over the exponent's
   nibbles, most significant first.  R^2 mod n and -n^-1 mod 2^64 come in
   from the caller, which computes them once per modulus.  Operands are
   256-byte big-endian; the exponent has any length.  Like the Python
   pow it stands in for, the window lookups are not constant-time. */
#define MONT_LIMBS 32

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 mont_u128;

/* (top:acc) += x * y */
#define MONT_MAC(x, y) do { \
        mont_u128 p_ = (mont_u128)(x) * (y); \
        acc += p_; \
        top += acc < p_; \
    } while (0)

/* r = a * b / R mod n; r may alias a or b */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *n, uint64_t n0)
{
    uint64_t m[MONT_LIMBS], t[MONT_LIMBS], d[MONT_LIMBS];
    uint64_t top = 0, borrow = 0, keep;
    mont_u128 acc = 0;
    int i, j;

    /* low columns: each fixes the quotient word that zeroes it */
    for (i = 0; i < MONT_LIMBS; i++) {
        for (j = 0; j < i; j++) {
            MONT_MAC(a[j], b[i - j]);
            MONT_MAC(m[j], n[i - j]);
        }
        MONT_MAC(a[i], b[0]);
        m[i] = (uint64_t)acc * n0;
        MONT_MAC(m[i], n[0]);
        acc = (acc >> 64) | ((mont_u128)top << 64);
        top = 0;
    }
    /* high columns: the result, t < 2n */
    for (i = MONT_LIMBS; i < 2 * MONT_LIMBS - 1; i++) {
        for (j = i - MONT_LIMBS + 1; j < MONT_LIMBS; j++) {
            MONT_MAC(a[j], b[i - j]);
            MONT_MAC(m[j], n[i - j]);
        }
        t[i - MONT_LIMBS] = (uint64_t)acc;
        acc = (acc >> 64) | ((mont_u128)top << 64);
        top = 0;
    }
    t[MONT_LIMBS - 1] = (uint64_t)acc;
    top = (uint64_t)(acc >> 64);
    for (j = 0; j < MONT_LIMBS; j++) {
        mont_u128 c = (mont_u128)t[j] - n[j] - borrow;
        d[j] = (uint64_t)c;
        borrow = (uint64_t)(c >> 64) & 1;
    }
    /* keep t when t - n borrows past t's carry word, else take t - n */
    keep = (uint64_t)0 - (borrow & ~top & 1);
    for (j = 0; j < MONT_LIMBS; j++)
        r[j] = (t[j] & keep) | (d[j] & ~keep);
}

static void mont_load(uint64_t *limbs, const unsigned char *be256)
{
    int k;
    for (k = 0; k < MONT_LIMBS; k++)
        limbs[k] = load_be64(be256 + 8 * (MONT_LIMBS - 1 - k));
}
#endif

/* 0, with pow(base, exponent, modulus) in out; -1: no 128-bit integers
   here, fall back.  base < modulus. */
static int lcm_modexp(const unsigned char *modulus, const unsigned char *r2,
                      unsigned long long n0inv, const unsigned char *base,
                      const unsigned char *exponent, size_t exp_len,
                      unsigned char *out)
{
#ifdef __SIZEOF_INT128__
    uint64_t n[MONT_LIMBS], rr[MONT_LIMBS], one[MONT_LIMBS];
    uint64_t table[16][MONT_LIMBS], acc[MONT_LIMBS];
    size_t i;
    int k, started = 0;

    mont_load(n, modulus);
    mont_load(rr, r2);
    mont_load(acc, base);
    memset(one, 0, sizeof one);
    one[0] = 1;
    /* table[k] = base^k * R mod n */
    mont_mul(table[0], one, rr, n, n0inv);
    mont_mul(table[1], acc, rr, n, n0inv);
    for (k = 2; k < 16; k++)
        mont_mul(table[k], table[k - 1], table[1], n, n0inv);
    memcpy(acc, table[0], sizeof acc);
    for (i = 0; i < 2 * exp_len; i++) {
        int nibble = (exponent[i / 2] >> (i & 1 ? 0 : 4)) & 15;
        if (started) {
            for (k = 0; k < 4; k++)
                mont_mul(acc, acc, acc, n, n0inv);
            mont_mul(acc, acc, table[nibble], n, n0inv);
        } else if (nibble) {        /* skip the leading zero nibbles */
            memcpy(acc, table[nibble], sizeof acc);
            started = 1;
        }
    }
    mont_mul(acc, acc, one, n, n0inv);   /* leave Montgomery form */
    for (k = 0; k < MONT_LIMBS; k++)
        put_be64(out + 8 * (MONT_LIMBS - 1 - k), acc[k]);
    return 0;
#else
    (void)modulus; (void)r2; (void)n0inv; (void)base;
    (void)exponent; (void)exp_len; (void)out;
    return -1;
#endif
}

/* ---- the CPython entry points --------------------------------------- */

/* Each function below is called straight from Python (METH_FASTCALL, no
   wrapper frame in between): byte strings come in as bytes or any other
   buffer, batches as lists or tuples of them, and every result is built
   here as bytes, ints, tuples and lists.  Each checks every length the C
   above relies on first, so a wrong argument raises and a short or
   forged box returns the documented "unauthentic" value.  The GIL stays
   held: each call lasts microseconds. */

#define BYTES_OUT(o) ((unsigned char *)PyBytes_AS_STRING(o))
#define BATCH_CAPSULE "repro.crypto.fastpath.batch"

static int arg_error(const char *name, Py_ssize_t want, Py_ssize_t nargs)
{
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

static int get_bytes(PyObject *obj, arg_bytes *b)
{
    if (PyBytes_Check(obj)) {
        b->p = (const unsigned char *)PyBytes_AS_STRING(obj);
        b->n = (size_t)PyBytes_GET_SIZE(obj);
        return 0;
    }
    if (PyObject_GetBuffer(obj, &b->view, PyBUF_SIMPLE) < 0)
        return -1;
    b->p = (const unsigned char *)b->view.buf;
    b->n = (size_t)b->view.len;
    return 0;
}

static void release_args(arg_bytes *a, size_t count)
{
    for (; count; count--, a++)
        if (a->view.obj)
            PyBuffer_Release(&a->view);
}

/* Reads args[i] into a[i] as spec[i] says: 'k' a 32-byte key or seed,
   'n' a 12-byte nonce, 'm' a 256-byte DH operand, 'b' any length, '-'
   not a byte string (the caller reads it).  Checks the argument count
   first; every slot is left for release_args, whatever failed. */
static int read_args(const char *name, PyObject *const *args,
                     Py_ssize_t nargs, const char *spec, arg_bytes *a)
{
    Py_ssize_t i, want = (Py_ssize_t)strlen(spec);
    for (i = 0; i < want; i++)
        a[i].view.obj = NULL;
    if (nargs != want)
        return arg_error(name, want, nargs);
    for (i = 0; i < want; i++) {
        size_t size;
        if (spec[i] == '-')
            continue;
        if (get_bytes(args[i], a + i) < 0)
            return -1;
        size = spec[i] == 'k' ? 32 : spec[i] == 'n' ? 12
             : spec[i] == 'm' ? 256 : a[i].n;
        if (a[i].n != size) {
            PyErr_Format(PyExc_ValueError,
                         "%s() argument %zd must be %zu bytes, not %zu",
                         name, i + 1, size, a[i].n);
            return -1;
        }
    }
    return 0;
}

/* The items of a list or tuple of byte strings, read as get_bytes reads
   them.  *hold, a tuple of the items, keeps each alive until free_items
   whatever happens to the list meanwhile.  NULL, with an exception set,
   when seq is neither or an item is no byte string. */
static arg_bytes *get_items(PyObject *seq, const char *what,
                            PyObject **hold, size_t *count)
{
    PyObject *tuple;
    arg_bytes *items;
    Py_ssize_t n, i;

    if (!PyList_Check(seq) && !PyTuple_Check(seq)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, not %.100s",
                     what, Py_TYPE(seq)->tp_name);
        return NULL;
    }
    tuple = PySequence_Tuple(seq);
    if (!tuple)
        return NULL;
    n = PyTuple_GET_SIZE(tuple);
    items = (arg_bytes *)PyMem_Calloc(n ? (size_t)n : 1, sizeof *items);
    if (!items) {
        Py_DECREF(tuple);
        PyErr_NoMemory();
        return NULL;
    }
    for (i = 0; i < n; i++) {
        if (get_bytes(PyTuple_GET_ITEM(tuple, i), items + i) < 0) {
            release_args(items, (size_t)i);
            PyMem_Free(items);
            Py_DECREF(tuple);
            return NULL;
        }
    }
    *hold = tuple;
    *count = (size_t)n;
    return items;
}

static void free_items(arg_bytes *items, size_t count, PyObject *hold)
{
    if (!items)
        return;
    release_args(items, count);
    PyMem_Free(items);
    Py_DECREF(hold);
}

/* A tuple of n new references, stolen; when one is NULL (its exception
   set) or the tuple cannot be made, NULL and every other one released. */
static PyObject *tuple_steal(PyObject **items, Py_ssize_t n)
{
    PyObject *tuple = NULL;
    Py_ssize_t i;
    for (i = 0; i < n; i++)
        if (!items[i])
            goto fail;
    tuple = PyTuple_New(n);
    if (!tuple)
        goto fail;
    for (i = 0; i < n; i++)
        PyTuple_SET_ITEM(tuple, i, items[i]);
    return tuple;
fail:
    for (i = 0; i < n; i++)
        Py_XDECREF(items[i]);
    return NULL;
}

static int get_u64(PyObject *obj, unsigned long long *out)
{
    *out = PyLong_AsUnsignedLongLong(obj);
    return *out == (unsigned long long)-1 && PyErr_Occurred() ? -1 : 0;
}

static int get_i64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *fp_kernels(PyObject *module, PyObject *unused)
{
    (void)module;
    (void)unused;
    return PyUnicode_FromString(lcm_kernel_names);
}

static PyObject *fp_keystream(PyObject *module, PyObject *const *args,
                              Py_ssize_t nargs)
{
    arg_bytes prefix;
    unsigned long long nblocks, first = 0;
    PyObject *out = NULL;

    (void)module;
    prefix.view.obj = NULL;
    if (nargs != 2 && nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "keystream() takes 2 or 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (get_u64(args[1], &nblocks) < 0
        || (nargs == 3 && get_u64(args[2], &first) < 0))
        return NULL;
    if (nblocks > (unsigned long long)(PY_SSIZE_T_MAX / 32)) {
        PyErr_SetString(PyExc_OverflowError, "keystream too long");
        return NULL;
    }
    if (get_bytes(args[0], &prefix) == 0) {
        out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(32 * nblocks));
        if (out)
            lcm_ctr_keystream(prefix.p, prefix.n, first, nblocks,
                              BYTES_OUT(out));
    }
    release_args(&prefix, 1);
    return out;
}

static PyObject *fp_sha256_many(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    PyObject *hold, *out;
    arg_bytes *items;
    size_t n, i;
    sha_ctx c;

    (void)module;
    if (nargs != 1) {
        arg_error("sha256_many", 1, nargs);
        return NULL;
    }
    items = get_items(args[0], "segments", &hold, &n);
    if (!items)
        return NULL;
    out = PyList_New((Py_ssize_t)n);
    for (i = 0; out && i < n; i++) {
        PyObject *digest = PyBytes_FromStringAndSize(NULL, 32);
        if (!digest) {
            Py_CLEAR(out);
            break;
        }
        sha_init(&c);
        sha_update(&c, items[i].p, items[i].n);
        sha_final(&c, BYTES_OUT(digest));
        PyList_SET_ITEM(out, (Py_ssize_t)i, digest);
    }
    free_items(items, n, hold);
    return out;
}

static PyObject *fp_chain_extend(PyObject *module, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    arg_bytes a[4];
    unsigned long long sequence, client_id;
    PyObject *out = NULL;

    (void)module;
    if (read_args("chain_extend", args, nargs, "bb--", a) == 0
        && get_u64(args[2], &sequence) == 0
        && get_u64(args[3], &client_id) == 0) {
        out = PyBytes_FromStringAndSize(NULL, 32);
        if (out)
            lcm_chain_extend(a[0].p, a[0].n, a[1].p, a[1].n, sequence,
                             client_id, BYTES_OUT(out));
    }
    release_args(a, 4);
    return out;
}

static PyObject *fp_seal_box(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    arg_bytes a[5];
    PyObject *out = NULL;

    (void)module;
    if (read_args("seal_box", args, nargs, "kknbb", a) == 0) {
        out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(a[4].n + 28));
        if (out)
            lcm_seal_box(a[0].p, a[1].p, a[2].p, a[3].p, a[3].n,
                         a[4].p, a[4].n, BYTES_OUT(out));
    }
    release_args(a, 5);
    return out;
}

static PyObject *fp_open_box(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    arg_bytes a[4];
    PyObject *out = NULL;

    (void)module;
    if (read_args("open_box", args, nargs, "kkbb", a) == 0) {
        if (a[3].n < 28) {
            out = Py_NewRef(Py_None);
        } else {
            out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(a[3].n - 28));
            if (out && lcm_open_box(a[0].p, a[1].p, a[2].p, a[2].n,
                                    a[3].p, a[3].n, BYTES_OUT(out)) != 0)
                Py_SETREF(out, Py_NewRef(Py_None));
        }
    }
    release_args(a, 4);
    return out;
}

static PyObject *fp_stream_box(PyObject *module, PyObject *const *args,
                               Py_ssize_t nargs)
{
    arg_bytes a[3];
    PyObject *out = NULL;

    (void)module;
    if (read_args("stream_box", args, nargs, "knb", a) == 0) {
        out = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(a[2].n + 12));
        if (out)
            lcm_stream_box(a[0].p, a[1].p, a[2].p, a[2].n, BYTES_OUT(out));
    }
    release_args(a, 3);
    return out;
}

/* seal_boxes(enc_key, mac_key, nonces, frame, plaintexts): one box per
   plaintext, sharing the HMAC pad states. */
static PyObject *fp_seal_boxes(PyObject *module, PyObject *const *args,
                               Py_ssize_t nargs)
{
    arg_bytes a[5], *nonces = NULL, *pts = NULL;
    PyObject *hold_nonces = NULL, *hold_pts = NULL, *out = NULL;
    size_t n = 0, n_nonces = 0, i;
    uint32_t ipad_state[8], opad_state[8];

    (void)module;
    if (read_args("seal_boxes", args, nargs, "kk-b-", a) < 0)
        goto done;
    nonces = get_items(args[2], "nonces", &hold_nonces, &n_nonces);
    if (!nonces)
        goto done;
    pts = get_items(args[4], "plaintexts", &hold_pts, &n);
    if (!pts)
        goto done;
    if (n_nonces != n) {
        PyErr_Format(PyExc_ValueError, "%zu plaintexts but %zu nonces", n,
                     n_nonces);
        goto done;
    }
    for (i = 0; i < n; i++) {
        if (nonces[i].n != 12) {
            PyErr_SetString(PyExc_ValueError, "nonces must be 12 bytes");
            goto done;
        }
    }
    out = PyList_New((Py_ssize_t)n);
    if (!out)
        goto done;
    hmac_pad_states(a[1].p, 32, ipad_state, opad_state);
    for (i = 0; i < n; i++) {
        size_t pt_len = pts[i].n;
        PyObject *box = PyBytes_FromStringAndSize(NULL,
                                                  (Py_ssize_t)(pt_len + 28));
        unsigned char *p;
        if (!box) {
            Py_CLEAR(out);
            goto done;
        }
        p = BYTES_OUT(box);
        memcpy(p, nonces[i].p, 12);
        ctr_xor(a[0].p, nonces[i].p, pts[i].p, pt_len, p + 12);
        derive_tag16(ipad_state, opad_state, a[3].p, a[3].n,
                     p, 12 + pt_len, p + 12 + pt_len);
        PyList_SET_ITEM(out, (Py_ssize_t)i, box);
    }
done:
    free_items(nonces, n_nonces, hold_nonces);
    free_items(pts, n, hold_pts);
    release_args(a, 5);
    return out;
}

/* open_boxes(enc_key, mac_key, frame, boxes): the plaintexts, or, all or
   nothing, the index of the first bad box (the first box too short to
   be authentic, else the first whose tag fails) before any plaintext
   exists. */
static PyObject *fp_open_boxes(PyObject *module, PyObject *const *args,
                               Py_ssize_t nargs)
{
    arg_bytes a[4], *boxes = NULL;
    PyObject *hold = NULL, *out = NULL;
    size_t n = 0, i;
    uint32_t ipad_state[8], opad_state[8];
    unsigned char tag[16];
    Py_ssize_t bad = -1;

    (void)module;
    if (read_args("open_boxes", args, nargs, "kkb-", a) < 0)
        goto done;
    boxes = get_items(args[3], "boxes", &hold, &n);
    if (!boxes)
        goto done;
    for (i = 0; i < n && bad < 0; i++)
        if (boxes[i].n < 28)
            bad = (Py_ssize_t)i;
    hmac_pad_states(a[1].p, 32, ipad_state, opad_state);
    for (i = 0; i < n && bad < 0; i++) {
        derive_tag16(ipad_state, opad_state, a[2].p, a[2].n,
                     boxes[i].p, boxes[i].n - 16, tag);
        if (tag16_differs(tag, boxes[i].p + boxes[i].n - 16))
            bad = (Py_ssize_t)i;
    }
    if (bad >= 0) {
        out = PyLong_FromSsize_t(bad);
        goto done;
    }
    out = PyList_New((Py_ssize_t)n);
    for (i = 0; out && i < n; i++) {
        PyObject *pt = PyBytes_FromStringAndSize(
            NULL, (Py_ssize_t)(boxes[i].n - 28));
        if (!pt) {
            Py_CLEAR(out);
            break;
        }
        ctr_xor(a[0].p, boxes[i].p, boxes[i].p + 12, boxes[i].n - 28,
                BYTES_OUT(pt));
        PyList_SET_ITEM(out, (Py_ssize_t)i, pt);
    }
done:
    free_items(boxes, n, hold);
    release_args(a, 4);
    return out;
}

/* seal_invoke(enc_key, mac_key, nonce, frame, prefix, tc, hc, op, cid,
   retry): the sealed canonical INVOKE; tc and cid are int64. */
static PyObject *fp_seal_invoke(PyObject *module, PyObject *const *args,
                                Py_ssize_t nargs)
{
    arg_bytes a[10];
    long long tc, cid;
    int retry;
    PyObject *out = NULL;

    (void)module;
    if (read_args("seal_invoke", args, nargs, "kknbb-bb--", a) == 0
        && get_i64(args[5], &tc) == 0 && get_i64(args[8], &cid) == 0
        && (retry = PyObject_IsTrue(args[9])) >= 0) {
        out = PyBytes_FromStringAndSize(
            NULL, (Py_ssize_t)(80 + a[4].n + a[6].n + a[7].n));
        if (out && lcm_seal_invoke(a[0].p, a[1].p, a[2].p, a[3].p, a[3].n,
                                   a[4].p, a[4].n, tc, a[6].p, a[6].n,
                                   a[7].p, a[7].n, cid, retry,
                                   BYTES_OUT(out)) != 0) {
            Py_CLEAR(out);
            PyErr_NoMemory();
        }
    }
    release_args(a, 10);
    return out;
}

/* open_reply(enc_key, mac_key, frame, prefix, box): the decoded REPLY
   (t, h, r, q, prev); the plaintext when the box is authentic but not
   canonically encoded; None when it is not authentic. */
static PyObject *fp_open_reply(PyObject *module, PyObject *const *args,
                               Py_ssize_t nargs)
{
    arg_bytes a[5];
    PyObject *pt, *out = NULL;
    long long meta[8];
    long long status;

    (void)module;
    if (read_args("open_reply", args, nargs, "kkbbb", a) < 0)
        goto done;
    if (a[4].n < 28) {
        out = Py_NewRef(Py_None);
        goto done;
    }
    pt = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)(a[4].n - 28));
    if (!pt)
        goto done;
    status = lcm_open_reply(a[0].p, a[1].p, a[2].p, a[2].n, a[3].p, a[3].n,
                            a[4].p, a[4].n, BYTES_OUT(pt), meta);
    if (status == -2) {
        out = pt;
    } else {
        if (status == 0) {
            const char *p = PyBytes_AS_STRING(pt);
            PyObject *fields[5] = {
                PyLong_FromLongLong(meta[0]),
                PyBytes_FromStringAndSize(p + meta[1], (Py_ssize_t)meta[2]),
                PyBytes_FromStringAndSize(p + meta[3], (Py_ssize_t)meta[4]),
                PyLong_FromLongLong(meta[5]),
                PyBytes_FromStringAndSize(p + meta[6], (Py_ssize_t)meta[7]),
            };
            out = tuple_steal(fields, 5);
        } else {
            out = Py_NewRef(Py_None);
        }
        Py_DECREF(pt);
    }
done:
    release_args(a, 5);
    return out;
}

/* What invoke_batch_open hands invoke_batch_reply, in one allocation
   owned by a capsule (Python code cannot make or alter one). */
typedef struct {
    size_t n;               /* operations in the batch */
    size_t accepted;        /* committed by pass A: n unless a violation */
    long long *meta;        /* 10 per operation, see lcm_invoke_batch_open */
    unsigned char *chains;  /* 32 per operation */
    unsigned char *pt;      /* the INVOKE plaintexts, back to back */
} open_batch;

static void free_batch(PyObject *capsule)
{
    PyMem_Free(PyCapsule_GetPointer(capsule, BATCH_CAPSULE));
}

/* A packed V column: an int64 array (itemsize 8) or, for the chain
   cells, a bytearray (itemsize 1); writable when pass A mutates it. */
static int get_column(PyObject *obj, Py_buffer *view, int writable,
                      Py_ssize_t itemsize, const char *what)
{
    if (PyObject_GetBuffer(obj, view,
                           PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0)) < 0)
        return -1;
    if (view->itemsize != itemsize
        || (itemsize == 8 && strcmp(view->format, "q") != 0
            && strcmp(view->format, "l") != 0)) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_Format(PyExc_TypeError, "%s must be %s", what,
                     itemsize == 8 ? "an array('q')" : "a bytearray");
        return -1;
    }
    return 0;
}

/* invoke_batch_open(enc_key, mac_key, frame, prefix, boxes, ids, ack,
   seq, chains, acks, quorum, sequence, chain): pass A over the packed V
   columns, mutated in place (ids, ack, seq and acks are array('q'),
   chains a bytearray).  Before any state is touched it returns the int
   -1000-i when box i is the first unauthentic one, or -2000-i when
   INVOKE i is authentic but not canonical.  Otherwise (ops, violation,
   batch, sequence, chain): per committed operation a tuple (status,
   slot, client_id, operation, sequence, chain), status 0 to execute and
   1 to resend; violation None or (kind, slot, client_id, tc) for the
   operation pass A halted at; batch the capsule invoke_batch_reply
   seals from; and the new (sequence, chain) head. */
static PyObject *fp_invoke_batch_open(PyObject *module, PyObject *const *args,
                                      Py_ssize_t nargs)
{
    static const char *const names[5] = {"ids", "ack", "seq", "chains",
                                         "acks"};
    arg_bytes a[13], *boxes = NULL;
    Py_buffer cols[5];
    PyObject *hold = NULL, *capsule = NULL, *out = NULL;
    open_batch *batch = NULL;
    size_t n = 0, nrows, pt_total = 0, i;
    long long quorum, sequence, status;
    unsigned char chain[32];
    int k;

    (void)module;
    for (k = 0; k < 5; k++)
        cols[k].obj = NULL;
    if (read_args("invoke_batch_open", args, nargs, "kkbb--------k", a) < 0
        || get_i64(args[10], &quorum) < 0 || get_i64(args[11], &sequence) < 0)
        goto done;
    for (k = 0; k < 5; k++)
        if (get_column(args[5 + k], cols + k, k > 0, k == 3 ? 1 : 8,
                       names[k]) < 0)
            goto done;
    nrows = (size_t)cols[0].len / 8;
    if ((size_t)cols[1].len < 8 * nrows || (size_t)cols[2].len < 8 * nrows
        || (size_t)cols[3].len < 32 * nrows || (size_t)cols[4].len != 8 * nrows
        || (nrows && (quorum < 1 || (size_t)quorum > nrows))) {
        PyErr_SetString(PyExc_ValueError,
                        "V columns or quorum disagree with the row count");
        goto done;
    }
    boxes = get_items(args[4], "boxes", &hold, &n);
    if (!boxes)
        goto done;
    for (i = 0; i < n; i++)
        pt_total += boxes[i].n < 28 ? 0 : boxes[i].n - 28;
    batch = (open_batch *)PyMem_Malloc(sizeof *batch + 112 * n + pt_total);
    if (!batch) {
        PyErr_NoMemory();
        goto done;
    }
    batch->n = n;
    batch->meta = (long long *)(batch + 1);
    batch->chains = (unsigned char *)(batch->meta + 10 * n);
    batch->pt = batch->chains + 32 * n;
    memcpy(chain, a[12].p, 32);
    status = lcm_invoke_batch_open(
        a[0].p, a[1].p, a[2].p, a[2].n, a[3].p, a[3].n, boxes, n, batch->pt,
        batch->meta, batch->chains, (const long long *)cols[0].buf, nrows,
        (long long *)cols[1].buf, (long long *)cols[2].buf,
        (unsigned char *)cols[3].buf, (long long *)cols[4].buf, quorum,
        &sequence, chain);
    if (status < 0) {
        out = PyLong_FromLongLong(status);
        goto done;
    }
    batch->accepted = (size_t)status;
    capsule = PyCapsule_New(batch, BATCH_CAPSULE, free_batch);
    if (!capsule)
        goto done;
    {
        const long long *m = batch->meta;
        PyObject *ops = PyList_New(status);
        PyObject *fields[5];
        for (i = 0; ops && i < batch->accepted; i++, m += 10) {
            PyObject *op[6] = {
                PyLong_FromLongLong(m[0]),
                PyLong_FromLongLong(m[1]),
                PyLong_FromLongLong(m[2]),
                PyBytes_FromStringAndSize((const char *)batch->pt + m[4],
                                          (Py_ssize_t)m[5]),
                PyLong_FromLongLong(m[8]),
                PyBytes_FromStringAndSize(
                    (const char *)batch->chains + 32 * i, 32),
            };
            PyObject *entry = tuple_steal(op, 6);
            if (!entry)
                Py_CLEAR(ops);
            else
                PyList_SET_ITEM(ops, (Py_ssize_t)i, entry);
        }
        fields[0] = ops;
        if (batch->accepted < n) {
            PyObject *halt[4] = {
                PyLong_FromLongLong(m[0]), PyLong_FromLongLong(m[1]),
                PyLong_FromLongLong(m[2]), PyLong_FromLongLong(m[3]),
            };
            fields[1] = tuple_steal(halt, 4);
        } else {
            fields[1] = Py_NewRef(Py_None);
        }
        fields[2] = capsule;
        fields[3] = PyLong_FromLongLong(sequence);
        fields[4] = PyBytes_FromStringAndSize((const char *)chain, 32);
        batch = NULL;   /* the capsule owns it */
        out = tuple_steal(fields, 5);
    }
done:
    PyMem_Free(batch);
    free_items(boxes, n, hold);
    for (k = 0; k < 5; k++)
        if (cols[k].obj)
            PyBuffer_Release(cols + k);
    release_args(a, 13);
    return out;
}

/* invoke_batch_reply(enc_key, mac_key, frame, prefix, batch, results,
   nonce_seed, nonce_counter): pass B over a batch invoke_batch_open
   committed whole — (boxes, row_blobs, row_manifests), the REPLY box
   per operation and, for each executed one, its V row's sealed-blob
   and manifest pieces (None for a resend). */
static PyObject *fp_invoke_batch_reply(PyObject *module,
                                       PyObject *const *args,
                                       Py_ssize_t nargs)
{
    arg_bytes a[8], *results = NULL;
    PyObject *hold = NULL, *lists[3] = {NULL, NULL, NULL}, *out = NULL;
    unsigned char **ptrs = NULL;
    const open_batch *batch;
    unsigned long long counter;
    size_t n = 0, i;
    int k;

    (void)module;
    if (read_args("invoke_batch_reply", args, nargs, "kkbb--k-", a) < 0
        || get_u64(args[7], &counter) < 0)
        goto done;
    batch = (const open_batch *)PyCapsule_GetPointer(args[4], BATCH_CAPSULE);
    if (!batch)
        goto done;
    if (batch->accepted != batch->n) {
        PyErr_SetString(PyExc_ValueError,
                        "the batch halted at a violation: nothing to reply");
        goto done;
    }
    results = get_items(args[5], "results", &hold, &n);
    if (!results)
        goto done;
    if (n != batch->n) {
        PyErr_Format(PyExc_ValueError, "%zu results for a batch of %zu", n,
                     batch->n);
        goto done;
    }
    ptrs = (unsigned char **)PyMem_Malloc((3 * n + 1) * sizeof *ptrs);
    if (!ptrs) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < 3; k++)
        if (!(lists[k] = PyList_New((Py_ssize_t)n)))
            goto done;
    for (i = 0; i < n; i++) {
        const long long *m = batch->meta + 10 * i;
        size_t box_len = a[3].n + 120 + results[i].n + (size_t)m[7];
        size_t sizes[3] = {box_len, 61 + box_len, 58};
        for (k = 0; k < 3; k++) {
            PyObject *piece;
            if (k && m[0] != 0) {   /* a resend reuses its stored row */
                piece = Py_NewRef(Py_None);
                ptrs[k * n + i] = NULL;
            } else {
                piece = PyBytes_FromStringAndSize(NULL,
                                                  (Py_ssize_t)sizes[k]);
                if (!piece)
                    goto done;
                ptrs[k * n + i] = BYTES_OUT(piece);
            }
            PyList_SET_ITEM(lists[k], (Py_ssize_t)i, piece);
        }
    }
    if (lcm_invoke_batch_reply(a[0].p, a[1].p, a[2].p, a[2].n, a[3].p,
                               a[3].n, batch->meta, n, batch->chains,
                               batch->pt, results, a[6].p, counter, ptrs,
                               ptrs + n, ptrs + 2 * n) != 0) {
        PyErr_NoMemory();
        goto done;
    }
    out = tuple_steal(lists, 3);
    lists[0] = lists[1] = lists[2] = NULL;
done:
    for (k = 0; k < 3; k++)
        Py_XDECREF(lists[k]);
    PyMem_Free(ptrs);
    free_items(results, n, hold);
    release_args(a, 8);
    return out;
}

/* modexp(modulus, r2, n0inv, base, exponent): pow(base, exponent,
   modulus) as 256 big-endian bytes, the first three and base 256 bytes
   each; None where the DH kernel is not compiled in. */
static PyObject *fp_modexp(PyObject *module, PyObject *const *args,
                           Py_ssize_t nargs)
{
    arg_bytes a[5];
    unsigned long long n0inv;
    PyObject *out = NULL;

    (void)module;
    if (read_args("modexp", args, nargs, "mm-mb", a) == 0
        && get_u64(args[2], &n0inv) == 0) {
        out = PyBytes_FromStringAndSize(NULL, 256);
        if (out && lcm_modexp(a[0].p, a[1].p, n0inv, a[3].p, a[4].p, a[4].n,
                              BYTES_OUT(out)) != 0)
            Py_SETREF(out, Py_NewRef(Py_None));
    }
    release_args(a, 5);
    return out;
}

#define FASTCALL(name, doc) \
    {#name, (PyCFunction)(void (*)(void))fp_##name, METH_FASTCALL, doc}

static PyMethodDef fastpath_methods[] = {
    {"kernels", fp_kernels, METH_NOARGS,
     "kernels() -> the kernels load-time dispatch chose"},
    FASTCALL(keystream, "keystream(prefix, nblocks, first_counter=0)"),
    FASTCALL(sha256_many, "sha256_many(segments) -> list of digests"),
    FASTCALL(chain_extend,
             "chain_extend(previous, operation, sequence, client_id)"),
    FASTCALL(seal_box, "seal_box(enc_key, mac_key, nonce, frame, plaintext)"),
    FASTCALL(open_box, "open_box(enc_key, mac_key, frame, box) -> "
                       "plaintext, or None"),
    FASTCALL(stream_box, "stream_box(enc_key, nonce, plaintext)"),
    FASTCALL(seal_boxes,
             "seal_boxes(enc_key, mac_key, nonces, frame, plaintexts)"),
    FASTCALL(open_boxes, "open_boxes(enc_key, mac_key, frame, boxes) -> "
                         "plaintexts, or the first bad index"),
    FASTCALL(seal_invoke, "seal_invoke(enc_key, mac_key, nonce, frame, "
                          "prefix, tc, hc, op, cid, retry)"),
    FASTCALL(open_reply, "open_reply(enc_key, mac_key, frame, prefix, box)"),
    FASTCALL(invoke_batch_open,
             "invoke_batch_open(enc_key, mac_key, frame, prefix, boxes, ids, "
             "ack, seq, chains, acks, quorum, sequence, chain)"),
    FASTCALL(invoke_batch_reply,
             "invoke_batch_reply(enc_key, mac_key, frame, prefix, batch, "
             "results, nonce_seed, nonce_counter)"),
    FASTCALL(modexp, "modexp(modulus, r2, n0inv, base, exponent)"),
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef fastpath_module = {
    PyModuleDef_HEAD_INIT, "_lcm_fastpath", NULL, -1, fastpath_methods,
    NULL, NULL, NULL, NULL
};

PyMODINIT_FUNC PyInit__lcm_fastpath(void)
{
    return PyModule_Create(&fastpath_module);
}
