/* A run's random stream, owned by the kernels: numpy's SeedSequence and
 * PCG64, ported line for line, so that a kernel seeds and steps the run's
 * generator itself.
 *
 * np.random.PCG64(np.random.SeedSequence(seed)) is the bit generator that
 * RandomSource(seed) wraps; Generator.random calls its next_double, and
 * Generator.integers(..., dtype=np.uint32) its next32.  This header
 * reproduces each step exactly:
 *
 *   - seed_sequence_pool is SeedSequence's pool: the entropy words hashed into
 *     a pool of 4 words, every pool word mixed into every other, then any
 *     entropy beyond the pool mixed into each pool word.  The entropy is the
 *     seed's 32-bit words, least significant first (one word for 0), then the
 *     spawn key's; the seed's words are zero-padded to the pool size only when
 *     there is a spawn key, as numpy does since 1.19.
 *   - pcg64_seed is generate_state(4, uint64) followed by pcg64_set_seed: the
 *     state is step(0 + inc), then + initstate, then step, with
 *     inc = (initseq << 1) | 1.
 *   - pcg64_next64 is one LCG step and the XSL-RR output of the new state;
 *     pcg64_next_double is (x >> 11) * 2^-53 of it.
 *   - pcg64_next32 and pcg64_bounded are Generator.integers(0, bound,
 *     dtype=np.uint32)'s draw for 2 <= bound < 2^32: a 32-bit half of an
 *     output, the low half first, the high half kept in the stream for the
 *     next draw (numpy's has_uint32 and uinteger), and Lemire's multiply-
 *     shift with its exact rejection (numpy's buffered_bounded_lemire_uint32;
 *     D. Lemire, "Fast Random Integer Generation in an Interval", ACM TOMACS
 *     29(1), 2019).  Generator.random never reads or writes the kept half.
 *
 * numpy fixes these algorithms under its stream-compatibility policy (NEP 19),
 * and native.py compares the library's seeding and one window's bounded draws
 * with numpy's once per process before any run uses it.  The 128-bit
 * arithmetic needs unsigned __int128 (gcc and clang on 64-bit targets);
 * without it the library does not build and the engines run their Python
 * paths, which draw through numpy.
 */

#ifndef REPRO_PCG64_H
#define REPRO_PCG64_H

#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 pcg128;

/* A run's seed and its generator, mirrored field for field by native.Stream.
 * The seed is `words` little-endian 32-bit words.  The state and increment
 * are kept as 64-bit halves; the increment is odd once seeded, so a zero low
 * half marks a stream whose run has not made its first call yet.  has_uint32
 * and uinteger are numpy's kept 32-bit half: whether there is one, and its
 * value. */
typedef struct {
    const uint8_t *seed;
    int64_t words;
    uint64_t state_high, state_low, inc_high, inc_low;
    int has_uint32;
    uint32_t uinteger;
} pcg64_stream;

enum { SEED_POOL_SIZE = 4 };

/* SeedSequence's hash and mix constants (numpy/random/bit_generator.pyx). */
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu
#define MIX_MULT_L 0xca01f9ddu
#define MIX_MULT_R 0x4973f715u
#define XSHIFT 16

/* PCG64's multiplier (numpy/random/src/pcg64/pcg64.h). */
#define PCG64_MULTIPLIER (((pcg128)2549297995355413924ULL << 64) | 4865540595714422341ULL)

static inline uint32_t hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= MULT_A;
    value *= *hash_const;
    value ^= value >> XSHIFT;
    return value;
}

static inline uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t result = MIX_MULT_L * x - MIX_MULT_R * y;
    result ^= result >> XSHIFT;
    return result;
}

/* Word i of the assembled entropy: `run` words of the seed (zero-padded),
 * then the spawn key's words. */
static inline uint32_t entropy_word(const uint8_t *seed, int64_t words, int64_t run,
                                    const uint32_t *key, int64_t i) {
    const uint8_t *bytes;
    if (i >= run)
        return key[i - run];
    if (i >= words)
        return 0;
    bytes = seed + 4 * i;
    return (uint32_t)bytes[0] | (uint32_t)bytes[1] << 8 | (uint32_t)bytes[2] << 16 |
           (uint32_t)bytes[3] << 24;
}

/* SeedSequence(seed, spawn_key=key)'s pool; key_words 0 is no spawn key. */
static inline void seed_sequence_pool(const uint8_t *seed, int64_t words, const uint32_t *key,
                                      int64_t key_words, uint32_t pool[SEED_POOL_SIZE]) {
    int64_t run = key_words > 0 && words < SEED_POOL_SIZE ? SEED_POOL_SIZE : words;
    int64_t n = run + key_words;
    uint32_t hash_const = INIT_A;
    for (int64_t i = 0; i < SEED_POOL_SIZE; i++)
        pool[i] = hashmix(i < n ? entropy_word(seed, words, run, key, i) : 0, &hash_const);
    for (int src = 0; src < SEED_POOL_SIZE; src++)
        for (int dst = 0; dst < SEED_POOL_SIZE; dst++)
            if (src != dst)
                pool[dst] = mix(pool[dst], hashmix(pool[src], &hash_const));
    for (int64_t src = SEED_POOL_SIZE; src < n; src++)
        for (int dst = 0; dst < SEED_POOL_SIZE; dst++)
            pool[dst] = mix(pool[dst], hashmix(entropy_word(seed, words, run, key, src),
                                               &hash_const));
}

/* One word of generate_state: a pool word hashed with the running constant. */
static inline uint32_t state_word(uint32_t pool_word, uint32_t *hash_const) {
    uint32_t value = pool_word ^ *hash_const;
    *hash_const *= MULT_B;
    value *= *hash_const;
    return value ^ value >> XSHIFT;
}

/* generate_state(count, uint64): 2 * count words cycled out of the pool,
 * paired little-endian. */
static inline void generate_state(const uint32_t pool[SEED_POOL_SIZE], uint64_t *out,
                                  int count) {
    uint32_t hash_const = INIT_B;
    for (int i = 0; i < count; i++) {
        uint32_t low = state_word(pool[(2 * i) % SEED_POOL_SIZE], &hash_const);
        uint32_t high = state_word(pool[(2 * i + 1) % SEED_POOL_SIZE], &hash_const);
        out[i] = (uint64_t)low | (uint64_t)high << 32;
    }
}

static inline pcg128 pcg64_step(pcg128 state, pcg128 inc) {
    return state * PCG64_MULTIPLIER + inc;
}

/* A kernel call's end: the generator back into the stream, where the run's
 * next call continues from. */
static inline void pcg64_save(pcg64_stream *stream, pcg128 state) {
    stream->state_high = (uint64_t)(state >> 64);
    stream->state_low = (uint64_t)state;
}

/* PCG64(SeedSequence(seed)): the stream's state and increment. */
static inline void pcg64_seed(pcg64_stream *stream) {
    uint32_t pool[SEED_POOL_SIZE];
    uint64_t value[4];
    pcg128 inc, state;
    seed_sequence_pool(stream->seed, stream->words, NULL, 0, pool);
    generate_state(pool, value, 4);
    inc = ((((pcg128)value[2] << 64) | value[3]) << 1) | 1u;
    state = pcg64_step(0, inc);
    state += ((pcg128)value[0] << 64) | value[1];
    pcg64_save(stream, pcg64_step(state, inc));
    stream->inc_high = (uint64_t)(inc >> 64);
    stream->inc_low = (uint64_t)inc;
    stream->has_uint32 = 0;
    stream->uinteger = 0;
}

/* A kernel call's start: the generator into locals, seeded first on the
 * run's first call. */
static inline void pcg64_load(pcg64_stream *stream, pcg128 *state, pcg128 *inc) {
    if (stream->inc_low == 0)
        pcg64_seed(stream);
    *state = ((pcg128)stream->state_high << 64) | stream->state_low;
    *inc = ((pcg128)stream->inc_high << 64) | stream->inc_low;
}

/* The next 64-bit output: numpy's pcg64_next64. */
static inline uint64_t pcg64_next64(pcg128 *state, pcg128 inc) {
    uint64_t x;
    unsigned rotation;
    *state = pcg64_step(*state, inc);
    x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    rotation = (unsigned)(*state >> 122);
    return (x >> rotation) | (x << ((-rotation) & 63));
}

/* Generator.random's next value: numpy's pcg64_next_double. */
static inline double pcg64_next_double(pcg128 *state, pcg128 inc) {
    return (double)(pcg64_next64(state, inc) >> 11) * (1.0 / 9007199254740992.0);
}

/* The next 32-bit half: numpy's pcg64_next32.  The kept half if there is
 * one, else the low half of a new output, whose high half is kept. */
static inline uint32_t pcg64_next32(pcg128 *state, pcg128 inc, int *has_uint32,
                                    uint32_t *uinteger) {
    uint64_t next;
    if (*has_uint32) {
        *has_uint32 = 0;
        return *uinteger;
    }
    next = pcg64_next64(state, inc);
    *has_uint32 = 1;
    *uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* A draw from [0, bound), 2 <= bound < 2^32, whose first half has been
 * drawn already: m is that half times bound.  The rest of numpy's
 * buffered_bounded_lemire_uint32: m is kept unless its low word falls below
 * (2^32 - bound) mod bound, the rejection that makes every value exactly
 * as likely, and each rejected product is replaced by that of the next half. */
static inline uint32_t pcg64_bounded(uint64_t m, uint32_t bound, pcg128 *state, pcg128 inc,
                                     int *has_uint32, uint32_t *uinteger) {
    uint32_t leftover = (uint32_t)m;
    if (leftover < bound) {
        /* bound is an upper bound of the threshold. */
        const uint32_t threshold = (0u - bound) % bound;
        while (leftover < threshold) {
            m = (uint64_t)pcg64_next32(state, inc, has_uint32, uinteger) * bound;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

#endif
