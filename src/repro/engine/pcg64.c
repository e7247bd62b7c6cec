/* The library's seed functions, on pcg64.h's port of numpy's SeedSequence.
 *
 * derive_seeds is repro.util.rng.derive_seeds: the first generate_state(1,
 * uint64) word of each child of SeedSequence(root).spawn(count), modulo
 * 2^63 - 1.  Child i is SeedSequence(root, spawn_key=(i,)).  seed_stream
 * seeds a stream as a run's first kernel call does; native.py uses both to
 * compare the library with numpy before any run or derivation uses it.
 */

#include <stdint.h>

#include "pcg64.h"

/* rng._SEED_BOUND: derived seeds fit a signed 64-bit integer. */
#define SEED_BOUND 0x7fffffffffffffffULL

void seed_stream(pcg64_stream *stream) { pcg64_seed(stream); }

void derive_seeds(const uint8_t *root, int64_t words, int64_t count, int64_t *out) {
    for (int64_t i = 0; i < count; i++) {
        /* The spawn key (i,) as numpy reads an int: one word for 0. */
        uint32_t key[2] = {(uint32_t)i, (uint32_t)((uint64_t)i >> 32)};
        uint32_t pool[SEED_POOL_SIZE];
        uint64_t word;
        seed_sequence_pool(root, words, key, key[1] ? 2 : 1, pool);
        generate_state(pool, &word, 1);
        out[i] = (int64_t)(word % SEED_BOUND);
    }
}
