/* Compiled window loop of WindowEngine: each contention window is the
 * balls-in-bins experiment of the paper's Lemma 1.
 *
 * window_simulate runs the windows of one chunk of the protocol's schedule,
 * in order, until the chunk ends or the run is solved or capped.  It is a
 * port of WindowEngine's per-window Python loop:
 *
 *   - saturated() is _saturated, with the same libm calls (log1p, exp) on the
 *     same operands, so both agree on every window.  A saturated window is all
 *     collisions and takes no draws.
 *   - Every other window throws its balls: ball i lands in the bin that the
 *     i-th generator.integers(0, length, dtype=np.uint32) draw of the run's
 *     stream returns (pcg64.h).  The run's first call seeds PCG64 from its
 *     seed as np.random.PCG64(np.random.SeedSequence(seed)) does, and each
 *     call steps it in locals and leaves it, with numpy's kept 32-bit half,
 *     in the run for the next, so every bin equals the one the numpy
 *     reference draws.  throw_balls takes two balls from each 64-bit output
 *     whose halves both pass Lemire's test at once, and every other ball
 *     through pcg64_bounded's exact rejection.  A window of one slot draws
 *     nothing, as numpy's does.
 *   - A window cut by the slot cap tallies only its slots before the cap, and
 *     the window that solves the run ends at its final delivery.
 *
 * Products are single IEEE operations (built with -ffp-contract=off, never
 * -ffast-math).  tests/engine/test_window_engine.py compares the two loops.
 *
 * counts is the run's bin buffer, one byte per bin, saturating at 2 balls:
 * the tally only tells silences (0), deliveries (1) and collisions (2+)
 * apart, 8 bins at a time.  A thrown window wider than the buffer, or than
 * the 2^32 - 1 bins a uint32 draw reaches, is not started: the call returns
 * WINDOW_GROW with r->position at that window, and the caller resumes there
 * with a larger buffer (or refuses the window).  A call that has run
 * r->budget slots returns WINDOW_PAUSED at the next window, and the caller
 * resumes there, so a long chunk still returns to Python (and sees Ctrl-C)
 * every so often.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "pcg64.h"

enum { WINDOW_DONE = 0, WINDOW_MORE = 1, WINDOW_GROW = 2, WINDOW_PAUSED = 3 };

/* See _SATURATED_BOUND in window_engine.py: 2^-54. */
#define SATURATED_BOUND 0x1p-54

/* Mirrored field for field by _WindowRun in window_engine.py. */
typedef struct {
    /* Active stations, the next window's first slot, and the slot cap. */
    int64_t remaining, start, cap;
    /* WindowEngine's counters, and windows by occupancy mode. */
    int64_t windows, successes, collisions, silences, saturated, thrown;
    /* The next window of the current chunk, and the slots one call runs. */
    int64_t position, budget;
    /* The run's seed and generator. */
    pcg64_stream stream;
} window_run;

/* _saturated: whether every bin surely holds >= 2 balls.  balls / 2 < length
 * is balls < 2 * length without the overflow. */
static int saturated(int64_t length, int64_t balls) {
    double log_keep_out, p_empty, p_singleton;
    if (balls / 2 < length)
        return 0;
    if (length == 1)
        return 1;
    log_keep_out = log1p(-1.0 / (double)length);
    p_empty = exp((double)balls * log_keep_out);
    p_singleton = ((double)balls / (double)length) * exp((double)(balls - 1) * log_keep_out);
    return (double)length * (p_empty + p_singleton) < SATURATED_BOUND;
}

/* One more ball in a bin, saturating at 2. */
static inline void drop(uint8_t *counts, uint64_t bin) { counts[bin] += counts[bin] < 2; }

/* Ball i of `balls` into the bin of the i-th generator.integers(0, bound,
 * dtype=np.uint32) draw, 1 <= bound < 2^32. */
static void throw_balls(uint8_t *counts, uint32_t bound, int64_t balls, pcg128 *state,
                        pcg128 inc, int *has_uint32, uint32_t *uinteger) {
    int64_t ball = 0;
    if (bound == 1) {  /* numpy's rng == 0: no draws */
        counts[0] = balls < 2 ? (uint8_t)balls : 2;
        return;
    }
    while (ball < balls) {
        uint64_t low;
        if (!*has_uint32 && balls - ball >= 2) {
            /* Both halves of one output, low first, each kept at once when
             * its product's low word is at least bound.  numpy's next32
             * leaves the high half in uinteger, drawn or not. */
            uint64_t x = pcg64_next64(state, inc), high = (x >> 32) * bound;
            low = (x & 0xffffffffu) * bound;
            *uinteger = (uint32_t)(x >> 32);
            if ((uint32_t)low >= bound && (uint32_t)high >= bound) {
                drop(counts, low >> 32);
                drop(counts, high >> 32);
                ball += 2;
                continue;
            }
            *has_uint32 = 1;
        } else {
            low = (uint64_t)pcg64_next32(state, inc, has_uint32, uinteger) * bound;
        }
        drop(counts, pcg64_bounded(low, bound, state, inc, has_uint32, uinteger));
        ball += 1;
    }
}

/* Silences and deliveries among counts[0, limit), 8 bins a step.  A bin is
 * 0, 1 or 2: a silence has neither of its two low bits set and a delivery
 * only bit 0, and the multiply sums the 8 bytes' flags into the top byte. */
static void tally(const uint8_t *counts, int64_t limit, int64_t *silences,
                  int64_t *deliveries) {
    const uint64_t ones = 0x0101010101010101u;
    int64_t slot = 0, silent = 0, delivered = 0;
    for (; slot + 8 <= limit; slot += 8) {
        uint64_t x;
        memcpy(&x, counts + slot, sizeof x);
        silent += (int64_t)(((~(x | x >> 1) & ones) * ones) >> 56);
        delivered += (int64_t)(((x & ~(x >> 1) & ones) * ones) >> 56);
    }
    for (; slot < limit; slot++) {
        silent += counts[slot] == 0;
        delivered += counts[slot] == 1;
    }
    *silences = silent;
    *deliveries = delivered;
}

int window_simulate(window_run *r, const int64_t *lengths, int64_t n, uint8_t *counts,
                    int64_t capacity) {
    const int64_t first = r->start;
    pcg128 state, inc;
    int has_uint32, status = WINDOW_MORE;
    uint32_t uinteger;
    pcg64_load(&r->stream, &state, &inc);
    has_uint32 = r->stream.has_uint32;
    uinteger = r->stream.uinteger;
    for (; r->position < n; r->position++) {
        int64_t length = lengths[r->position], limit, simulated, silences, singletons;
        if (r->remaining == 0 || r->start >= r->cap)
            break;
        if (r->start - first >= r->budget) {
            status = WINDOW_PAUSED;
            break;
        }
        limit = length < r->cap - r->start ? length : r->cap - r->start;
        if (saturated(length, r->remaining)) {
            r->windows += 1;
            r->saturated += 1;
            r->collisions += limit;
            r->start += limit;
            continue;
        }
        if (length > capacity || length > (int64_t)UINT32_MAX) {
            status = WINDOW_GROW;
            break;
        }
        r->windows += 1;
        r->thrown += 1;
        memset(counts, 0, (size_t)length);
        throw_balls(counts, (uint32_t)length, r->remaining, &state, inc, &has_uint32, &uinteger);
        tally(counts, limit, &silences, &singletons);
        simulated = limit;
        if (singletons == r->remaining) {
            /* The solving window ends at its last delivery: drop the
             * silences after it. */
            while (counts[simulated - 1] != 1) {
                silences -= counts[simulated - 1] == 0;
                simulated -= 1;
            }
        }
        r->successes += singletons;
        r->collisions += simulated - silences - singletons;
        r->silences += silences;
        r->remaining -= singletons;
        r->start += simulated;
    }
    pcg64_save(&r->stream, state);
    r->stream.has_uint32 = has_uint32;
    r->stream.uinteger = uinteger;
    if (status == WINDOW_MORE && (r->remaining == 0 || r->start >= r->cap))
        status = WINDOW_DONE;
    return status;
}
