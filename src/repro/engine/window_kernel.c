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
 *   - Every other window throws its balls: ball i lands in bin
 *     min(floor(u_i * length), length - 1), where u_i is the i-th uniform of
 *     the run's stream (pcg64.h): the run's first call seeds PCG64 from its
 *     seed as np.random.PCG64(np.random.SeedSequence(seed)) does, and each
 *     call steps it in locals and leaves it in the run for the next, so
 *     every bin equals the one the numpy reference computes from
 *     generator.random(balls).
 *   - A window cut by the slot cap tallies only its slots before the cap, and
 *     the window that solves the run ends at its final delivery.
 *
 * Products are single IEEE operations (built with -ffp-contract=off, never
 * -ffast-math).  tests/engine/test_window_engine.py compares the two loops.
 *
 * counts is the run's bin buffer, one byte per bin, saturating at 2 balls:
 * the tally only tells silences (0), deliveries (1) and collisions (2+)
 * apart.  A thrown window wider than the buffer is not started: the call
 * returns WINDOW_GROW with r->position at that window, and the caller
 * resumes there with a larger buffer.  A call that has run r->budget slots
 * returns WINDOW_PAUSED at the next window, and the caller resumes there, so
 * a long chunk still returns to Python (and sees Ctrl-C) every so often.
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

int window_simulate(window_run *r, const int64_t *lengths, int64_t n, uint8_t *counts,
                    int64_t capacity) {
    const int64_t first = r->start;
    pcg128 state, inc;
    int status = WINDOW_MORE;
    pcg64_load(&r->stream, &state, &inc);
    for (; r->position < n; r->position++) {
        int64_t length = lengths[r->position], limit, simulated;
        int64_t silences = 0, singletons = 0, last = -1, silences_before_last = 0;
        double width = (double)length;
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
        if (length > capacity) {
            status = WINDOW_GROW;
            break;
        }
        r->windows += 1;
        r->thrown += 1;
        memset(counts, 0, (size_t)length);
        for (int64_t i = 0; i < r->remaining; i++) {
            int64_t bin = (int64_t)(pcg64_next_double(&state, inc) * width);
            if (bin > length - 1)
                bin = length - 1;
            counts[bin] += counts[bin] < 2;
        }
        for (int64_t slot = 0; slot < limit; slot++) {
            int64_t single = counts[slot] == 1;
            silences += counts[slot] == 0;
            singletons += single;
            last = single ? slot : last;
            silences_before_last = single ? silences : silences_before_last;
        }
        simulated = limit;
        if (singletons == r->remaining) {
            simulated = last + 1;
            silences = silences_before_last;
        }
        r->successes += singletons;
        r->collisions += simulated - silences - singletons;
        r->silences += silences;
        r->remaining -= singletons;
        r->start += simulated;
    }
    pcg64_save(&r->stream, state);
    if (status == WINDOW_MORE && (r->remaining == 0 || r->start >= r->cap))
        status = WINDOW_DONE;
    return status;
}
