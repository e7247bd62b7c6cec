/* Compiled ball throw of WindowEngine: one contention window's balls-in-bins
 * experiment (the paper's Lemma 1).
 *
 * window_balls throws `balls` balls into `length` bins and tallies the first
 * `limit` bins (limit < length when the run's slot cap cuts the window).
 * Ball i lands in bin min(floor(u_i * length), length - 1), where u_i is the
 * i-th uniform of the run's numpy bit generator: the caller passes the
 * generator's next_double function and state (bit_generator.ctypes), which is
 * what Generator.random calls too.  The product is one IEEE multiplication
 * (built with -ffp-contract=off, never -ffast-math), so every bin equals the
 * one WindowEngine's numpy reference computes from generator.random(balls);
 * tests/engine/test_window_engine.py compares the two.
 *
 * counts holds one byte per bin and saturates at 2 balls: the tally only
 * tells silences (0), deliveries (1) and collisions (2+) apart.
 */

#include <stdint.h>
#include <string.h>

typedef double (*next_double_fn)(void *state);

/* tally[]: the order WindowEngine reads them in. */
enum { SILENCES = 0, SINGLETONS = 1, LAST_SINGLETON = 2, SILENCES_BEFORE_LAST = 3 };

void window_balls(uint8_t *counts, int64_t length, int64_t balls, int64_t limit,
                  next_double_fn next_double, void *state, int64_t *tally) {
    double width = (double)length;
    int64_t silences = 0, singletons = 0, last = -1, silences_before_last = 0;
    memset(counts, 0, (size_t)length);
    for (int64_t i = 0; i < balls; i++) {
        int64_t bin = (int64_t)(next_double(state) * width);
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
    tally[SILENCES] = silences;
    tally[SINGLETONS] = singletons;
    tally[LAST_SINGLETON] = last;
    tally[SILENCES_BEFORE_LAST] = silences_before_last;
}
