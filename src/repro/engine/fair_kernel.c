/* Compiled slot loop of FairEngine for One-fail Adaptive, Log-fails Adaptive
 * and slotted ALOHA.
 *
 * This is a line-for-line port of FairEngine's Python loop and of the three
 * protocols' transmission_probability / notify pairs.  It makes the same libm
 * calls (pow, log2, floor) on the same operands in the same order, and is
 * built with -ffp-contract=off so that no multiply-add is fused: every run
 * equals the Python loop's run of the same seed, bit for bit.  The Python
 * loop stays the reference; tests/engine/test_fair_engine.py compares the two.
 *
 * fair_simulate runs the run until it is solved or capped, or until it has
 * run r->budget slots in this call: the caller then calls again, so a long
 * run still returns to Python (and sees Ctrl-C) every so often.  Slot i takes
 * the i-th uniform of the run's stream (pcg64.h): the run's first call seeds
 * PCG64 from its seed as np.random.PCG64(np.random.SeedSequence(seed)) does,
 * and the loop steps it in locals, so these are the values the Python loop
 * reads from its blocks of generator.random(1024).
 *
 * The success and silence thresholds depend only on (p, remaining).  Between
 * receptions One-fail Adaptive's BT-step p, Log-fails Adaptive's p and
 * ALOHA's p stay fixed, so the loop keeps the last two (p, remaining) pairs
 * with their thresholds: equal operands give equal libm results, so a cached
 * threshold is the one pow would return again, and runs do not change.
 */

#include <math.h>
#include <stdint.h>

#include "pcg64.h"

enum { OFA = 0, LFA = 1, ALOHA = 2 };
enum { FAIR_PAUSED = 0, FAIR_SOLVED = 1, FAIR_CAPPED = 2 };

/* Mirrored field for field by _FairRun in fair_engine.py. */
typedef struct {
    /* FairEngine's counters. */
    int64_t slot, remaining, cap, successes, collisions, silences, last_delivery;
    /* Slots one call runs at most. */
    int64_t budget;
    /* Which protocol, and its constants (precomputed by the Python side). */
    int64_t protocol;
    double delta;                                      /* OFA */
    double xi_t, xi_delta, bt_probability;             /* LFA */
    int64_t failure_threshold, max_search_exponent;    /* LFA */
    int64_t track_deliveries;                          /* ALOHA */
    /* Protocol state: OFA (kappa, count = sigma); LFA (kappa, anchor,
     * count = failure streak, search); ALOHA (count = remaining estimate). */
    double kappa, anchor;
    int64_t count, search;
    /* The run's seed and generator. */
    pcg64_stream stream;
} fair_run;

/* Python's max(a, b) and min(a, b): the first argument wins ties. */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

static double transmission_probability(const fair_run *r) {
    switch (r->protocol) {
    case OFA:
        if ((r->slot + 1) % 2 == 0)
            return 1.0 / (1.0 + log2((double)(r->count + 1)));
        return 1.0 / r->kappa;
    case LFA: {
        int64_t step = r->slot + 1;
        if (floor((double)step * r->xi_t) > floor((double)(step - 1) * r->xi_t))
            return r->bt_probability;
        return py_min(1.0, 1.0 / r->kappa);
    }
    default:
        return 1.0 / (double)(r->count > 1 ? r->count : 1);
    }
}

static void notify(fair_run *r, int received) {
    switch (r->protocol) {
    case OFA: {
        int bt_step = (r->slot + 1) % 2 == 0;
        if (!bt_step)
            r->kappa += 1.0;
        if (received) {
            double floor_value = r->delta + 1.0;
            r->count += 1;
            if (bt_step)
                r->kappa = py_max(r->kappa - r->delta, floor_value);
            else
                r->kappa = py_max(r->kappa - r->delta - 1.0, floor_value);
        }
        return;
    }
    case LFA: {
        if (received) {
            r->count = 0;
            r->kappa = py_max(r->kappa - 1.0 - r->xi_delta, 1.0);
            r->anchor = r->kappa;
            r->search = 0;
            return;
        }
        r->count += 1;
        if (r->count >= r->failure_threshold) {
            int64_t exponent;
            double magnitude, candidate;
            r->count = 0;
            r->search += 1;
            exponent = (r->search + 1) / 2;
            if (exponent > r->max_search_exponent) {
                r->search = 1;
                exponent = 1;
            }
            magnitude = pow(2.0, (double)exponent);
            candidate = r->search % 2 == 1 ? r->anchor * magnitude : r->anchor / magnitude;
            r->kappa = py_max(candidate, 1.0);
        }
        return;
    }
    default:
        if (r->track_deliveries && received)
            r->count = r->count - 1 > 1 ? r->count - 1 : 1;
        return;
    }
}

/* The thresholds of the last two (p, remaining) pairs; remaining 0 marks an
 * empty entry (a run with no message left draws no slot). */
typedef struct {
    double p[2], success[2], silence[2];
    int64_t remaining[2];
    int newest;
} threshold_cache;

int fair_simulate(fair_run *r) {
    const int64_t first = r->slot;
    threshold_cache cache = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0, 0}, 0};
    pcg128 state, inc;
    int status;
    pcg64_load(&r->stream, &state, &inc);
    for (;;) {
        double p, probability_success, probability_silence, draw;
        int received = 0;
        if (r->slot >= r->cap) {
            status = FAIR_CAPPED;
            break;
        }
        if (r->slot - first >= r->budget) {
            status = FAIR_PAUSED;
            break;
        }
        p = transmission_probability(r);
        if (p <= 0.0) {
            probability_success = 0.0;
            probability_silence = 1.0;
        } else if (p >= 1.0) {
            probability_success = r->remaining == 1 ? 1.0 : 0.0;
            probability_silence = 0.0;
        } else {
            int entry = cache.newest;
            if (cache.p[entry] != p || cache.remaining[entry] != r->remaining)
                entry = 1 - entry;
            if (cache.p[entry] != p || cache.remaining[entry] != r->remaining) {
                /* A miss replaces the older entry. */
                double q = 1.0 - p;
                double q_pow = pow(q, (double)(r->remaining - 1));
                entry = 1 - cache.newest;
                cache.p[entry] = p;
                cache.remaining[entry] = r->remaining;
                cache.success[entry] = (double)r->remaining * p * q_pow;
                cache.silence[entry] = q_pow * q;
            }
            cache.newest = entry;
            probability_success = cache.success[entry];
            probability_silence = cache.silence[entry];
        }
        draw = pcg64_next_double(&state, inc);
        if (draw < probability_success) {
            r->successes += 1;
            r->remaining -= 1;
            r->last_delivery = r->slot;
            received = 1;
        } else if (draw < probability_success + probability_silence) {
            r->silences += 1;
        } else {
            r->collisions += 1;
        }
        notify(r, received);
        r->slot += 1;
        if (r->remaining == 0) {
            status = FAIR_SOLVED;
            break;
        }
    }
    pcg64_save(&r->stream, state);
    return status;
}
