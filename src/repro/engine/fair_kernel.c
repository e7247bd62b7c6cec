/* Compiled slot loop of FairEngine for One-fail Adaptive, Log-fails Adaptive
 * and slotted ALOHA.
 *
 * A port of FairEngine's Python loop and of the three protocols'
 * transmission_probability / notify pairs: one slot loop per protocol, with
 * the run's state in locals.  Every run equals the Python loop's run of the
 * same seed, bit for bit; the library is built with -ffp-contract=off, so no
 * multiply-add is fused.  The Python loop stays the reference;
 * tests/engine/test_fair_engine.py compares the two.
 *
 * fair_simulate runs the run until it is solved or capped, or until it has
 * run r->budget slots in this call: the caller then calls again, so a long
 * run still returns to Python (and sees Ctrl-C) every so often.  Slot i takes
 * the i-th uniform of the run's stream (pcg64.h): the run's first call seeds
 * PCG64 from its seed as np.random.PCG64(np.random.SeedSequence(seed)) does,
 * and the loop steps it in locals, so these are the values the Python loop
 * reads from its blocks of generator.random(1024).
 *
 * Thresholds from bounds.  With m messages left and p in (0, 1), Python
 * computes P = pow(q, n) for q = 1 - p and n = m - 1, then S = m*p*P and
 * T = S + P*q, and the slot's uniform u is a success when u < S, a silence
 * when S <= u < T and a collision otherwise.  Rounding is monotone, so
 * bounds lo <= P <= hi give S_lo <= S <= S_hi and T_lo <= T <= T_hi when
 * S_lo, S_hi, T_lo and T_hi are computed from lo and hi with the same
 * rounded products.  A uniform below S_lo (T_lo), or at or above S_hi
 * (T_hi), is classified without P.  Only a uniform in [S_lo, S_hi) or
 * [T_lo, T_hi) calls pow: it is classified with Python's own P, S and T,
 * and the bounds are re-anchored at P.  pow is called with Python's
 * operands, so a run takes the outcomes the Python loop takes.
 *
 * Carrying the bounds.  Each probability stream (OFA's AT steps and its BT
 * steps, LFA's AT steps and its BT steps, ALOHA) keeps bounds from its last
 * pow.  Let V = q^n, the exact power of pow's operands.  The bounds keep
 * lo <= V(1 - 2^-51) and hi >= V(1 + 2^-51), so they hold pow's result as
 * long as libm's pow is within 1 ulp (2^-52 relative) of V among normal
 * numbers: glibc documents at most 1 ulp, and that is the one assumption
 * beyond IEEE 754 arithmetic.  At a pow, lo = P(1 - 2^-40), hi = P(1 + 2^-40).
 * When (p, m) changes to (p', m'), n' is n or n - 1 (a stream moves at every
 * reception), V' = V / q^(n - n') * (q'/q)^n', and with x = n' log(q'/q) and
 * y = q'/q - 1, y/(1+y) <= log(1+y) <= y gives
 *     n'(q' - q)/q' <= x <= n'(q' - q)/q,
 * and 1 + x <= e^x <= 1 + x + x^2 holds for |x| <= 1/2.  A move with x
 * outside [-1/2, 1/2] leaves the bounds unknown, [0, inf), and the stream's
 * next uniform calls pow.  Each move multiplies lo by 1 - 2^-40 and hi by
 * 1 + 2^-40, far more than its handful of roundings (2^-53 each) and
 * libm's error need.
 *
 * Tiny values.  The bounds are relative, and relative errors hold only among
 * normal numbers: pow's result below 2^-1022 may be off by an ulp of 2^-1074,
 * and bounds carried from a result of 0 would stay 0 while V grows.  So a
 * lower bound below 2^-960 becomes 0 and an upper bound below 2^-960 becomes
 * 2^-960, which keeps every carried bound normal.  Such a stream classifies
 * every nonzero uniform as a collision without pow, until V grows into the
 * range the uniforms can tell apart.
 *
 * One-fail Adaptive's AT steps.  Between receptions kappa grows by 1 a step,
 * so q only grows and m stays.  The step's bounds follow from the stream's
 * anchor (q_a, n) by multiplies alone: 0 <= n(q - q_a) <= x <= n(q - q_a)/q_a
 * with n/q_a computed at the anchor.  A reception moves both OFA streams at
 * once, and the BT probability's log2 is taken once per reception.
 *
 * The tally.  A draw sets a success flag (u below the success threshold)
 * and a success-or-silence flag (u below the sum) from compares, and adds
 * their difference to the silences.  Successes and collisions follow from
 * the remaining messages and the slots at the call's end.  A three-way
 * branch on a uniform mispredicts about once a slot; the flags do not.
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
    /* The pow calls the run's thresholds took (read by the tests). */
    int64_t exact;
    /* The run's seed and generator. */
    pcg64_stream stream;
} fair_run;

/* The relative slack each move of the bounds adds. */
#define MARGIN 0x1p-40
/* Bounds below this are not carried relatively. */
#define TINY 0x1p-960

/* Python's max(a, b) and min(a, b): the first argument wins ties. */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* A probability stream at (p, m): q = 1 - p, n = m - 1, mp = m*p, bounds
 * lo <= pow(q, n) <= hi (hi = INFINITY: unknown), and the bounds on the
 * success threshold and on the sum that they give.  The threshold bounds are
 * exact when p is not in (0, 1) (Python takes no pow there) and after a pow
 * at this (p, m). */
typedef struct {
    double p, q, inv_q, n, mp, lo, hi;
    double success_lo, success_hi, sum_lo, sum_hi;
} stream;

/* Whether u lies between the bounds of a threshold, where only pow can
 * classify it.  The compares are negated so that a NaN bound (an unknown
 * bound times q = 0) counts as unknown. */
static inline int ambiguous(double u, double success_lo, double success_hi, double sum_lo,
                            double sum_hi) {
    return (!(u < success_lo) & !(u >= success_hi)) | (!(u < sum_lo) & !(u >= sum_hi));
}

/* Python's thresholds at (p, m): the success threshold and the sum it
 * compares u with.  Returns pow's result, or -1 when p is not in (0, 1),
 * where Python takes no pow. */
static double exact_thresholds(double p, int64_t m, double *success, double *sum,
                               int64_t *calls) {
    double q, q_pow;
    if (p <= 0.0) {
        *success = 0.0;
        *sum = 1.0;
        return -1.0;
    }
    if (p >= 1.0) {
        *success = *sum = m == 1 ? 1.0 : 0.0;
        return -1.0;
    }
    q = 1.0 - p;
    q_pow = pow(q, (double)(m - 1));
    *calls += 1;
    *success = (double)m * p * q_pow;
    *sum = *success + q_pow * q;
    return q_pow;
}

/* Stores bounds, below 2^-960 as [0, 2^-960]. */
static void set_bounds(stream *s, double lo, double hi) {
    s->lo = lo < TINY ? 0.0 : lo;
    s->hi = hi < TINY ? TINY : hi;
}

/* Bounds at pow's result q_pow, or unknown ones when there is none. */
static void anchor_bounds(stream *s, double q_pow) {
    if (q_pow < 0.0)
        set_bounds(s, 0.0, INFINITY);
    else
        set_bounds(s, q_pow * (1.0 - MARGIN), q_pow * (1.0 + MARGIN));
}

static void set_threshold_bounds(stream *s) {
    s->success_lo = s->mp * s->lo;
    s->success_hi = s->mp * s->hi;
    s->sum_lo = s->success_lo + s->lo * s->q;
    s->sum_hi = s->success_hi + s->hi * s->q;
}

/* Moves the stream to (p, m), where m is its m or one less. */
static void move(stream *s, double p, int64_t m) {
    const double n = (double)(m - 1), q = 1.0 - p, inv_q = 1.0 / q;
    double lo = s->lo, hi = s->hi;
    if (!(p > 0.0 && p < 1.0)) {
        double success, sum;
        exact_thresholds(p, m, &success, &sum, NULL);
        set_bounds(s, 0.0, INFINITY);
        s->success_lo = s->success_hi = success;
        s->sum_lo = s->sum_hi = sum;
        return;
    }
    if (hi < INFINITY) {
        if (n != s->n) {
            lo *= s->inv_q;
            hi *= s->inv_q;
        }
        if (q != s->q) {
            const double step = n * (q - s->q);
            const double x_lo = step * inv_q, x_hi = step * s->inv_q;
            if (x_lo >= -0.5 && x_hi <= 0.5) {
                lo *= 1.0 + x_lo;
                hi *= 1.0 + x_hi + x_hi * x_hi;
            } else {
                lo = 0.0;
                hi = INFINITY;
            }
        }
        lo *= 1.0 - MARGIN;
        hi *= 1.0 + MARGIN;
    }
    s->p = p;
    s->q = q;
    s->inv_q = inv_q;
    s->n = n;
    s->mp = (double)m * p;
    set_bounds(s, lo, hi);
    set_threshold_bounds(s);
}

/* The stream's exact thresholds, from pow, and bounds anchored there. */
static void take_exact(stream *s, int64_t m, int64_t *calls) {
    double success, sum;
    anchor_bounds(s, exact_thresholds(s->p, m, &success, &sum, calls));
    s->success_lo = s->success_hi = success;
    s->sum_lo = s->sum_hi = sum;
}

/* A stream with unknown bounds: its first move leaves them unknown. */
static stream unknown_stream(void) {
    stream s = {0.0, 1.0, 1.0, 0.0, 0.0, 0.0, INFINITY, 0.0, 0.0, 0.0, 0.0};
    return s;
}

/* Classifies u against a stream's threshold bounds, taking pow if need be:
 * *success is whether u is a success, and the result whether it is a
 * success or a silence. */
static inline int classify(stream *s, double u, int64_t m, int64_t *calls, int *success) {
    if (ambiguous(u, s->success_lo, s->success_hi, s->sum_lo, s->sum_hi))
        take_exact(s, m, calls);
    *success = u < s->success_lo;
    return u < s->sum_lo;
}

/* What One-fail Adaptive's AT steps take their bounds from: the AT anchor's
 * bounds widened by one move's margin, and n/q_a. */
static void step_base(const stream *at, double *lo, double *hi, double *scale) {
    *lo = at->lo * (1.0 - MARGIN);
    *hi = at->hi * (1.0 + MARGIN);
    *scale = at->n * at->inv_q;
}

static double ofa_bt_probability(int64_t sigma) {
    return 1.0 / (1.0 + log2((double)(sigma + 1)));
}

/* One-fail Adaptive: AT steps on even slots, p = 1/kappa and kappa + 1
 * after each; BT steps on odd slots, p = 1/(1 + log2(sigma + 1)). */
static void one_fail(fair_run *r, int64_t stop, pcg128 *generator, pcg128 inc) {
    const double delta = r->delta, floor_value = delta + 1.0;
    pcg128 state = *generator;
    int64_t slot = r->slot, m = r->remaining, sigma = r->count;
    int64_t silences = r->silences, last_delivery = r->last_delivery, calls = r->exact;
    double kappa = r->kappa;
    /* The AT anchor and what its steps take their bounds from. */
    stream at = unknown_stream(), bt = unknown_stream();
    double at_lo, at_hi, at_scale;
    move(&at, 1.0 / kappa, m);
    move(&bt, ofa_bt_probability(sigma), m);
    step_base(&at, &at_lo, &at_hi, &at_scale);
    while (slot < stop) {
        int success, either;
        if ((slot & 1) == 0) {
            const double p = 1.0 / kappa, q = 1.0 - p, mp = (double)m * p;
            const double step = q - at.q;
            const double x_lo = step * at.n, x_hi = step * at_scale;
            const double lo = at_lo * (1.0 + x_lo);
            const double hi = x_hi <= 0.5 ? at_hi * (1.0 + x_hi + x_hi * x_hi) : INFINITY;
            double success_lo = mp * lo, sum_lo = success_lo + lo * q;
            const double success_hi = mp * hi, sum_hi = success_hi + hi * q;
            const double u = pcg64_next_double(&state, inc);
            if (ambiguous(u, success_lo, success_hi, sum_lo, sum_hi)) {
                /* Re-anchor the AT stream at this step. */
                anchor_bounds(&at, exact_thresholds(p, m, &success_lo, &sum_lo, &calls));
                at.p = p;
                at.q = q;
                at.inv_q = 1.0 / q;
                step_base(&at, &at_lo, &at_hi, &at_scale);
            }
            success = u < success_lo;
            either = u < sum_lo;
            kappa += 1.0;
            if (success)
                kappa = py_max(kappa - delta - 1.0, floor_value);
        } else {
            either = classify(&bt, pcg64_next_double(&state, inc), m, &calls, &success);
            if (success)
                kappa = py_max(kappa - delta, floor_value);
        }
        silences += either - success;
        slot += 1;
        if (success) {
            last_delivery = slot - 1;
            sigma += 1;
            if (--m == 0)
                break;
            move(&at, 1.0 / kappa, m);
            move(&bt, ofa_bt_probability(sigma), m);
            step_base(&at, &at_lo, &at_hi, &at_scale);
        }
    }
    *generator = state;
    r->slot = slot;
    r->remaining = m;
    r->count = sigma;
    r->silences = silences;
    r->last_delivery = last_delivery;
    r->exact = calls;
    r->kappa = kappa;
}

/* Log-fails Adaptive: step s = slot + 1 is a BT step, p = bt_probability,
 * when floor(s xi_t) > floor((s - 1) xi_t); else an AT step, p = 1/kappa. */
static void log_fails(fair_run *r, int64_t stop, pcg128 *generator, pcg128 inc) {
    const double xi_t = r->xi_t, xi_delta = r->xi_delta, bt_probability = r->bt_probability;
    const int64_t failure_threshold = r->failure_threshold;
    const int64_t max_search_exponent = r->max_search_exponent;
    pcg128 state = *generator;
    int64_t slot = r->slot, m = r->remaining, failures = r->count, search = r->search;
    int64_t silences = r->silences, last_delivery = r->last_delivery, calls = r->exact;
    double kappa = r->kappa, anchor = r->anchor;
    /* floor(s xi_t) of the previous step: a conversion to int64 is floor
     * on [0, 2^62), where every step's product lies. */
    int64_t previous_floor = (int64_t)((double)slot * xi_t);
    stream at = unknown_stream(), bt = unknown_stream();
    move(&at, py_min(1.0, 1.0 / kappa), m);
    move(&bt, bt_probability, m);
    while (slot < stop) {
        const int64_t step_floor = (int64_t)((double)(slot + 1) * xi_t);
        stream *s = step_floor > previous_floor ? &bt : &at;
        int success;
        const int either = classify(s, pcg64_next_double(&state, inc), m, &calls, &success);
        previous_floor = step_floor;
        silences += either - success;
        slot += 1;
        if (success) {
            last_delivery = slot - 1;
            failures = 0;
            kappa = py_max(kappa - 1.0 - xi_delta, 1.0);
            anchor = kappa;
            search = 0;
            if (--m == 0)
                break;
            move(&at, py_min(1.0, 1.0 / kappa), m);
            move(&bt, bt_probability, m);
        } else if (++failures >= failure_threshold) {
            int64_t exponent;
            double magnitude, candidate;
            failures = 0;
            search += 1;
            exponent = (search + 1) / 2;
            if (exponent > max_search_exponent) {
                search = 1;
                exponent = 1;
            }
            magnitude = pow(2.0, (double)exponent);
            candidate = search % 2 == 1 ? anchor * magnitude : anchor / magnitude;
            kappa = py_max(candidate, 1.0);
            move(&at, py_min(1.0, 1.0 / kappa), m);
        }
    }
    *generator = state;
    r->slot = slot;
    r->remaining = m;
    r->count = failures;
    r->search = search;
    r->silences = silences;
    r->last_delivery = last_delivery;
    r->exact = calls;
    r->kappa = kappa;
    r->anchor = anchor;
}

/* Slotted ALOHA: p = 1/max(estimate, 1), the estimate counting receptions
 * down when track_deliveries is set. */
static void aloha(fair_run *r, int64_t stop, pcg128 *generator, pcg128 inc) {
    const int track = r->track_deliveries != 0;
    pcg128 state = *generator;
    int64_t slot = r->slot, m = r->remaining, estimate = r->count;
    int64_t silences = r->silences, last_delivery = r->last_delivery, calls = r->exact;
    stream s = unknown_stream();
    move(&s, 1.0 / (double)(estimate > 1 ? estimate : 1), m);
    while (slot < stop) {
        int success;
        const int either = classify(&s, pcg64_next_double(&state, inc), m, &calls, &success);
        silences += either - success;
        slot += 1;
        if (success) {
            last_delivery = slot - 1;
            if (track)
                estimate = estimate - 1 > 1 ? estimate - 1 : 1;
            if (--m == 0)
                break;
            move(&s, 1.0 / (double)(estimate > 1 ? estimate : 1), m);
        }
    }
    *generator = state;
    r->slot = slot;
    r->remaining = m;
    r->count = estimate;
    r->silences = silences;
    r->last_delivery = last_delivery;
    r->exact = calls;
}

int fair_simulate(fair_run *r) {
    const int64_t first = r->slot, remaining = r->remaining, silences = r->silences;
    const int64_t stop = r->cap - first > r->budget ? first + r->budget : r->cap;
    pcg128 state, inc;
    pcg64_load(&r->stream, &state, &inc);
    switch (r->protocol) {
    case OFA:
        one_fail(r, stop, &state, inc);
        break;
    case LFA:
        log_fails(r, stop, &state, inc);
        break;
    default:
        aloha(r, stop, &state, inc);
    }
    pcg64_save(&r->stream, state);
    r->successes += remaining - r->remaining;
    r->collisions += r->slot - first - (remaining - r->remaining) - (r->silences - silences);
    if (r->remaining == 0)
        return FAIR_SOLVED;
    return r->slot >= r->cap ? FAIR_CAPPED : FAIR_PAUSED;
}
