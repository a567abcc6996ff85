//! Per-sample flip-point tables of the noiseless zone-encoding fast path
//! (see the [module docs](super)): the guard band, the `f64` total-order
//! keys the exact search runs on, and the search itself — false position on
//! a rising branch-current difference for a starting point, then galloping
//! and bisection in key order for the exact flip point.

/// Half-width, in units in the last place of y, of the band around each
/// tabulated flip point inside which noiseless capture evaluates the exact
/// slot expression instead of trusting the table.
///
/// The error it covers: the table assumes the Y-gate current never falls as
/// y rises. The level-1 model's arithmetic keeps that promise except through
/// libm `exp`, which is accurate to within one ulp but not guaranteed
/// monotone, so the current may dip by an ulp or two next to a rounding
/// boundary. Wherever the model calls `exp`, one ulp of y moves the current
/// by about an ulp or more, so such a dip can flip the bit only within a few
/// ulps of y of the tabulated point. Sixteen ulps is several times that.
pub(super) const GUARD_ULPS: u64 = 16;

/// Order key of `-inf`; every finite f64 lies strictly between the two keys.
const NEG_INF_KEY: u64 = order_key(f64::NEG_INFINITY);
/// Order key of `+inf`.
pub(super) const POS_INF_KEY: u64 = order_key(f64::INFINITY);
/// Order key of the most negative finite f64, `f64::MIN`.
pub(super) const MIN_KEY: u64 = NEG_INF_KEY + 1;

/// Maps an `f64` to a `u64` whose unsigned order is the float's total order
/// (`-inf < … < -0 < +0 < … < +inf`): neighbouring floats get neighbouring
/// keys, so key distance counts ulps.
pub(super) const fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Inverse of [`order_key`].
pub(super) const fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Per-sample flip points of a monitor with exactly one Y-driven input,
/// valid while x is the shared noiseless observed stimulus.
#[derive(Debug, Clone)]
pub(super) struct YThresholds {
    /// The bit for y below a sample's band; above the band it reads `!below`.
    pub(super) below: bool,
    /// Per sample `[lo, hi]`: the flip point minus and plus [`GUARD_ULPS`].
    pub(super) bands: Vec<[f64; 2]>,
}

impl YThresholds {
    /// Tabulates the flip point of every sample `k` of the shared x stream
    /// `x`. `bit(k, y)` must be a step function of y that reads `below`
    /// below its flip point. `rising(k, y)` rises with y and changes sign at
    /// the flip point (a branch-current difference); it only steers the
    /// search, which `x[k]` starts when no neighbouring flip point is known.
    pub(super) fn build(
        x: &[f64],
        below: bool,
        bit: impl Fn(usize, f64) -> bool,
        rising: impl Fn(usize, f64) -> f64,
    ) -> Self {
        // Neighbouring samples have nearby flip points: each search starts
        // from the line through the previous two interior ones.
        let interior = |key: u64| (key > MIN_KEY && key < POS_INF_KEY).then(|| from_order_key(key));
        let (mut previous, mut before_previous) = (None, None);
        let bands = (0..x.len())
            .map(|k| {
                let above = |y: f64| bit(k, y) != below;
                let flip = match previous {
                    // The neighbour's bit did not depend on y: one evaluation
                    // at the same range end usually confirms this one's does
                    // not either.
                    Some(MIN_KEY) if above(f64::MIN) => MIN_KEY,
                    Some(POS_INF_KEY) if !above(f64::MAX) => POS_INF_KEY,
                    _ => {
                        let (guess, step) = match (previous.and_then(interior), before_previous.and_then(interior)) {
                            (Some(last), Some(older)) if last != older && (2.0 * last - older).is_finite() => {
                                (2.0 * last - older, (last - older).abs())
                            }
                            (Some(last), _) => (last, INITIAL_STEP_V),
                            _ => (x[k], INITIAL_STEP_V),
                        };
                        first_above(above, approximate_root(|y| rising(k, y), guess, step))
                    }
                };
                (before_previous, previous) = (previous, Some(flip));
                let lo = from_order_key(flip.saturating_sub(GUARD_ULPS).max(NEG_INF_KEY));
                let hi = from_order_key((flip + GUARD_ULPS).min(POS_INF_KEY));
                [lo, hi]
            })
            .collect();
        YThresholds { below, bands }
    }

    /// Whether the table decides the bit of a sample with band `[lo, hi]`
    /// at `y`: a finite y below or above the band. The bit is then
    /// `(y > hi) ^ below`; otherwise the exact slot expression decides.
    #[inline]
    pub(super) fn decides([lo, hi]: [f64; 2], y: f64) -> bool {
        ((y < lo) | (y > hi)) & y.is_finite()
    }

    /// Whether `y` lies more than `bound` above the band `[lo, hi]`, and
    /// whether it lies more than `bound` below it:
    /// `(fl(y − hi) > bound, fl(lo − y) > bound)`. For a finite `y` and
    /// `bound`, every y' within `bound` of `y` then lies above, or below,
    /// the band too, so the table decides y' the same way.
    ///
    /// No rounding can erode that margin. Round-to-nearest is monotone and
    /// `bound` is a float, so `y − hi ≤ bound` in exact arithmetic would
    /// give `fl(y − hi) ≤ fl(bound) = bound`: the compare holds only when
    /// `y − hi > bound` exactly. The same goes for `lo − y`. An infinite
    /// band end never compares beyond (`y − inf` is `-inf`), and a NaN y
    /// never does.
    #[inline]
    pub(super) fn beyond([lo, hi]: [f64; 2], y: f64, bound: f64) -> (bool, bool) {
        (y - hi > bound, lo - y > bound)
    }
}

/// First outward step of the flip-point search when no neighbouring flip
/// point is known, volts.
const INITIAL_STEP_V: f64 = 1e-3;

/// Doublings of the outward step before the search gives up bracketing
/// and starts from the finite end of the f64 range instead (reach about
/// 1 kV from an initial step of [`INITIAL_STEP_V`]).
const MAX_EXPANSIONS: usize = 20;

/// Iteration cap of the false-position refinement.
const MAX_REFINEMENTS: usize = 32;

/// A finite estimate of where the rising function `h` (a branch-current
/// difference) crosses zero, for [`first_above`] to start from: outward
/// steps from `guess`, doubling each time, until the sign changes, then
/// Illinois false position on that bracket. Only the search cost depends on
/// the estimate's quality, never the table.
fn approximate_root(h: impl Fn(f64) -> f64, guess: f64, step: f64) -> f64 {
    let (mut a, mut fa) = (guess, h(guess));
    if !(fa != 0.0) {
        return guess; // exactly on the root, or NaN: nothing to bracket
    }
    let mut stride = if fa < 0.0 { step } else { -step };
    let (mut b, mut fb) = (a, fa);
    for _ in 0..MAX_EXPANSIONS {
        b = a + stride;
        if !b.is_finite() || b == a {
            return a;
        }
        fb = h(b);
        if !(fb != 0.0) {
            return b;
        }
        if (fb < 0.0) != (fa < 0.0) {
            break;
        }
        (a, fa) = (b, fb);
        stride *= 2.0;
    }
    if (fb < 0.0) == (fa < 0.0) {
        // No sign change within reach: the flip, if any, is far out, and
        // the exact search starts from the finite end in that direction.
        return if stride > 0.0 { f64::MAX } else { f64::MIN };
    }
    // Illinois: halve the function value of an end kept twice in a row, so
    // the bracket shrinks from both sides.
    let mut kept_a = None;
    for _ in 0..MAX_REFINEMENTS {
        let m = b - fb * (b - a) / (fb - fa);
        if !(m > a.min(b) && m < a.max(b)) {
            break;
        }
        let fm = h(m);
        if !(fm != 0.0) {
            return m;
        }
        if (fm < 0.0) == (fb < 0.0) {
            (b, fb) = (m, fm);
            if kept_a == Some(true) {
                fa *= 0.5;
            }
            kept_a = Some(true);
        } else {
            (a, fa) = (m, fm);
            if kept_a == Some(false) {
                fb *= 0.5;
            }
            kept_a = Some(false);
        }
    }
    if fa.abs() < fb.abs() {
        a
    } else {
        b
    }
}

/// The order key ([`order_key`]) of the smallest finite y at which the
/// monotone predicate `above` holds, or of `+inf` when it holds at no finite
/// y. Gallops outward from `start` with doubling key steps until it brackets
/// the flip, then bisects the bracket in key order. Every probe is a finite
/// float, and key arithmetic stays inside `[NEG_INF_KEY, POS_INF_KEY]`, so
/// it cannot overflow.
fn first_above(above: impl Fn(f64) -> bool, start: f64) -> u64 {
    let at = |key: u64| above(from_order_key(key));
    let (first, last) = (MIN_KEY, POS_INF_KEY - 1);
    let start = order_key(start).clamp(first, last);
    // Invariant: `above` fails at `low` and holds at `high`; the infinity
    // keys stand for "no finite key found yet".
    let (mut low, mut high) = (NEG_INF_KEY, POS_INF_KEY);
    let mut step = 1u64;
    if at(start) {
        high = start;
        while high > first {
            let probe = high.saturating_sub(step).max(first);
            if at(probe) {
                high = probe;
                step = step.saturating_mul(2);
            } else {
                low = probe;
                break;
            }
        }
    } else {
        low = start;
        while low < last {
            let probe = low.saturating_add(step).min(last);
            if at(probe) {
                high = probe;
                break;
            }
            low = probe;
            step = step.saturating_mul(2);
        }
    }
    while high - low > 1 {
        let mid = low + (high - low) / 2;
        if at(mid) {
            high = mid;
        } else {
            low = mid;
        }
    }
    high
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_keys_count_ulps_across_the_whole_range() {
        assert_eq!(order_key(f64::MIN), MIN_KEY);
        assert_eq!(order_key(f64::MAX) + 1, POS_INF_KEY);
        assert_eq!(order_key(-0.0) + 1, order_key(0.0));
        assert_eq!(order_key(0.0) + 1, order_key(f64::from_bits(1)));
        for v in [
            f64::MIN,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            5e-324,
            0.25,
            1.0,
            f64::MAX,
        ] {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
            assert_eq!(from_order_key(order_key(v) + 1).to_bits(), v.next_up().to_bits(), "{v}");
        }
    }

    #[test]
    fn first_above_finds_flips_anywhere_without_key_overflow() {
        // Far-apart brackets are where a midpoint sum would overflow.
        for (flip, start) in [
            (-1e300, 1e300),
            (1e300, -1e300),
            (-1.0, f64::MAX),
            (0.5, f64::MIN),
            (1e-300, -1e-300),
        ] {
            assert_eq!(
                first_above(|y| y >= flip, start),
                order_key(flip),
                "flip {flip} from {start}"
            );
        }
        // Across the signed zeros: -0.0 is the first y with y >= 0.
        assert_eq!(first_above(|y| y >= 0.0, 1.0), order_key(-0.0));
        assert_eq!(first_above(|y| y > 0.0, -1.0), order_key(5e-324));
        // Above everywhere or nowhere: the finite range ends.
        assert_eq!(first_above(|_| true, 0.5), MIN_KEY);
        assert_eq!(first_above(|_| false, 0.5), POS_INF_KEY);
    }
}
