//! Flip-point tables of the zone-encoding fast paths (see the
//! [module docs](super)): the guard band, the `f64` total-order keys the
//! exact search runs on, the search itself — false position on a rising
//! branch-current difference for a starting point, then galloping and
//! bisection in key order for the exact flip point — the per-sample table
//! of noiseless capture, the per-cell flip-curve table of noisy capture, and
//! the two-point and box checks that settle what the latter leaves in doubt.

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

/// Cells of a flip-curve table, when [`FLIP_TABLE_BYTES`] allows: at 2 MS/s
/// with the paper's noise, 2,048 cells leave 2.5 of a Table I device's 2,400
/// (sample, monitor) pairs in doubt, averaged over 256 devices.
const FLIP_CELLS: usize = 2048;

/// The most bytes the cell rows of one setup's flip-curve table take:
/// 2,048 cells for up to eight monitors (one block of [`LANES`] lanes),
/// fewer cells beyond that. The sentinel row comes on top.
const FLIP_TABLE_BYTES: usize = 256 * 1024;

/// Monitors per block of a flip-curve row: a row holds every monitor's band
/// in blocks of this many lanes, the last block padded.
const LANES: usize = 8;

/// How far the x grid of the flip-curve tables reaches past the noiseless
/// observed stimulus on each side, volts: more than three times the paper's
/// 3σ noise spread of 15 mV. A sample outside the grid is doubtful.
const X_GRID_MARGIN_V: f64 = 0.05;

/// A uniform grid of x cells. Cell `c` spans
/// `[start + c·step, start + (c + 1)·step]`; its band is built from the
/// flip points at the grid points one step past it on each side too, so the
/// grid has `cells + 3` points ([`XGrid::points`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct XGrid {
    start: f64,
    step: f64,
    per_step: f64,
    cells: usize,
}

impl XGrid {
    /// The grid over `[lowest, highest]` widened by [`X_GRID_MARGIN_V`] on
    /// each side, with as many cells as the rows of `monitors` monitors, in
    /// lanes padded to a multiple of [`LANES`], may take, or `None` when the
    /// range is not finite.
    pub(super) fn covering(lowest: f64, highest: f64, monitors: usize) -> Option<Self> {
        let lanes = monitors.max(1).div_ceil(LANES) * LANES;
        let cells = (FLIP_TABLE_BYTES / (16 * lanes)).min(FLIP_CELLS);
        let start = lowest - X_GRID_MARGIN_V;
        let step = (highest + X_GRID_MARGIN_V - start) / cells as f64;
        (start.is_finite() && step.is_finite() && step > 0.0).then(|| XGrid {
            start,
            step,
            per_step: 1.0 / step,
            cells,
        })
    }

    /// The grid points `g_j = start + (j − 1)·step`, `j = 0 ..= cells + 2`:
    /// cell `c` spans `[g_(c+1), g_(c+2)]`.
    pub(super) fn points(&self) -> Vec<f64> {
        (0..self.cells + 3)
            .map(|j| self.start + (j as f64 - 1.0) * self.step)
            .collect()
    }

    /// The lowest and highest grid point.
    pub(super) fn span(&self) -> (f64, f64) {
        (
            self.start - self.step,
            self.start + (self.cells as f64 + 1.0) * self.step,
        )
    }

    /// The grid step, volts.
    pub(super) fn step(&self) -> f64 {
        self.step
    }
}

/// One block of a flip-curve row: the `[lo, hi]` bands of up to [`LANES`]
/// monitors, a lane each.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    lo: [f64; LANES],
    hi: [f64; LANES],
}

impl Lanes {
    /// Lanes that decide nothing: `[−∞, +∞]` holds every y, and no compare
    /// of [`YThresholds::beyond`] holds against an infinite end. The padded
    /// lanes of a row and every lane of the sentinel row read so.
    const UNDECIDED: Lanes = Lanes {
        lo: [f64::NEG_INFINITY; LANES],
        hi: [f64::INFINITY; LANES],
    };

    /// [`YThresholds::beyond`] of `y` against every lane, as two words: bit
    /// `j` of the first is set when y lies more than `bound` above lane `j`'s
    /// band, bit `j` of the second when it lies more than `bound` below.
    #[inline(always)]
    fn beyond(&self, y: f64, bound: f64) -> (u32, u32) {
        let (mut above, mut under) = (0u32, 0u32);
        for (j, (&lo, &hi)) in self.lo.iter().zip(&self.hi).enumerate() {
            let (over, below) = YThresholds::beyond([lo, hi], y, bound);
            above |= u32::from(over) << j;
            under |= u32::from(below) << j;
        }
        (above, under)
    }
}

/// The flip-curve tables of one setup: every monitor's flip curve y\*(x) on
/// an [`XGrid`], as a band per cell that holds the flip point of every x in
/// the cell or within one grid step of it, widened by [`GUARD_ULPS`].
#[derive(Debug, Clone)]
pub(super) struct FlipCurves {
    grid: XGrid,
    /// How close two x on the grid must be for libm `exp` to reverse the
    /// order of an X-gate current: the widest span of any X gate, below a
    /// thousandth of a step.
    reversal: f64,
    /// Bit `m` is set for every monitor `m`.
    monitor_mask: u32,
    /// Bit `m` is monitor `m`'s bit for y below its bands; above them it
    /// reads the opposite.
    below: u32,
    /// Blocks of [`LANES`] lanes per row.
    blocks: usize,
    /// One row per cell, then the sentinel row, which stands for an x
    /// outside the grid or not finite: row `r` is blocks
    /// `r·blocks .. (r + 1)·blocks`, and monitor `m` is lane `m % LANES` of
    /// block `m / LANES`. Padded lanes and the sentinel row are
    /// [`Lanes::UNDECIDED`].
    rows: Vec<Lanes>,
}

impl FlipCurves {
    /// Assembles the tables from each monitor's flip points at the grid
    /// points of `grid` ([`YThresholds::build`] over [`XGrid::points`]). A
    /// cell's band is the hull of the four point bands from one grid point
    /// below the cell to one above it. `reversal` is the widest `exp`
    /// reversal span of the X gates on the grid.
    pub(super) fn new(grid: XGrid, points: Vec<YThresholds>, reversal: f64) -> Self {
        let blocks = points.len().max(1).div_ceil(LANES);
        let mut rows = vec![Lanes::UNDECIDED; (grid.cells + 1) * blocks];
        let (mut monitor_mask, mut below) = (0, 0);
        for (m, points) in points.into_iter().enumerate() {
            monitor_mask |= 1 << m;
            below |= u32::from(points.below) << m;
            for (cell, window) in points.bands.windows(4).enumerate() {
                let [lo, hi] = window
                    .iter()
                    .fold([f64::INFINITY, f64::NEG_INFINITY], |[lo, hi], &[l, h]| {
                        [lo.min(l), hi.max(h)]
                    });
                let lanes = &mut rows[cell * blocks + m / LANES];
                (lanes.lo[m % LANES], lanes.hi[m % LANES]) = (lo, hi);
            }
        }
        FlipCurves {
            grid,
            reversal,
            monitor_mask,
            below,
            blocks,
            rows,
        }
    }

    /// The x grid.
    #[cfg(test)]
    pub(super) fn grid(&self) -> &XGrid {
        &self.grid
    }

    /// The lowest and highest grid point: the x range a [`box_check`] may
    /// probe.
    pub(super) fn span(&self) -> (f64, f64) {
        self.grid.span()
    }

    /// The half-width in x of the [`box_check`] of a sample whose x lies
    /// within `x_gap` of the exact path's: `x_gap` plus the `exp` reversal
    /// span, rounded up. `None` unless `x_gap` is below half a grid step,
    /// which keeps the exact x within a step of the computed x's cell, where
    /// [`FlipCurves::decide`]'s bands hold its flip point: the cell lookup
    /// rounds by a few ulps and a reversal spans under a thousandth of a
    /// step, so half a step of slack covers both.
    pub(super) fn box_reach(&self, x_gap: f64) -> Option<f64> {
        (x_gap < self.grid.step / 2.0).then(|| (x_gap + self.reversal) * (1.0 + 1.0 / (1u64 << 20) as f64))
    }

    /// Monitor `m`'s bit for y below its bands.
    #[cfg(test)]
    pub(super) fn below(&self, m: usize) -> bool {
        self.below >> m & 1 == 1
    }

    /// Monitor `m`'s band in row `row` (a cell, or the sentinel row).
    #[cfg(test)]
    pub(super) fn band(&self, row: usize, m: usize) -> [f64; 2] {
        let lanes = &self.rows[row * self.blocks + m / LANES];
        [lanes.lo[m % LANES], lanes.hi[m % LANES]]
    }

    /// The row of every x in `x`, into `rows`: its cell, or the sentinel row
    /// for an x outside the grid or not finite. One branch-free pass over
    /// the samples, ahead of [`FlipCurves::decide`], so that the decision
    /// loop reads its rows without a lookup.
    pub(super) fn rows_of(&self, x: &[f64], rows: &mut Vec<u32>) {
        let XGrid {
            start, per_step, cells, ..
        } = self.grid;
        // `cells` fits a u32, and so does every cell below it.
        let (limit, sentinel) = (cells as f64, cells as u32);
        rows.clear();
        rows.resize(x.len(), sentinel);
        for (row, &x) in rows.iter_mut().zip(x) {
            let t = (x - start) * per_step;
            *row = if t >= 0.0 && t < limit { t as u32 } else { sentinel };
        }
    }

    /// The bits of every monitor at one sample whose exact x lies in row
    /// `row` ([`FlipCurves::rows_of`]) and whose y is within `bound` of the
    /// exact path's: bit `m` is decided when y lies more than `bound` beyond
    /// monitor `m`'s band in that row ([`YThresholds::beyond`]), every
    /// monitor at once, a block of [`LANES`] lanes per step. Returns the
    /// decided bits and the mask of monitors left in doubt: all of them in
    /// the sentinel row, and any whose widened band holds y or whose compare
    /// a NaN y or bound defeats.
    #[inline]
    pub(super) fn decide(&self, row: u32, y: f64, bound: f64) -> (u32, u32) {
        let lanes = &self.rows[row as usize * self.blocks..][..self.blocks];
        let (mut above, mut under) = (0u32, 0u32);
        for (block, lanes) in lanes.iter().enumerate() {
            let (over, below) = lanes.beyond(y, bound);
            above |= over << (block * LANES);
            under |= below << (block * LANES);
        }
        let decided = above | under;
        ((above ^ self.below) & decided, self.monitor_mask & !decided)
    }
}

/// Settles a bit a flip-curve table leaves in doubt. `bit` is the exact
/// slot expression of a monitor with a flip curve at the sample's exact x, and the
/// exact path's y lies within `bound` of `y`. Evaluates `bit` at both ends of
/// `[y − bound, y + bound]`, each moved outward by twice [`GUARD_ULPS`]:
/// when the two agree, every y in the interval has that bit. `None` when
/// they disagree or an end is not finite.
///
/// Why twice the guard. The premise of every table here is that the bit is
/// a step in y up to dips strictly within the guard of a flip key F: it
/// reads its below-value `b` at every key `≤ F − G` and `!b` at every key
/// `≥ F + G`, with `G = GUARD_ULPS`. The exact path's y is a float within
/// `bound` of `y`, and rounding is monotone, so its key lies at least `2G`
/// above the lower end and `2G` below the upper one. If both ends read `b`,
/// the upper end's key is below `F + G`, so the exact y's key is below
/// `F − G`: it reads `b`. If both read `!b`, the lower end's key is above
/// `F − G`, so the exact y's key is above `F + G`: it reads `!b`. With one
/// guard, the upper end could sit at `F + G − 1` reading a dip's `b` while
/// the exact y sits at `F − 1` reading `!b`.
pub(super) fn two_point(bit: impl Fn(f64) -> bool, y: f64, bound: f64) -> Option<bool> {
    let (lo, hi) = (y - bound, y + bound);
    if !(lo.is_finite() && hi.is_finite()) {
        return None;
    }
    let lo = order_key(lo)
        .checked_sub(2 * GUARD_ULPS)
        .filter(|&key| key >= MIN_KEY)?;
    let hi = Some(order_key(hi) + 2 * GUARD_ULPS).filter(|&key| key < POS_INF_KEY)?;
    let low_bit = bit(from_order_key(lo));
    (bit(from_order_key(hi)) == low_bit).then_some(low_bit)
}

/// Settles a bit a flip-curve table leaves in doubt when x, too, is known
/// only within a margin. `bit(x, y)` is the exact slot expression of a
/// monitor with a flip curve, the exact path's x lies within `x_gap` of
/// `x`, its y within `bound` of `y`, and `reach` is at least `x_gap` plus
/// the `exp` reversal span r ([`FlipCurves::box_reach`]). Runs
/// [`two_point`] in y at both ends of `[x − reach, x + reach]`, each rounded
/// outward: when the two agree, every point of the box
/// `[x − x_gap, x + x_gap] × [y − bound, y + bound]` has that bit. `None`
/// when they disagree, either leaves its bit in doubt, or an end lies
/// outside `span`, the grid range over which r holds.
///
/// Why. At each end, [`two_point`] settles the bit for every y of the
/// interval. At a fixed y, the bit is monotone in x up to `exp` reversals:
/// every X gate sits on one branch and rises with its gate, rounded addition
/// and subtraction are monotone, and an X-gate current can fall as x rises
/// only between gate voltages less than r apart. An x in the box lies at
/// least `reach − x_gap ≥ r` from each end, so each X-gate current at x lies
/// between its values at the two ends, and so does the branch-current
/// difference: when both ends give the same bit, so does x. Without the x
/// widening, the flip curve could cross the box between the computed x and
/// the exact one.
pub(super) fn box_check(
    bit: impl Fn(f64, f64) -> bool,
    x: f64,
    reach: f64,
    (lowest, highest): (f64, f64),
    y: f64,
    bound: f64,
) -> Option<bool> {
    let (left, right) = ((x - reach).next_down(), (x + reach).next_up());
    if !(left >= lowest && right <= highest) {
        return None;
    }
    let at_left = two_point(|y| bit(left, y), y, bound)?;
    (two_point(|y| bit(right, y), y, bound)? == at_left).then_some(at_left)
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

    #[test]
    fn two_point_check_survives_any_dip_within_the_guard_band() {
        // A bit that steps up at key F but whose whole dip window, every key
        // strictly within the guard of F, reads the wrong side: the worst
        // case the premise allows.
        let g = GUARD_ULPS;
        let flip = order_key(0.5);
        let bit = |y: f64| {
            let key = order_key(y);
            let stepped = key >= flip;
            if key.abs_diff(flip) < g {
                !stepped
            } else {
                stepped
            }
        };
        let mut decided = 0;
        for bound_ulps in [0u64, 1, 3, 2 * g] {
            for offset in -(4 * g as i64)..=4 * g as i64 {
                let y = from_order_key(flip.saturating_add_signed(offset));
                let bound = bound_ulps as f64 * (0.5f64.next_up() - 0.5);
                let Some(settled) = two_point(bit, y, bound) else {
                    continue;
                };
                decided += 1;
                // Every float within the bound of y reads the settled bit.
                let (lo, hi) = (order_key(y - bound), order_key(y + bound));
                for key in lo..=hi {
                    let at = from_order_key(key);
                    if (at - y).abs() <= bound {
                        assert_eq!(bit(at), settled, "y {y:e} bound {bound:e} at {at:e}");
                    }
                }
            }
        }
        assert!(decided > 4 * g, "only {decided} probes settled");
        // Ends that are not finite settle nothing.
        assert_eq!(two_point(bit, f64::MAX, f64::MAX), None);
        assert_eq!(two_point(bit, 0.5, f64::NAN), None);
        assert_eq!(two_point(bit, f64::NAN, 0.0), None);
    }

    #[test]
    fn box_check_survives_any_dip_and_reversal_within_its_margins() {
        // A bit that reads 1 when a y term (its key, dipping by up to
        // G − 1 keys either way) reaches a flip key that climbs three keys
        // of y per key of x, through an x term that wobbles by up to three
        // keys: the bit is a step in y up to dips within the guard, and
        // monotone in x between x eight or more keys apart.
        let g = GUARD_ULPS as i64;
        let (slope, wobble, reversal_keys) = (3i64, [0i64, 3, -3, 1], 8i64);
        let (x0, y0) = (order_key(0.75), order_key(0.625));
        let bit = |x: f64, y: f64| {
            let kx = order_key(x) as i64 - x0 as i64;
            let flip = y0 as i64 + slope * (kx + wobble[kx.rem_euclid(4) as usize]);
            let ky = order_key(y) as i64;
            let dip = if ky % 2 == 0 { g - 1 } else { 1 - g };
            ky + dip >= flip
        };
        let ulp = 0.75f64.next_up() - 0.75;
        let span = (0.5, 0.875);
        let mut decided = 0;
        for gap_keys in [0u64, 2, 5] {
            let x_gap = gap_keys as f64 * ulp;
            let reach = (x_gap + reversal_keys as f64 * ulp) * (1.0 + 1.0 / (1u64 << 20) as f64);
            for bound_keys in [0u64, 3] {
                let bound = bound_keys as f64 * ulp;
                for x_offset in -6i64..=6 {
                    let x = from_order_key(x0.saturating_add_signed(x_offset));
                    for y_offset in -90i64..=90 {
                        let y = from_order_key(order_key(0.625).saturating_add_signed(y_offset + 3 * x_offset));
                        let Some(settled) = box_check(bit, x, reach, span, y, bound) else {
                            continue;
                        };
                        decided += 1;
                        // Every float point of the box reads the settled bit.
                        for kx in order_key(x) - gap_keys..=order_key(x) + gap_keys {
                            for ky in order_key(y) - bound_keys..=order_key(y) + bound_keys {
                                let (at_x, at_y) = (from_order_key(kx), from_order_key(ky));
                                assert_eq!(
                                    bit(at_x, at_y),
                                    settled,
                                    "box at ({x}, {y}) gap {x_gap:e} bound {bound:e}: ({at_x}, {at_y})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(decided > 3_000, "only {decided} boxes settled");
        // An end outside the span settles nothing, nor does a reach that is
        // not finite.
        assert_eq!(box_check(bit, 0.75, 0.2, span, 0.0, 0.0), None);
        assert_eq!(box_check(bit, 0.75, f64::NAN, span, 0.0, 0.0), None);
    }
}
