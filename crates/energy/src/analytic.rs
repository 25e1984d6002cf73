//! Closed-form RC charging arithmetic for span-batched fleet stepping.
//!
//! A reduced-order tag between RF events is a first-order RC system: a
//! Thévenin source (the rectified field) charging a capacitor against a
//! piecewise-constant load. Instead of micro-stepping the integrator,
//! the fleet path advances every tag *analytically* from one slot
//! boundary to the next:
//!
//! ```text
//! v(t) = v_inf + (v0 - v_inf) · e^(−t/τ)        τ = R·C
//! ```
//!
//! and solves the same equation for threshold-crossing times (turn-on
//! at `v_on`, brown-out at `v_off`), so a span of milliseconds costs
//! a few flops per tag rather than thousands of Euler steps.
//!
//! The arithmetic is split so that nodes sharing `τ` and a span share
//! its exponential: [`rc_decay`] computes `e^(−dt/τ)` once, [`rc_settle`]
//! applies it to one node, and [`rc_advance`] is exactly the two
//! composed — so a caller that hoists the decay factor out of a loop
//! runs the same operation sequence per node as one that calls
//! [`rc_advance`], by construction. [`rc_span_misses`] is the matching
//! crossing pre-filter: it proves from the settled voltage alone, with
//! no `ln`, that a span ended short of a threshold.
//!
//! Determinism note: `exp`/`ln` come from [`exp_det`]/[`ln_det`], not
//! libm. The libm transcendentals are allowed to differ in the last ulp
//! between libc versions, which would break the fleet's bit-identical
//! golden-manifest gate across machines; these implementations use only
//! IEEE-754 `+ − × ÷` (which are exactly specified everywhere) plus
//! exact exponent manipulation, so a fleet trial reproduces bit-for-bit
//! on any host.

/// ln(2), split head/tail so `k·ln2` subtracts exactly. The head is
/// written to its full decimal expansion so the bit pattern (trailing
/// mantissa zeroed for the exact multiply) is auditable.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
const LOG2_E: f64 = std::f64::consts::LOG2_E;

/// Deterministic `e^x` built from IEEE-exact operations only.
///
/// Range-reduces `x = k·ln2 + r` with `|r| ≤ ln2/2`, evaluates a
/// degree-11 Taylor polynomial in `r` (error far below 1 ulp of the
/// ~1e-14 relative band we need), and scales by `2^k` through exponent
/// bits. Accurate to better than 1e-14 relative over the range the
/// energy model uses; bit-identical on every IEEE-754 platform.
pub fn exp_det(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x > 709.0 {
        return f64::INFINITY;
    }
    if x < -745.0 {
        return 0.0;
    }
    let k = (x * LOG2_E).round();
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // Horner evaluation of Σ rⁿ/n!, n = 0..=11.
    let mut p = 1.0 / 39_916_800.0; // 1/11!
    for inv_fact in [
        1.0 / 3_628_800.0,
        1.0 / 362_880.0,
        1.0 / 40_320.0,
        1.0 / 5_040.0,
        1.0 / 720.0,
        1.0 / 120.0,
        1.0 / 24.0,
        1.0 / 6.0,
        0.5,
        1.0,
        1.0,
    ] {
        p = p * r + inv_fact;
    }
    scale_by_pow2(p, k as i64)
}

/// Deterministic natural log from IEEE-exact operations only.
///
/// Decomposes `x = m·2^e` with `m ∈ [√½, √2)`, then evaluates
/// `ln m = 2·atanh(t)`, `t = (m−1)/(m+1)` by its odd Taylor series
/// (`|t| < 0.1716`, 13 terms ≫ enough). Returns NaN for negative
/// input, −∞ for zero.
pub fn ln_det(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x.is_infinite() {
        return f64::INFINITY;
    }
    let bits = x.to_bits();
    let (mut e, mut m) = if bits >> 52 == 0 {
        // Subnormal: renormalize through an exact 2^64 multiply.
        let y = x * 18_446_744_073_709_551_616.0;
        ((y.to_bits() >> 52) as i64 - 1023 - 64, y)
    } else {
        ((bits >> 52) as i64 - 1023, x)
    };
    m = f64::from_bits((m.to_bits() & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut s = 1.0 / 25.0;
    for k in (0..12).rev() {
        s = s * t2 + 1.0 / (2 * k + 1) as f64;
    }
    2.0 * t * s + (e as f64) * LN2_HI + (e as f64) * LN2_LO
}

/// Exact scaling by `2^k` via exponent arithmetic (handles the
/// subnormal underflow tail with one extra exact multiply).
fn scale_by_pow2(x: f64, k: i64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let e = ((x.to_bits() >> 52) & 0x7FF) as i64 + k;
    if e >= 0x7FF {
        return f64::INFINITY * x.signum();
    }
    if e <= 0 {
        // Land in (or below) the subnormal range: scale to e+64 first
        // (exact), then divide by 2^64 (correctly rounded).
        if e < -64 {
            return 0.0;
        }
        let partial =
            f64::from_bits((x.to_bits() & !0x7FF0_0000_0000_0000) | (((e + 64) as u64) << 52));
        return partial / 18_446_744_073_709_551_616.0;
    }
    f64::from_bits((x.to_bits() & !0x7FF0_0000_0000_0000) | ((e as u64) << 52))
}

/// The decay factor `e^(−dt/τ)` of an RC span of `dt` seconds: the
/// share of `v0 − v_inf` still left at the span's end. It depends on
/// neither voltage, so every node with the same `τ` shares it.
#[inline]
pub fn rc_decay(tau: f64, dt: f64) -> f64 {
    exp_det(-dt / tau)
}

/// Settles a node from `v0` toward `v_inf` by a span whose
/// [`rc_decay`] factor is `decay`: `v_inf + (v0 − v_inf)·decay`.
#[inline]
pub fn rc_settle(v0: f64, v_inf: f64, decay: f64) -> f64 {
    v_inf + (v0 - v_inf) * decay
}

/// Advances a first-order RC node `dt` seconds toward its asymptote.
///
/// `v0` is the present voltage, `v_inf` the loaded equilibrium
/// (`v_oc − i_load·R` for a Thévenin source with a constant load), and
/// `tau` the time constant `R·C`. `dt ≤ 0` returns `v0` unchanged.
/// Otherwise this is `rc_settle(v0, v_inf, rc_decay(tau, dt))`, bit for
/// bit.
pub fn rc_advance(v0: f64, v_inf: f64, tau: f64, dt: f64) -> f64 {
    debug_assert!(tau > 0.0, "time constant must be positive");
    if dt <= 0.0 {
        return v0;
    }
    rc_settle(v0, v_inf, rc_decay(tau, dt))
}

/// True when a node at `v0 − v_inf = from` can never reach the target
/// at `v_target − v_inf = to`: the target is the asymptote or `v0`
/// itself, lies on the other side of the asymptote, or is no closer to
/// it than `v0`.
#[inline]
fn never_reaches(from: f64, to: f64) -> bool {
    from == 0.0 || to == 0.0 || (from > 0.0) != (to > 0.0) || to.abs() >= from.abs()
}

/// Time for the node to reach `v_target`, or `None` when it never will
/// (the target is not strictly between `v0` and the asymptote).
///
/// Solves `v_target = v_inf + (v0 − v_inf)·e^(−t/τ)` for `t`:
/// `t = τ · ln((v0 − v_inf)/(v_target − v_inf))`.
pub fn rc_time_to(v0: f64, v_inf: f64, tau: f64, v_target: f64) -> Option<f64> {
    debug_assert!(tau > 0.0, "time constant must be positive");
    let from = v0 - v_inf;
    let to = v_target - v_inf;
    if never_reaches(from, to) {
        return None;
    }
    let t = tau * ln_det(from / to);
    (t >= 0.0).then_some(t)
}

/// How far short of a threshold a settled voltage must stop for
/// [`rc_span_misses`] to declare the span crossing-free (V).
pub const RC_MISS_MARGIN: f64 = 1e-9;

/// True when a span that settled a node from `v0` to `v_end` (toward
/// `v_inf`) provably did not reach `v_target`, so that
/// `rc_time_to(v0, v_inf, τ, v_target)` is `None` or a time past the
/// span's end. Needs no `ln`.
///
/// Either the target is unreachable by the same test [`rc_time_to`]
/// makes, or `v_end` stops short of it by at least
/// [`RC_MISS_MARGIN`] = `M`. The margin makes the second case exact,
/// not approximate. Write `to = v_target − v_inf` and
/// `δ = v_end − v_target` (on `to`'s side, `|δ| ≥ M`). The true
/// crossing then lies `τ·ln(1 + δ/to)` past the span's end, which is
/// at least `τ·M/|v0 − v_inf|`: 8.8e-12 s for `τ` = 70.5 ms and
/// `|v0 − v_inf|` ≤ 8 V. The computed crossing time differs from the
/// true one only through a few ulps (~1e-15 V) of rounding in
/// `v0 − v_inf`, `to` and `v_end`, and the last-place error of
/// `τ·ln_det(…)`. That moves it by at most `τ·ln(1 + 1e-15/|to|)`
/// (about 1e-17 s where the gap is smallest), always less than the gap
/// `τ·ln(1 + M/|to|)` because `M` ≫ 1e-15 V. So whenever this returns
/// true, `rc_time_to` returns `None` or a time past the span.
#[inline]
pub fn rc_span_misses(v0: f64, v_inf: f64, v_target: f64, v_end: f64) -> bool {
    let from = v0 - v_inf;
    // `from.signum()` is ±1, so the product is exact: the distance
    // `v_end` still has to travel before it reaches the target.
    never_reaches(from, v_target - v_inf) || (v_end - v_target) * from.signum() >= RC_MISS_MARGIN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_det_tracks_libm_tightly() {
        let mut x = -700.0;
        while x < 700.0 {
            let (a, b) = (exp_det(x), x.exp());
            let tol = 1e-13 * b.abs() + 1e-300;
            assert!((a - b).abs() <= tol, "exp({x}): {a} vs {b}");
            x += 0.618;
        }
        assert_eq!(exp_det(0.0), 1.0);
        assert_eq!(exp_det(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_det(800.0), f64::INFINITY);
        assert!(exp_det(f64::NAN).is_nan());
    }

    #[test]
    fn ln_det_tracks_libm_tightly() {
        for &x in &[
            1e-308, 1e-12, 0.1, 0.5, 1.0, 1.0000001, 2.0, 3.7, 1e6, 1e300,
        ] {
            let (a, b) = (ln_det(x), x.ln());
            assert!(
                (a - b).abs() <= 1e-13 * b.abs().max(1.0),
                "ln({x}): {a} vs {b}"
            );
        }
        assert_eq!(ln_det(1.0), 0.0);
        assert_eq!(ln_det(0.0), f64::NEG_INFINITY);
        assert!(ln_det(-1.0).is_nan());
        // Subnormal inputs go through the renormalization path.
        let sub = f64::from_bits(1234);
        assert!((ln_det(sub) - sub.ln()).abs() < 1e-10);
    }

    #[test]
    fn exp_and_ln_are_inverses() {
        for &x in &[-50.0, -3.2, -0.001, 0.0, 0.5, 7.0, 80.0] {
            assert!((ln_det(exp_det(x)) - x).abs() < 1e-12 * x.abs().max(1.0));
        }
    }

    #[test]
    fn rc_advance_matches_fine_euler_integration() {
        // The analytic span must agree with the micro-stepped integrator
        // the single-tag path uses, to integration tolerance.
        let (v_oc, r, c) = (3.2, 1500.0, 47e-6);
        let i_load = 0.4e-3;
        let v_inf = v_oc - i_load * r;
        let tau = r * c;
        let mut v = 1.9;
        let dt = 1e-7;
        let span = 0.012;
        let steps = (span / dt) as u64;
        for _ in 0..steps {
            let i_in = (v_oc - v) / r;
            v += (i_in - i_load) * dt / c;
        }
        let analytic = rc_advance(1.9, v_inf, tau, span);
        assert!(
            (v - analytic).abs() < 1e-4,
            "euler {v} vs analytic {analytic}"
        );
    }

    #[test]
    fn rc_time_to_inverts_rc_advance() {
        let (v0, v_inf, tau) = (1.9, 2.8, 1500.0 * 47e-6);
        let t = rc_time_to(v0, v_inf, tau, 2.4).expect("reachable");
        let back = rc_advance(v0, v_inf, tau, t);
        assert!((back - 2.4).abs() < 1e-12, "{back}");
        // Unreachable targets: behind the start, past the asymptote, or
        // on the other side entirely.
        assert_eq!(rc_time_to(v0, v_inf, tau, 1.5), None);
        assert_eq!(rc_time_to(v0, v_inf, tau, 2.9), None);
        assert_eq!(rc_time_to(2.4, 1.8, tau, 2.5), None);
        // Discharge direction works symmetrically.
        let t = rc_time_to(2.4, 1.2, tau, 1.8).expect("discharges");
        assert!((rc_advance(2.4, 1.2, tau, t) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn rc_advance_is_settle_of_decay_bit_for_bit() {
        let tau = 1500.0 * 47e-6;
        for &(v0, v_inf, dt) in &[(1.9, 3.2, 1e-6), (2.6, 0.2, 3e-3), (0.0, 6.4, 0.7)] {
            let hoisted = rc_settle(v0, v_inf, rc_decay(tau, dt));
            assert_eq!(rc_advance(v0, v_inf, tau, dt).to_bits(), hoisted.to_bits());
        }
    }

    #[test]
    fn span_misses_agrees_with_rc_time_to() {
        let tau = 1500.0 * 47e-6;
        let (v_inf, v_on) = (3.2, 2.4);
        // Charging from 2.3 V: 1 µs ends far short of v_on.
        let dt = 1e-6;
        let v_end = rc_advance(2.3, v_inf, tau, dt);
        assert!(rc_span_misses(2.3, v_inf, v_on, v_end));
        assert!(rc_time_to(2.3, v_inf, tau, v_on).unwrap() > dt);
        // A span that ends exactly at the crossing is not declared a miss.
        let t = rc_time_to(2.3, v_inf, tau, v_on).unwrap();
        assert!(!rc_span_misses(
            2.3,
            v_inf,
            v_on,
            rc_advance(2.3, v_inf, tau, t)
        ));
        // Starting within the margin of the threshold falls back too.
        assert!(!rc_span_misses(v_on - 1e-12, v_inf, v_on, v_on - 1e-12));
        // Unreachable targets are misses whatever the span: behind the
        // start, past the asymptote, the asymptote itself.
        assert!(rc_span_misses(2.5, v_inf, v_on, 3.1));
        assert!(rc_span_misses(2.3, 2.2, v_on, 2.2));
        assert!(rc_span_misses(2.3, v_on, v_on, 2.39));
        // Discharge direction is symmetric.
        let v_end = rc_advance(2.0, 0.2, tau, 1e-3);
        assert!(rc_span_misses(2.0, 0.2, 1.8, v_end));
        assert!(!rc_span_misses(
            2.0,
            0.2,
            1.8,
            rc_advance(2.0, 0.2, tau, 1.0)
        ));
    }

    #[test]
    fn zero_or_negative_dt_is_identity() {
        assert_eq!(rc_advance(2.0, 3.0, 0.07, 0.0), 2.0);
        assert_eq!(rc_advance(2.0, 3.0, 0.07, -1.0), 2.0);
    }
}
