//! The busy-period fixed-point machinery shared by SA/PM and IEERT.
//!
//! Both analyses repeatedly solve equations of the shape
//!
//! ```text
//! t = offset + Σ_k ⌈(t + J_k) / p_k⌉ · c_k          (smallest t > 0)
//! ```
//!
//! where each *demand term* `k` is a (possibly jittered) periodic
//! interferer: period `p_k`, execution `c_k`, release jitter `J_k`
//! (`J_k = 0` recovers Lehoczky's classic analysis; IEERT uses the
//! predecessor's IEER bound as the jitter, which is exactly the clumping
//! correction of the paper's Figure 10).
//!
//! The demand on the right-hand side is a monotone non-decreasing step
//! function of `t`, so the iteration `t ← offset + W(t)` starting from
//! `W(0⁺)` either converges to the **least** fixed point or grows past any
//! cap; [`fixed_point_with_hint_counted`] reports which.
//!
//! # Examples
//!
//! Response time of the low-priority subtask `T_{2,1}` of the paper's
//! Example 2 on processor `P₁`: interference from `T₁` (period 4, c 2),
//! own cost 2 ⇒ `R = 4`.
//!
//! ```
//! use rtsync_core::analysis::busy_period::{fixed_point, DemandTerm, FixedPointLimits};
//! use rtsync_core::time::Dur;
//!
//! let interference = [DemandTerm::periodic(Dur::from_ticks(4), Dur::from_ticks(2))];
//! let limits = FixedPointLimits::new(Dur::from_ticks(10_000), 1_000);
//! let completion = fixed_point(Dur::from_ticks(2), &interference, limits).unwrap();
//! assert_eq!(completion, Dur::from_ticks(4));
//! ```

use crate::time::Dur;

/// One periodic (optionally jittered) contributor to processor demand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DemandTerm {
    /// The contributor's period `p_k`.
    pub period: Dur,
    /// Its per-instance execution time `c_k`.
    pub execution: Dur,
    /// Its release jitter `J_k`: the contributor may release up to `J_k`
    /// ticks later than its periodic schedule, which *advances* demand seen
    /// inside a busy window (`⌈(t + J)/p⌉` instances by time `t`).
    pub jitter: Dur,
}

impl DemandTerm {
    /// A strictly periodic term (zero jitter).
    pub fn periodic(period: Dur, execution: Dur) -> DemandTerm {
        DemandTerm {
            period,
            execution,
            jitter: Dur::ZERO,
        }
    }

    /// A jittered term, as used by IEERT.
    pub fn jittered(period: Dur, execution: Dur, jitter: Dur) -> DemandTerm {
        DemandTerm {
            period,
            execution,
            jitter,
        }
    }

    /// Demand this term contributes to a window of length `t`:
    /// `⌈(t + jitter)/period⌉ · execution`. `None` on `i64` overflow.
    pub fn demand(&self, t: Dur) -> Option<Dur> {
        let n = t.checked_add(self.jitter)?.ceil_div(self.period);
        self.execution.checked_mul(n)
    }
}

/// Caps for a fixed-point search.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FixedPointLimits {
    /// Abandon the search once the iterate exceeds this value.
    pub cap: Dur,
    /// Abandon the search after this many iterations.
    pub max_iterations: u64,
}

impl FixedPointLimits {
    /// Creates limits.
    pub fn new(cap: Dur, max_iterations: u64) -> FixedPointLimits {
        FixedPointLimits {
            cap,
            max_iterations,
        }
    }
}

/// Why a fixed-point search gave up. Mapped to
/// [`crate::error::AnalyzeError`] by the calling analysis, which knows the
/// subtask being analyzed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FixedPointFailure {
    /// The iterate exceeded the cap — the bound is treated as infinite.
    ExceedsCap,
    /// The iteration budget ran out before convergence or cap.
    IterationLimit,
    /// `i64` tick arithmetic overflowed while evaluating demand.
    Overflow,
}

/// Solves `t = offset + Σ_k ⌈(t + J_k)/p_k⌉·c_k` for the least `t > 0`,
/// starting cold: [`fixed_point_with_hint_counted`] with a zero hint and
/// the iteration count dropped.
///
/// # Errors
///
/// Identical to [`fixed_point_with_hint_counted`].
pub fn fixed_point(
    offset: Dur,
    terms: &[DemandTerm],
    limits: FixedPointLimits,
) -> Result<Dur, FixedPointFailure> {
    fixed_point_with_hint_counted(Dur::ZERO, offset, terms, limits).map(|(t, _)| t)
}

/// Solves `t = offset + Σ_k ⌈(t + J_k)/p_k⌉·c_k` for the least `t > 0`,
/// starting from `hint` when that is larger than the natural starting
/// point, and returns the fixed point with the number of iterations the
/// search took.
///
/// The natural start is `t₀ = offset + W(0⁺)` (every term contributes
/// `⌊J/p⌋ + 1` instances at `0⁺`); the search iterates `t ← offset + W(t)`
/// from `max(t₀, hint)`. Monotone convergence to the least fixed point is
/// guaranteed when one exists below the cap and `hint` does not exceed it
/// (a zero hint always qualifies). A larger hint may return a larger
/// fixed point. SA/PM hints each instance with the previous instance's
/// completion time (`C(m−1) ≤ C(m)` for the monotone per-instance
/// equations). The IEERT kernel also hints with the busy period and
/// completions of the previous sweep, which are valid because the
/// jitters only grow between sweeps; see [`crate::analysis::ieert`].
///
/// # Errors
///
/// * [`FixedPointFailure::ExceedsCap`] if the iterate passes `limits.cap`;
/// * [`FixedPointFailure::IterationLimit`] if the budget runs out;
/// * [`FixedPointFailure::Overflow`] on `i64` overflow.
///
/// # Panics
///
/// Panics (via [`Dur::ceil_div`]) if any term has a non-positive period;
/// the [`crate::task::TaskSet`] invariants rule that out.
pub fn fixed_point_with_hint_counted(
    hint: Dur,
    offset: Dur,
    terms: &[DemandTerm],
    limits: FixedPointLimits,
) -> Result<(Dur, u64), FixedPointFailure> {
    debug_assert!(offset.is_positive() || !terms.is_empty());
    // W(0⁺): evaluating the ceilings at t = 1 tick yields exactly
    // ⌊J/p⌋ + 1 per term, the demand of an instant after the origin.
    let start = demand_at(offset, terms, Dur::from_ticks(1))?;
    let mut t = start.max(hint);
    if t <= Dur::from_ticks(1) {
        // offset + first instances fit in one tick: t is its own fixed point.
        return Ok((t, 0));
    }
    for i in 0..limits.max_iterations {
        if t > limits.cap {
            return Err(FixedPointFailure::ExceedsCap);
        }
        let next = demand_at(offset, terms, t)?;
        if next <= t {
            // `next < t` can only happen when the hint overshot W's value at
            // t while still being ≤ the least fixed point; t is then already
            // a post-fixed point and, with a valid hint, equals the answer.
            return Ok((t.max(next), i + 1));
        }
        t = next;
    }
    Err(FixedPointFailure::IterationLimit)
}

/// `offset + Σ_k demand_k(t)`, checked.
fn demand_at(offset: Dur, terms: &[DemandTerm], t: Dur) -> Result<Dur, FixedPointFailure> {
    let mut total = offset;
    for term in terms {
        let d = term.demand(t).ok_or(FixedPointFailure::Overflow)?;
        total = total.checked_add(d).ok_or(FixedPointFailure::Overflow)?;
    }
    Ok(total)
}

/// Total utilization of `terms` in parts-per-million, with each per-term
/// division rounded **up**.
///
/// Rounding up is the safe direction for this number's consumers: the
/// overload diagnostics and any admission gate that treats `< 1_000_000`
/// as "below capacity". Truncation understates — three terms of
/// execution 1 / period 3 would report 999 999 ppm and read as strictly
/// under 100% when the processor is in fact fully saturated. With ceiling
/// rounding the result never understates the true utilization (it may
/// overstate by strictly less than one ppm per term), so a saturated or
/// overloaded set can never masquerade as having headroom.
pub fn utilization_ppm(terms: &[DemandTerm]) -> u64 {
    terms
        .iter()
        .map(|t| {
            let num = t.execution.ticks() as i128 * 1_000_000;
            let den = t.period.ticks() as i128;
            ((num + den - 1) / den) as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(t: i64) -> Dur {
        Dur::from_ticks(t)
    }

    fn limits() -> FixedPointLimits {
        FixedPointLimits::new(d(1_000_000), 10_000)
    }

    #[test]
    fn no_interference_completion_is_own_cost() {
        let r = fixed_point(d(5), &[], limits()).unwrap();
        assert_eq!(r, d(5));
    }

    #[test]
    fn single_tick_job_alone() {
        let r = fixed_point(d(1), &[], limits()).unwrap();
        assert_eq!(r, d(1));
    }

    #[test]
    fn classic_response_time_example() {
        // Liu & Layland style: tasks (p=4,c=2) and (p=6,c=2) interfere with
        // a job of cost 3 at lowest priority.
        //   t0 = 3+2+2 = 7 ; W(7) = 3 + 2*2 + 2*2 = 11
        //   W(11) = 3 + 3*2 + 2*2 = 13 ; W(13) = 3 + 4*2 + 3*2 = 17
        //   W(17) = 3 + 5*2 + 3*2 = 19 ; W(19) = 3 + 5*2 + 4*2 = 21
        //   W(21) = 3 + 6*2 + 4*2 = 23 ; W(23) = 3 + 6*2 + 4*2 = 23 ✓
        let terms = [
            DemandTerm::periodic(d(4), d(2)),
            DemandTerm::periodic(d(6), d(2)),
        ];
        assert_eq!(fixed_point(d(3), &terms, limits()).unwrap(), d(23));
    }

    #[test]
    fn example2_response_times() {
        // Paper Example 2, processor P0: T1 (p=4,c=2) over T2,1 (p=6,c=2).
        let t21 = fixed_point(d(2), &[DemandTerm::periodic(d(4), d(2))], limits()).unwrap();
        assert_eq!(t21, d(4)); // the paper: R_{2,1} = 4
                               // P1 under PM: T2,2 (p=6,c=3) over T3 (p=6,c=2): R_3 = 5.
        let t3 = fixed_point(d(2), &[DemandTerm::periodic(d(6), d(3))], limits()).unwrap();
        assert_eq!(t3, d(5)); // the paper: worst case 5, never misses
    }

    #[test]
    fn jitter_pulls_extra_instances_into_the_window() {
        // Interferer p=10, c=2. Without jitter a 3-tick job completes at 5.
        let no_jitter = [DemandTerm::periodic(d(10), d(2))];
        assert_eq!(fixed_point(d(3), &no_jitter, limits()).unwrap(), d(5));
        // With jitter 9 the interferer contributes ⌈(t+9)/10⌉ instances:
        // t0 = 3 + 2 = 5 ; W(5) = 3 + ⌈14/10⌉*2 = 7 ; W(7) = 3 + ⌈16/10⌉*2 = 7 ✓
        let jittered = [DemandTerm::jittered(d(10), d(2), d(9))];
        assert_eq!(fixed_point(d(3), &jittered, limits()).unwrap(), d(7));
    }

    #[test]
    fn jitter_multiple_periods_deep() {
        // Jitter of 25 on a p=10 interferer means ⌊25/10⌋+1 = 3 instances
        // land at the window origin.
        let term = DemandTerm::jittered(d(10), d(1), d(25));
        assert_eq!(term.demand(d(1)).unwrap(), d(3));
        assert_eq!(term.demand(d(5)).unwrap(), d(3));
        assert_eq!(term.demand(d(6)).unwrap(), d(4));
    }

    #[test]
    fn overload_exceeds_cap() {
        // Utilization 1.5 — never converges; must hit the cap, not loop.
        let terms = [
            DemandTerm::periodic(d(2), d(2)),
            DemandTerm::periodic(d(4), d(2)),
        ];
        let err = fixed_point(d(1), &terms, FixedPointLimits::new(d(1000), 10_000)).unwrap_err();
        assert_eq!(err, FixedPointFailure::ExceedsCap);
    }

    #[test]
    fn full_utilization_still_converges_when_fixpoint_exists() {
        // One term with c = p: the busy period of a 0-offset... with an
        // offset of 1 tick: t = 1 + ⌈t/4⌉·4 never converges (util = 1 plus
        // offset); but c < p converges: u = 3/4.
        let terms = [DemandTerm::periodic(d(4), d(3))];
        // t0 = 1+3 = 4 ; W(4) = 1 + 3 = 4 ✓
        assert_eq!(fixed_point(d(1), &terms, limits()).unwrap(), d(4));
        // Exactly full utilization with an offset diverges to the cap.
        let terms = [DemandTerm::periodic(d(4), d(4))];
        let err = fixed_point(d(1), &terms, FixedPointLimits::new(d(100), 10_000)).unwrap_err();
        assert_eq!(err, FixedPointFailure::ExceedsCap);
    }

    #[test]
    fn iteration_limit_reported() {
        let terms = [DemandTerm::periodic(d(2), d(1))];
        // Utilization 0.5, offset huge: converges but slowly; strangle the
        // budget to force the limit error.
        let err = fixed_point(d(500_000), &terms, FixedPointLimits::new(Dur::MAX, 3)).unwrap_err();
        assert_eq!(err, FixedPointFailure::IterationLimit);
    }

    #[test]
    fn overflow_detected() {
        let terms = [DemandTerm::periodic(d(1), Dur::MAX)];
        let err = fixed_point(d(1), &terms, limits()).unwrap_err();
        assert_eq!(err, FixedPointFailure::Overflow);
    }

    #[test]
    fn demand_term_constructors() {
        let p = DemandTerm::periodic(d(4), d(2));
        assert_eq!(p.jitter, Dur::ZERO);
        let j = DemandTerm::jittered(d(4), d(2), d(3));
        assert_eq!(j.jitter, d(3));
        assert_eq!(p.demand(d(4)).unwrap(), d(2));
        assert_eq!(p.demand(d(5)).unwrap(), d(4));
    }

    #[test]
    fn utilization_ppm_sums_terms() {
        let terms = [
            DemandTerm::periodic(d(4), d(2)),  // 0.5
            DemandTerm::periodic(d(10), d(3)), // 0.3
        ];
        assert_eq!(utilization_ppm(&terms), 800_000);
    }

    #[test]
    fn utilization_ppm_rounds_up_never_understating_saturation() {
        // Regression: three tasks of execution 1 / period 3 saturate a
        // processor exactly (utilization = 1). The old truncating division
        // reported 3 × 333_333 = 999_999 ppm — strictly under 100% — so a
        // gate keyed on `< 1_000_000` would have claimed headroom on a
        // saturated set. Ceiling rounding must report ≥ 100%.
        let terms = [
            DemandTerm::periodic(d(3), d(1)),
            DemandTerm::periodic(d(3), d(1)),
            DemandTerm::periodic(d(3), d(1)),
        ];
        assert!(utilization_ppm(&terms) >= 1_000_000);
        // Each term overstates by strictly less than one ppm.
        assert_eq!(utilization_ppm(&terms), 1_000_002);
        // Exact divisions stay exact.
        assert_eq!(
            utilization_ppm(&[DemandTerm::periodic(d(4), d(1))]),
            250_000
        );
    }

    #[test]
    fn least_fixed_point_is_returned() {
        // Two fixed points would exist for t = ⌈t/6⌉·3 (t=3 and t=6 both
        // satisfy t ≥ demand); the iteration must return the least (3).
        let terms = [DemandTerm::periodic(d(6), d(3))];
        // offset 0 is not meaningful for completion times, use a tiny job.
        let r = fixed_point(d(1), &terms, limits()).unwrap();
        assert_eq!(r, d(4)); // 1 + 3 = 4 < 6: least fixed point
    }
}
