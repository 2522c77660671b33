//! Per-processor clock models.
//!
//! The paper's PM protocol assumes "the clocks of all processors are
//! perfectly synchronized" (§3.1). This module drops that assumption: each
//! processor owns an affine local clock
//!
//! ```text
//! local(t) = offset + t + t·drift_ppm / 10⁶
//! ```
//!
//! with a constant offset and a bounded constant drift rate in parts per
//! million. Only PM consumes *absolute* local time (its interior releases
//! fire when the local clock reads the modified phase), so clock offsets
//! matter to PM alone; RG guards and MPM timers measure *durations* on the
//! local clock, so offsets cancel and only drift scales their intervals —
//! exactly the robustness asymmetry §3 of the paper argues informally.

use rtsync_core::time::{Dur, Time};

/// One processor's affine local clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocalClock {
    /// Constant offset added to the true time, in ticks. Positive means
    /// the local clock reads *ahead* of true time.
    pub offset: Dur,
    /// Constant rate error in parts per million. Positive means the local
    /// clock runs *fast* (local durations elapse in less true time).
    pub drift_ppm: i64,
}

/// Denominator of the drift rate: `drift_ppm` is parts per million.
const PPM: i128 = 1_000_000;

/// Signed division rounding to nearest (ties away from zero), so clock
/// conversions are stable under sign changes of offset and drift.
fn div_round(num: i128, den: i128) -> i128 {
    debug_assert!(den > 0);
    if num >= 0 {
        (num + den / 2) / den
    } else {
        (num - den / 2) / den
    }
}

impl LocalClock {
    /// The ideal clock: zero offset, zero drift.
    pub const IDEAL: LocalClock = LocalClock {
        offset: Dur::ZERO,
        drift_ppm: 0,
    };

    /// A clock with only a constant offset.
    pub fn with_offset(offset: Dur) -> LocalClock {
        LocalClock {
            offset,
            drift_ppm: 0,
        }
    }

    /// A clock with only a constant drift rate.
    pub fn with_drift_ppm(drift_ppm: i64) -> LocalClock {
        assert!(
            drift_ppm.unsigned_abs() < PPM as u64,
            "drift must stay below ±100%"
        );
        LocalClock {
            offset: Dur::ZERO,
            drift_ppm,
        }
    }

    /// `true` for the ideal clock.
    pub fn is_ideal(&self) -> bool {
        *self == LocalClock::IDEAL
    }

    /// What this clock reads at true time `t`.
    pub fn local_of(&self, t: Time) -> Time {
        let ticks = t.since_origin().ticks() as i128;
        let drifted = ticks + div_round(ticks * self.drift_ppm as i128, PPM);
        Time::from_ticks((drifted + self.offset.ticks() as i128) as i64)
    }

    /// The earliest true time at which this clock reads at least `local`
    /// (the firing instant of a timer set for local reading `local`).
    pub fn true_of_local(&self, local: Time) -> Time {
        if self.drift_ppm == 0 {
            // Exact at drift 0, where the map is a shift by the offset:
            // every ideal clock's timer takes this path.
            return local - self.offset;
        }
        let target = local.since_origin().ticks() as i128 - self.offset.ticks() as i128;
        // First-order inverse of the affine map, then correct the rounding
        // by stepping to the exact first tick that satisfies the reading.
        let mut t = div_round(target * PPM, PPM + self.drift_ppm as i128) as i64;
        let reads = |t: i64| {
            let ticks = t as i128;
            ticks + div_round(ticks * self.drift_ppm as i128, PPM) + self.offset.ticks() as i128
        };
        let goal = local.since_origin().ticks() as i128;
        while reads(t) < goal {
            t += 1;
        }
        while t > i64::MIN && reads(t - 1) >= goal {
            t -= 1;
        }
        Time::from_ticks(t)
    }

    /// The true duration over which this clock advances by the local
    /// duration `d` (time-invariant for an affine clock): a guard or timer
    /// armed for `d` local ticks elapses in `true_dur(d)` true ticks.
    pub fn true_dur(&self, d: Dur) -> Dur {
        if self.drift_ppm == 0 {
            return d.max(Dur::ZERO); // exact, as for `true_of_local`
        }
        let scaled = div_round(d.ticks() as i128 * PPM, PPM + self.drift_ppm as i128);
        Dur::from_ticks(scaled.max(0) as i64)
    }
}

/// How local clocks are assigned to the system's processors.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum ClockModel {
    /// All processors perfectly synchronized (the paper's assumption).
    #[default]
    Ideal,
    /// Explicit per-processor clocks; processors beyond the list are ideal.
    Explicit(Vec<LocalClock>),
    /// Deterministically random clocks: offsets uniform in
    /// `[-max_offset, +max_offset]`, drift uniform in
    /// `[-max_drift_ppm, +max_drift_ppm]`, drawn from `seed`.
    Random {
        /// Largest absolute clock offset.
        max_offset: Dur,
        /// Largest absolute drift rate, in parts per million.
        max_drift_ppm: i64,
        /// Seed for the per-processor draws.
        seed: u64,
    },
}

impl ClockModel {
    /// `true` if every processor gets the ideal clock.
    pub fn is_ideal(&self) -> bool {
        match self {
            ClockModel::Ideal => true,
            ClockModel::Explicit(clocks) => clocks.iter().all(LocalClock::is_ideal),
            ClockModel::Random {
                max_offset,
                max_drift_ppm,
                ..
            } => *max_offset == Dur::ZERO && *max_drift_ppm == 0,
        }
    }

    /// Resolves the model to one clock per processor.
    ///
    /// # Panics
    ///
    /// Panics if a random model's drift bound is ±100% or more (the bound
    /// [`LocalClock::with_drift_ppm`] enforces).
    pub fn resolve(&self, num_processors: usize) -> Vec<LocalClock> {
        match self {
            ClockModel::Ideal => vec![LocalClock::IDEAL; num_processors],
            ClockModel::Explicit(clocks) => (0..num_processors)
                .map(|p| clocks.get(p).copied().unwrap_or(LocalClock::IDEAL))
                .collect(),
            ClockModel::Random {
                max_offset,
                max_drift_ppm,
                seed,
            } => {
                assert!(
                    max_drift_ppm.unsigned_abs() < PPM as u64,
                    "drift must stay below ±100%"
                );
                use rand::rngs::StdRng;
                use rand::{RngExt, SeedableRng};
                let mut rng = StdRng::seed_from_u64(*seed);
                (0..num_processors)
                    .map(|_| {
                        let off = max_offset.ticks();
                        let offset = if off == 0 {
                            Dur::ZERO
                        } else {
                            Dur::from_ticks(rng.random_range(-off..=off))
                        };
                        let drift_ppm = if *max_drift_ppm == 0 {
                            0
                        } else {
                            rng.random_range(-*max_drift_ppm..=*max_drift_ppm)
                        };
                        LocalClock { offset, drift_ppm }
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: i64) -> Time {
        Time::from_ticks(x)
    }

    fn d(x: i64) -> Dur {
        Dur::from_ticks(x)
    }

    #[test]
    fn ideal_clock_is_identity() {
        let c = LocalClock::IDEAL;
        for x in [0, 1, 17, 1_000_000] {
            assert_eq!(c.local_of(t(x)), t(x));
            assert_eq!(c.true_of_local(t(x)), t(x));
        }
        assert_eq!(c.true_dur(d(42)), d(42));
    }

    #[test]
    fn offset_shifts_readings_both_ways() {
        let ahead = LocalClock::with_offset(d(5));
        assert_eq!(ahead.local_of(t(10)), t(15));
        assert_eq!(ahead.true_of_local(t(15)), t(10));
        // A timer for local reading 3 fires at true -2: the clock was
        // already past 3 at origin.
        assert_eq!(ahead.true_of_local(t(3)), t(-2));
        let behind = LocalClock::with_offset(d(-5));
        assert_eq!(behind.local_of(t(10)), t(5));
        assert_eq!(behind.true_of_local(t(5)), t(10));
        // Offsets never change durations.
        assert_eq!(ahead.true_dur(d(100)), d(100));
    }

    #[test]
    fn drift_scales_durations_inversely() {
        // A 1% fast clock: local durations elapse in ~99% of true time.
        let fast = LocalClock::with_drift_ppm(10_000);
        assert_eq!(fast.true_dur(d(1_000_000)), d(990_099));
        // A 1% slow clock takes longer.
        let slow = LocalClock::with_drift_ppm(-10_000);
        assert_eq!(slow.true_dur(d(1_000_000)), d(1_010_101));
    }

    #[test]
    fn true_of_local_inverts_local_of() {
        for ppm in [-200_000, -317, 0, 1, 499, 250_000] {
            for off in [-13, 0, 7] {
                let c = LocalClock {
                    offset: d(off),
                    drift_ppm: ppm,
                };
                for x in [0i64, 1, 5, 999, 123_456] {
                    let lt = c.local_of(t(x));
                    let back = c.true_of_local(lt);
                    // Earliest true instant with that reading: never after
                    // the original instant, and reading matches.
                    assert!(back <= t(x), "ppm={ppm} off={off} x={x}");
                    assert!(
                        c.local_of(back) >= lt,
                        "ppm={ppm} off={off} x={x}: reading regressed"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// At drift 0 every conversion is an exact shift by the offset, and
        /// at any drift a duration ignores the offset: an ideal clock reads
        /// true time through the same conversions as any other, and a sync
        /// step folded into the offset moves no guard or timer duration.
        #[test]
        fn zero_drift_shifts_exactly_and_durations_ignore_offset(
            x in -(1i64 << 50)..(1i64 << 50),
            off in -(1i64 << 40)..(1i64 << 40),
            other in -(1i64 << 40)..(1i64 << 40),
            ppm in -999_999i64..=999_999,
            dur in 0i64..(1i64 << 50),
        ) {
            let c = LocalClock::with_offset(d(off));
            proptest::prop_assert_eq!(c.local_of(t(x)), t(x + off));
            proptest::prop_assert_eq!(c.true_of_local(t(x)), t(x - off));
            proptest::prop_assert_eq!(c.true_dur(d(dur)), d(dur));
            let drifted = |offset| LocalClock { offset: d(offset), drift_ppm: ppm };
            proptest::prop_assert_eq!(drifted(off).true_dur(d(dur)), drifted(other).true_dur(d(dur)));
        }
    }

    #[test]
    fn random_model_is_deterministic_and_bounded() {
        let m = ClockModel::Random {
            max_offset: d(50),
            max_drift_ppm: 1_000,
            seed: 9,
        };
        let a = m.resolve(8);
        let b = m.resolve(8);
        assert_eq!(a, b);
        assert!(a.iter().any(|c| !c.is_ideal()), "degenerate draw");
        for c in &a {
            assert!(c.offset.ticks().abs() <= 50);
            assert!(c.drift_ppm.abs() <= 1_000);
        }
        assert!(!m.is_ideal());
        assert!(ClockModel::Ideal.is_ideal());
        assert!(ClockModel::Explicit(vec![LocalClock::IDEAL; 3]).is_ideal());
    }

    #[test]
    fn explicit_model_pads_with_ideal() {
        let m = ClockModel::Explicit(vec![LocalClock::with_offset(d(3))]);
        let clocks = m.resolve(3);
        assert_eq!(clocks[0], LocalClock::with_offset(d(3)));
        assert_eq!(clocks[1], LocalClock::IDEAL);
        assert_eq!(clocks[2], LocalClock::IDEAL);
    }
}
