//! The host's speed, measured by a fixed reference kernel timed between
//! ops.
//!
//! On the shared 2-vCPU host this benchmark was built on, the speed a
//! single thread gets swings by a third within seconds and drifts by as
//! much over minutes, with CPU time equal to wall time: other tenants'
//! load changes clock and cache behaviour, not scheduling. Timings taken
//! minutes apart were therefore up to 0.3 apart on identical work. The
//! benchmark scales every end-to-end timing by the kernel's median time
//! over the run, reporting it at the fixed reference speed
//! [`REFERENCE_S`]. The kernel is the benchmark's own code, so a change to
//! the program cannot move it; its 256 KiB working set is warmed before
//! each timed pass, so the program's cache footprint cannot either.

use std::time::Instant;

use crate::util::median;

/// Kernel time at the reference speed: the median on the reference host
/// when it is quiet.
pub const REFERENCE_S: f64 = 0.000_4;
const WORDS: usize = 32 * 1024;
const STEPS: u32 = 200_000;

pub struct Speed {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Speed {
    pub fn new() -> Speed {
        Speed {
            buf: (0..WORDS as u64).collect(),
            samples: Vec::new(),
        }
    }

    /// Read-modify-writes at pseudo-random places in the buffer (a linear
    /// congruential walk) with data-dependent branches.
    fn kernel(&mut self) {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 40) as usize % WORDS;
            self.buf[i] = self.buf[i].wrapping_add(x);
            acc ^= self.buf[i] >> 3;
            if acc & 1 == 0 {
                acc = acc.rotate_left(5);
            }
        }
        std::hint::black_box(acc);
    }

    /// Runs the kernel once to warm its buffer, then times a second run.
    /// Returns the seconds spent, both runs included.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        self.kernel();
        let warm = Instant::now();
        self.kernel();
        self.samples.push(warm.elapsed().as_secs_f64());
        start.elapsed().as_secs_f64()
    }

    /// How much slower than the reference the host ran at the last
    /// sample.
    pub fn last_factor(&self) -> f64 {
        self.samples.last().map_or(1.0, |s| s / REFERENCE_S)
    }

    /// How much slower than the reference the host ran: the median kernel
    /// time over [`REFERENCE_S`].
    pub fn factor(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }
}
