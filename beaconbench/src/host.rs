//! The host reference clock.
//!
//! The benchmark shares its machine with other tenants, and the same
//! iteration's wall time drifts by a quarter or more over minutes as
//! they load the socket. A fixed dependent chain of integer
//! multiply-adds — it touches no memory, so it times only how fast the
//! core runs — is timed between iterations. On a shared 2-core Xeon VM
//! its time tracked E11 iteration time with correlation 0.72, and
//! scaling by it cut the spread of E11 iterations over seven minutes
//! from 10 % to 7 % (interquartile range over median).

use std::time::Instant;

/// Steps in one probe.
const STEPS: u64 = 50_000_000;

/// The probe's time on the nominal host the end-to-end metrics are
/// scaled to, seconds (2 ns per step).
const NOMINAL_S: f64 = 0.1;

/// How slow the host runs now relative to the nominal host: one probe's
/// time over its nominal time (above 1 is slower).
pub fn slowness() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(1u64);
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
            ^ (x >> 7);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() / NOMINAL_S
}

/// Probes taken between measured iterations: each iteration is scaled
/// by the mean of the probes just before and just after it.
pub struct Reference {
    last: f64,
    taken: Vec<f64>,
}

impl Reference {
    /// Take the probe that precedes the first iteration.
    pub fn start() -> Self {
        let last = slowness();
        Reference {
            last,
            taken: vec![last],
        }
    }

    /// Probe after an iteration; returns that iteration's slowness.
    pub fn after_iteration(&mut self) -> f64 {
        let now = slowness();
        self.taken.push(now);
        let f = (self.last + now) / 2.0;
        self.last = now;
        f
    }

    /// Every probe taken, as slowness.
    pub fn probes(&self) -> &[f64] {
        &self.taken
    }
}
