//! A cheap clock for timing calls that take tens of nanoseconds.
//!
//! `Instant::now` costs about as much as the calls being timed, so the
//! per-call timers read the cycle counter instead and convert to
//! nanoseconds with a rate calibrated against `Instant` at start-up.  The
//! cost of an empty timed region is calibrated too and subtracted per call.

use std::time::Instant;

/// Raw clock ticks.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC has no memory effects; every x86_64 CPU provides it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Raw clock ticks (nanoseconds since the first call on targets without a
/// cycle counter).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Tick-to-nanosecond conversion plus the cost of one empty timed region.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    ns_per_tick: f64,
    empty_ticks: f64,
}

impl Clock {
    pub fn calibrate() -> Clock {
        let t0 = Instant::now();
        let k0 = ticks();
        while t0.elapsed().as_millis() < 30 {}
        let ns = t0.elapsed().as_nanos() as f64;
        let k = ticks().wrapping_sub(k0).max(1) as f64;
        let mut empty: Vec<u64> = (0..20_001)
            .map(|_| {
                let a = ticks();
                ticks().wrapping_sub(a)
            })
            .collect();
        empty.sort_unstable();
        Clock {
            ns_per_tick: ns / k,
            empty_ticks: empty[empty.len() / 2] as f64,
        }
    }

    /// Nanoseconds spent in `regions` timed regions that together read
    /// `ticks`, with the timer's own cost taken out.
    pub fn ns(&self, ticks: u64, regions: u64) -> f64 {
        ((ticks as f64 - self.empty_ticks * regions as f64) * self.ns_per_tick).max(0.0)
    }
}

/// Time spent in a layer and the number of calls it covers.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub ns: f64,
    pub calls: u64,
}

impl Cost {
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    pub fn add(&mut self, other: Cost) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}
