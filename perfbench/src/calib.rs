//! The host's speed, measured beside the workload.
//!
//! On a shared virtual machine the same code ran 10–20% slower for minutes
//! at a time — in runs with more steal ticks, but by far more than the
//! stolen time — so two sets of runs an hour apart disagreed by more than
//! any bound worth having. The calibrator times a fixed reference kernel
//! that belongs to the benchmark, not to the program: a dependent pointer
//! chase through a 128 KiB random cycle, which stays in the core's own
//! cache and so measures the core's speed (a 2 MiB cycle reached the cache
//! the host shares with its neighbours and varied by 40% itself). It runs
//! on the same CPU as everything else, at points where the server is idle. The end-to-end times are reported at
//! the reference speed: a time is multiplied, and a rate divided, by
//! `speed = REFERENCE_NS / median(kernel time)`. A change to the program
//! cannot move the kernel, so its gains and losses pass through unchanged.

use std::hint::black_box;
use std::time::Instant;

use crate::gen::Lcg;

/// Entries in the cycle (4 bytes each).
const ENTRIES: usize = 1 << 15;
/// Steps per timing.
const STEPS: usize = 1 << 18;
/// The kernel's median time on the reference host (the 2-vCPU machine the
/// bounds in `BENCHMARK.json` were set on), ns.
pub const REFERENCE_NS: f64 = 1_300_000.0;

/// The reference kernel and its timings.
pub struct Calibrator {
    next: Vec<u32>,
    at: u32,
    timings: Vec<f64>,
}

impl Calibrator {
    /// Builds the cycle (Sattolo's algorithm, fixed seed).
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut rng = Lcg::new(0xca11_b4a7);
        for i in (1..ENTRIES).rev() {
            next.swap(i, rng.below(i));
        }
        Calibrator {
            next,
            at: 0,
            timings: Vec::new(),
        }
    }

    /// Times one pass of the kernel.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        self.timings.push(started.elapsed().as_nanos() as f64);
    }

    /// The kernel's median time this run, ns.
    pub fn median_ns(&self) -> f64 {
        crate::median(&self.timings)
    }

    /// Timings taken.
    pub fn samples(&self) -> usize {
        self.timings.len()
    }

    /// How fast the host ran against the reference: above 1 when faster.
    pub fn speed(&self) -> f64 {
        match self.median_ns() {
            ns if ns > 0.0 => REFERENCE_NS / ns,
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_cycle_visits_every_entry() {
        let calibrator = Calibrator::new();
        let mut at = 0u32;
        for step in 1..=ENTRIES {
            at = calibrator.next[at as usize];
            if at == 0 {
                assert_eq!(step, ENTRIES, "one cycle through all entries");
            }
        }
        assert_eq!(at, 0);
    }
}
