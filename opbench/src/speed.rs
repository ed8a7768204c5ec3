//! Host speed probe.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes as their neighbours' load changes. The slowdown comes in
//! steps that hit arithmetic, cache-resident and memory-bound code alike,
//! though memory-bound code less. A short arithmetic kernel of this
//! package's own code, timed at intervals through each measured phase,
//! tracks it without disturbing the caches the measured work uses. The
//! median of those samples against the kernel's duration on a nominal host
//! is the phase's slowdown factor, and the phase's end-to-end timings are
//! reported at the nominal host's speed: durations divided by the factor,
//! rates multiplied by it. The library never runs the kernel, so no change
//! to the library moves the factor.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Loop steps of one probe sample.
const STEPS: u64 = 1 << 15;
/// Duration of one probe sample on the nominal host, µs: the fast state of
/// the 2-vCPU Xeon VM the benchmark was tuned on.
pub const NOMINAL_US: f64 = 45.0;

/// The probe samples taken since the last [`take`].
///
/// [`take`]: SpeedProbe::take
#[derive(Debug, Default)]
pub struct SpeedProbe {
    samples_us: Vec<f64>,
}

impl SpeedProbe {
    /// Runs and times the kernel `reps` times; returns the time it took.
    pub fn sample(&mut self, reps: usize) -> Duration {
        let mut total = Duration::ZERO;
        for _ in 0..reps {
            let start = Instant::now();
            black_box(kernel(black_box(STEPS)));
            let took = start.elapsed();
            self.samples_us.push(took.as_secs_f64() * 1e6);
            total += took;
        }
        total
    }

    /// The slowdown over the last `n` samples.
    pub fn recent(&self, n: usize) -> Speed {
        Speed::from_samples(&self.samples_us[self.samples_us.len().saturating_sub(n)..])
    }

    /// The slowdown over the samples taken since the last call, which it
    /// clears.
    pub fn take(&mut self) -> Speed {
        let speed = Speed::from_samples(&self.samples_us);
        self.samples_us.clear();
        speed
    }
}

/// How much slower than the nominal host a phase ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// Median probe duration ÷ [`NOMINAL_US`]; 1.0 without samples.
    pub factor: f64,
    /// Probe samples behind the factor.
    pub samples: usize,
}

impl Speed {
    /// The slowdown the probe samples (µs) show.
    pub fn from_samples(samples_us: &[f64]) -> Self {
        let factor = if samples_us.is_empty() {
            1.0
        } else {
            median(samples_us) / NOMINAL_US
        };
        Speed {
            factor,
            samples: samples_us.len(),
        }
    }

    /// A duration measured in the phase, at the nominal host's speed.
    pub fn time(&self, measured: f64) -> f64 {
        measured / self.factor
    }

    /// A rate measured in the phase, at the nominal host's speed.
    pub fn rate(&self, measured: f64) -> f64 {
        measured * self.factor
    }
}

/// One probe sample's work: a dependent chain of `steps` SplitMix64 steps,
/// which touches no memory.
fn kernel(steps: u64) -> u64 {
    let mut x = 0x1357_9bdf_2468_ace0u64;
    let mut acc = 0u64;
    for _ in 0..steps {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.rotate_left(5) ^ z ^ (z >> 31);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_sample_over_the_nominal_duration() {
        let s = Speed::from_samples(&[3.0 * NOMINAL_US, NOMINAL_US, 2.0 * NOMINAL_US]);
        assert_eq!((s.factor, s.samples), (2.0, 3));
        assert_eq!(s.time(10.0), 5.0);
        assert_eq!(s.rate(10.0), 20.0);
        assert_eq!(Speed::from_samples(&[]).factor, 1.0);
    }

    #[test]
    fn take_clears_the_samples() {
        let mut p = SpeedProbe::default();
        p.sample(2);
        let s = p.take();
        assert_eq!(s.samples, 2);
        assert!(s.factor > 0.0);
        assert_eq!(p.take().samples, 0);
    }

    #[test]
    fn recent_looks_at_the_last_samples_only() {
        let p = SpeedProbe {
            samples_us: vec![9.0 * NOMINAL_US, NOMINAL_US, 3.0 * NOMINAL_US],
        };
        assert_eq!(p.recent(2).factor, 2.0);
        assert_eq!(p.recent(2).samples, 2);
        assert_eq!(p.recent(5).samples, 3);
    }
}
