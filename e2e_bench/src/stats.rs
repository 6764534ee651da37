//! Order statistics, the host cache probe, and the JSON result line.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linear-interpolation percentile (`q` in 0..=1) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    match sorted.get(lo + 1) {
        Some(&hi) => sorted[lo] + (hi - sorted[lo]) * (pos - lo as f64),
        None => last,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Distance between the first and third quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    let v = sorted(values);
    percentile(&v, 0.75) - percentile(&v, 0.25)
}

/// `values` rounded to `digits` decimals, for the human-readable log.
pub fn rounded(values: &[f64], digits: i32) -> Vec<f64> {
    let scale = 10f64.powi(digits);
    values.iter().map(|v| (v * scale).round() / scale).collect()
}

/// A pointer chase over a 4 MiB cyclic permutation: its time tracks the
/// pressure co-tenants put on the shared L2/L3 cache, the host condition
/// that moves campaign wall time, so a run that landed in a contended
/// phase shows in `host.cache_probe_ms`.
pub struct CacheProbe {
    next: Vec<u32>,
}

impl CacheProbe {
    const ENTRIES: usize = (4 << 20) / std::mem::size_of::<u32>();
    const STEPS: usize = 1 << 20;

    pub fn new() -> CacheProbe {
        // Sattolo's shuffle gives a single cycle through every entry; the
        // xorshift generator is fixed so every run chases the same cycle.
        let mut next: Vec<u32> = (0..Self::ENTRIES as u32).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..Self::ENTRIES).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        CacheProbe { next }
    }

    pub fn time(&self) -> Duration {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[black_box(at) as usize];
        }
        black_box(at);
        start.elapsed()
    }
}

/// The result line the benchmark prints last on stdout.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new(attempted: usize, failed: usize) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// The result line. Only a run that passed the output gate gets one, so
    /// `correct` is always true.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a ratio over nothing is 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
