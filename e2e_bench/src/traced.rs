//! The traced run: further cold passes over the corpus with observability
//! on, giving the per-layer metrics. It repeats whole passes until it has
//! run for [`TRACED_SECONDS`], so even a fast corpus gives the sampler
//! enough samples; counts are reported per pass.
//!
//! Each campaign is bracketed with `obs::worker::begin/end` (see
//! [`crate::run_pass`]), and the engine marks its heartbeat slot with the
//! stage it is in: prepare, execute, replay, solve, or the campaign loop
//! itself, which covers coverage, scanner, flip-query build and seed pool.
//! One sampler thread tallies the stage every [`SAMPLE_PERIOD`], so the
//! sampled shares sum to 1 by construction; with the campaign thread that
//! makes two threads. The replay and solve shares are checked against the
//! registry's wall-time histograms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use wasai_obs::{self as obs, Counter, Histogram, Stage};
use wasai_wasm::decode;

use crate::corpus::Contract;
use crate::stats::{self, CacheProbe, Report};
use crate::{Pass, Summary};

const SAMPLE_PERIOD: Duration = Duration::from_micros(100);

/// Shortest traced run; whole passes are repeated until it is reached.
const TRACED_SECONDS: Duration = Duration::from_secs(2);

/// Fewest stage samples the shares may rest on.
const MIN_SAMPLES: u64 = 2_000;

/// Largest gap allowed between a sampled share and the registry's
/// histogram share of the same stage.
const SHARE_TOLERANCE: f64 = 0.05;

/// `instrument` calls timed per contract; the minimum is kept.
const INSTRUMENT_REPEATS: usize = 3;

const STAGES: [Stage; 5] = [
    Stage::Campaign,
    Stage::Execute,
    Stage::Replay,
    Stage::Solve,
    Stage::Prepare,
];

pub struct Traced {
    pub passes: Vec<Pass>,
    /// Samples per stage, indexed like [`STAGES`].
    tally: [u64; 5],
    instrument_us: f64,
}

fn sample(stop: &AtomicBool) -> [u64; 5] {
    let mut tally = [0u64; 5];
    while !stop.load(Ordering::Acquire) {
        for reading in obs::heartbeats().snapshot() {
            tally[reading.stage as usize] += 1;
        }
        std::thread::sleep(SAMPLE_PERIOD);
    }
    tally
}

/// Mean over the corpus of the quiet (minimum) time of
/// `wasai_wasm::instrument::instrument`, in microseconds.
fn instrument_us(corpus: &[Contract]) -> Result<f64, String> {
    let mut total = Duration::ZERO;
    for (i, c) in corpus.iter().enumerate() {
        let module = decode::decode(&c.wasm).map_err(|e| format!("contract {i}: {e}"))?;
        let mut best = Duration::MAX;
        for _ in 0..INSTRUMENT_REPEATS {
            let start = Instant::now();
            let out = wasai_wasm::instrument::instrument(std::hint::black_box(&module))
                .map_err(|e| format!("contract {i}: {e}"))?;
            best = best.min(start.elapsed());
            drop(std::hint::black_box(out));
        }
        total += best;
    }
    Ok(total.as_secs_f64() * 1e6 / corpus.len() as f64)
}

pub fn run(corpus: &[Contract], seed: u64, probe: &CacheProbe) -> Result<Traced, String> {
    let instrument_us = instrument_us(corpus)?;
    obs::enable();
    let stop = AtomicBool::new(false);
    let (passes, tally) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample(&stop));
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed() < TRACED_SECONDS {
            passes.push(crate::run_pass(corpus, seed, probe));
        }
        stop.store(true, Ordering::Release);
        (passes, sampler.join())
    });
    let tally = tally.map_err(|_| "the stage sampler thread panicked".to_string())?;
    Ok(Traced {
        passes,
        tally,
        instrument_us,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Traced {
    fn share(&self, stage: Stage) -> f64 {
        let total: u64 = self.tally.iter().sum();
        ratio(self.tally[stage as usize] as f64, total as f64)
    }

    /// Check the sampled replay and solve shares against the registry's
    /// histogram sums over the traced pass's campaign wall time, then add
    /// every per-layer metric to `report`.
    pub fn report_layers(
        &self,
        report: &mut Report,
        corpus: &[Contract],
        timed_walls: &[f64],
        summary: &Summary,
    ) -> Result<(), String> {
        let reg = obs::global();
        let n = self.passes.len() as f64;
        let counter = |c: Counter| reg.counter(c) as f64 / n;
        let wall_us: f64 = self
            .passes
            .iter()
            .flat_map(|p| &p.runs)
            .map(|r| r.elapsed.as_secs_f64() * 1e6)
            .sum::<f64>()
            / n;
        let samples: u64 = self.tally.iter().sum();
        let shares: Vec<String> = STAGES
            .iter()
            .map(|&s| format!("{} {:.3}", s.name(), self.share(s)))
            .collect();
        eprintln!(
            "traced: {samples} stage samples; shares {}",
            shares.join(", ")
        );
        if samples < MIN_SAMPLES {
            return Err(format!(
                "sampler took {samples} samples, fewer than the {MIN_SAMPLES} the shares need"
            ));
        }
        for (stage, hist) in [
            (Stage::Replay, Histogram::ReplayWallSeconds),
            (Stage::Solve, Histogram::SolveWallSeconds),
        ] {
            let sampled = self.share(stage);
            let timed = ratio(reg.histogram(hist).sum_us as f64 / n, wall_us);
            eprintln!(
                "sampler check: {} share sampled {sampled:.4}, registry {timed:.4}",
                stage.name()
            );
            if (sampled - timed).abs() > SHARE_TOLERANCE {
                return Err(format!(
                    "sampled {} share {sampled:.4} disagrees with the registry's {timed:.4} \
                     by more than {SHARE_TOLERANCE}",
                    stage.name()
                ));
            }
        }

        report.metric("vm.execute_share", self.share(Stage::Execute), "share");
        report.metric("symex.replay_share", self.share(Stage::Replay), "share");
        report.metric("smt.solve_share", self.share(Stage::Solve), "share");
        report.metric("engine.other_share", self.share(Stage::Campaign), "share");
        report.metric("harness.prepare_share", self.share(Stage::Prepare), "share");

        let executions = counter(Counter::SeedsExecuted);
        let instructions = counter(Counter::VmInstructions);
        report.metric("chain.executions", executions, "count");
        report.metric("vm.instructions", instructions, "count");
        report.metric(
            "vm.instructions_per_execution",
            ratio(instructions, executions),
            "instr/exec",
        );

        let replay = reg.histogram(Histogram::ReplayWallSeconds);
        report.metric("symex.replays", counter(Counter::Replays), "count");
        report.metric("symex.replay_s", replay.sum_us as f64 / 1e6 / n, "s");
        report.metric(
            "symex.replay_us_mean",
            ratio(replay.sum_us as f64, replay.count as f64),
            "us/replay",
        );

        let queries =
            counter(Counter::SmtSat) + counter(Counter::SmtUnsat) + counter(Counter::SmtUnknown);
        let propagations = counter(Counter::SmtPropagations);
        let solve = reg.histogram(Histogram::SolveWallSeconds);
        report.metric("smt.queries", queries, "count");
        report.metric("smt.propagations", propagations, "count");
        report.metric(
            "smt.props_per_query",
            ratio(propagations, queries),
            "prop/query",
        );
        report.metric(
            "smt.l1_hit_rate",
            ratio(
                counter(Counter::CacheHitsCampaign),
                counter(Counter::CacheLookupsCampaign),
            ),
            "hit/lookup",
        );
        report.metric(
            "smt.fleet_hit_rate",
            ratio(
                counter(Counter::CacheHitsFleet),
                counter(Counter::CacheLookupsFleet),
            ),
            "hit/lookup",
        );
        report.metric("smt.prefix_forks", counter(Counter::PrefixForks), "count");
        report.metric("smt.solve_s", solve.sum_us as f64 / 1e6 / n, "s");
        report.metric(
            "smt.solve_us_mean",
            ratio(solve.sum_us as f64, solve.count as f64),
            "us/solve",
        );

        report.metric("engine.iterations", counter(Counter::Iterations), "count");
        report.metric("engine.flips", counter(Counter::Flips), "count");
        report.metric(
            "engine.coverage_per_execution",
            ratio(counter(Counter::CoverageBranches), executions),
            "branch/exec",
        );

        report.metric(
            "harness.prepare_us_per_target",
            summary.quiet_prepare_s * 1e6 / corpus.len() as f64,
            "us",
        );
        report.metric("wasm.instrument_us_per_target", self.instrument_us, "us");

        let walls: Vec<f64> = self.passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        report.metric(
            "obs.traced_overhead",
            stats::median(&walls) / stats::median(timed_walls),
            "ratio",
        );
        report.metric("sampler.samples", samples as f64, "count");
        report.metric("obs.traced_passes", n, "count");
        Ok(())
    }
}
