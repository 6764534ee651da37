//! End-to-end WASAI campaign benchmark.
//!
//! One command audits a generated corpus the way `wasai audit-dir` does —
//! decode, [`PreparedTarget::prepare`], then one concolic campaign per
//! contract through [`Wasai::from_prepared`] under
//! [`run_campaign_isolated`] — on one worker thread, and prints one JSON
//! result line on stdout:
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload eosio_sweep --seed 1 --seconds 50 --trace 0
//! ```
//!
//! # Why quiet cost
//!
//! On a shared host, wall time drifts in phases lasting seconds when
//! co-tenants press on the shared caches, so one sweep's wall time does not
//! repeat. A campaign's *work* is fixed by its virtual clock, though, so
//! the benchmark runs the whole corpus in k interleaved passes and charges
//! each campaign the minimum of its k wall times (its quiet cost). The
//! passes spread each campaign's samples over the whole run, which must
//! outlast a contended phase. Every pass starts from cold state, as a user
//! auditing each contract once would: targets are re-prepared from their
//! encoded bytes and the fleet solver cache is new.
//!
//! # Output gate
//!
//! The run fails (exit 1) when any campaign's verdict (outcome, findings,
//! branch count) differs between passes or between the traced and untraced
//! runs, when a pass's fleet-cache lookups or hits differ from the first
//! pass's (warm state carried over), or when a CosmWasm verdict differs
//! from its exact ground-truth label.
//!
//! With `--trace 1` a separate traced pass follows the timed passes and
//! yields the per-layer metrics; see [`traced`].

mod corpus;
mod stats;
mod traced;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wasai_chain::ChainError;
use wasai_core::fleet::stage;
use wasai_core::{
    run_campaign_isolated, CampaignRun, FuzzConfig, PreparedTarget, TargetInfo, VulnClass, Wasai,
};
use wasai_obs as obs;
use wasai_smt::{Deadline, SolverCache};
use wasai_wasm::decode;

use corpus::{Contract, Workload};

/// Fewest timed passes a run makes, however slow the host: the quiet cost
/// is a minimum, and a minimum over fewer samples is biased upward.
const MIN_PASSES: usize = 3;

/// Corpus generations timed for the generation share of `setup_s`.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or_else(|| bad("not a whole number from 1 to 60"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one campaign produced: its verdict plus the wall time of its two
/// halves (decode + prepare, then the campaign proper).
#[derive(Debug, Clone)]
struct Campaign {
    findings: BTreeSet<VulnClass>,
    branches: usize,
    prepare: Duration,
    run: Duration,
}

/// The part of a campaign's result that must repeat exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    outcome: &'static str,
    findings: BTreeSet<VulnClass>,
    branches: usize,
}

impl Verdict {
    fn of(run: &CampaignRun<Campaign>) -> Verdict {
        let ok = run.outcome.as_ok();
        Verdict {
            outcome: run.outcome.kind(),
            findings: ok.map(|c| c.findings.clone()).unwrap_or_default(),
            branches: ok.map_or(0, |c| c.branches),
        }
    }
}

/// Decode, prepare and fuzz one contract against the pass's fleet cache —
/// the body `audit-dir` runs per contract, with the two halves timed.
fn campaign(
    i: usize,
    contract: &Contract,
    seed: u64,
    cache: &Arc<SolverCache>,
) -> Result<Campaign, ChainError> {
    stage::enter(stage::PREPARE);
    let start = Instant::now();
    let module =
        decode::decode(&contract.wasm).map_err(|e| ChainError::BadContract(e.to_string()))?;
    let prepared = PreparedTarget::prepare(TargetInfo::new(module, contract.abi.clone()))?;
    let prepare = start.elapsed();
    stage::enter(stage::CAMPAIGN);
    let start = Instant::now();
    let report = Wasai::from_prepared(prepared)
        .with_config(FuzzConfig {
            rng_seed: seed ^ i as u64,
            ..FuzzConfig::default()
        })
        .with_solver_cache(cache.clone())
        .run()?;
    Ok(Campaign {
        findings: report.findings,
        branches: report.branches,
        prepare,
        run: start.elapsed(),
    })
}

/// One pass over the whole corpus from cold state.
struct Pass {
    runs: Vec<CampaignRun<Campaign>>,
    wall: Duration,
    probe: Duration,
    cache_lookups: u64,
    cache_hits: u64,
}

/// Each campaign is bracketed with `obs::worker::begin/end`, so a traced
/// pass's heartbeat slot is idle between campaigns; untraced, the bracket
/// is a no-op.
fn run_pass(corpus: &[Contract], seed: u64, probe: &stats::CacheProbe) -> Pass {
    let probe = probe.time();
    let cache = Arc::new(SolverCache::new());
    let worker = |i: usize, c: &Contract| campaign(i, c, seed, &cache);
    let start = Instant::now();
    let runs = corpus
        .iter()
        .enumerate()
        .map(|(i, c)| {
            obs::worker::begin(i as u64);
            let run = run_campaign_isolated(i, c, Deadline::NONE, &worker);
            obs::worker::end();
            run
        })
        .collect();
    Pass {
        runs,
        wall: start.elapsed(),
        probe,
        cache_lookups: cache.lookups(),
        cache_hits: cache.hits(),
    }
}

/// The output gate for one pass against pass 1: every verdict and the
/// fleet-cache traffic repeat exactly.
fn check_pass(first: &Pass, pass: &Pass, what: &str) -> Result<(), String> {
    for (i, (a, b)) in first.runs.iter().zip(&pass.runs).enumerate() {
        let (a, b) = (Verdict::of(a), Verdict::of(b));
        if a != b {
            return Err(format!(
                "campaign {i}: {what} verdict {b:?} differs from pass 1 verdict {a:?}"
            ));
        }
    }
    if (pass.cache_lookups, pass.cache_hits) != (first.cache_lookups, first.cache_hits) {
        return Err(format!(
            "fresh-state check: {what} made {} fleet-cache lookups / {} hits, pass 1 made \
             {} / {} — state carried over between passes",
            pass.cache_lookups, pass.cache_hits, first.cache_lookups, first.cache_hits
        ));
    }
    Ok(())
}

fn failures(pass: &Pass) -> usize {
    pass.runs.iter().filter(|r| !r.outcome.is_ok()).count()
}

/// The timed passes, folded in as each one ends. Pass 1 is kept whole as
/// the reference the output gate compares every later pass against; of the
/// others only per-campaign minima and per-pass figures are kept, so the
/// benchmark's own memory does not grow with the number of passes that fit
/// in a run, which would make a faster program read as a larger
/// `peak_rss_mb`.
struct Timed {
    first: Pass,
    passes: usize,
    failed: usize,
    /// Wall time of each pass, in seconds.
    walls: Vec<f64>,
    /// Host cache probe before each pass, in milliseconds.
    probes: Vec<f64>,
    /// Per campaign, the minimum over passes of its (decode + prepare,
    /// campaign) wall times; `None` once it has failed in any pass.
    quiet: Vec<Option<(Duration, Duration)>>,
}

impl Timed {
    fn new(first: Pass) -> Timed {
        Timed {
            passes: 1,
            failed: failures(&first),
            walls: vec![first.wall.as_secs_f64()],
            probes: vec![first.probe.as_secs_f64() * 1e3],
            quiet: first
                .runs
                .iter()
                .map(|r| r.outcome.as_ok().map(|c| (c.prepare, c.run)))
                .collect(),
            first,
        }
    }

    /// Gate `pass` against pass 1, then fold it in.
    fn add(&mut self, pass: Pass) -> Result<(), String> {
        self.passes += 1;
        check_pass(&self.first, &pass, &format!("pass {}", self.passes))?;
        self.failed += failures(&pass);
        self.walls.push(pass.wall.as_secs_f64());
        self.probes.push(pass.probe.as_secs_f64() * 1e3);
        for (quiet, run) in self.quiet.iter_mut().zip(&pass.runs) {
            *quiet = match (*quiet, run.outcome.as_ok()) {
                (Some((prepare, time)), Some(c)) => Some((prepare.min(c.prepare), time.min(c.run))),
                _ => None,
            };
        }
        Ok(())
    }
}

/// On workloads with exact labels, every verdict of pass 1 must equal its
/// label; later passes are gated against pass 1.
fn check_labels(workload: Workload, corpus: &[Contract], first: &Pass) -> Result<(), String> {
    if workload.exact_labels() {
        for (i, (run, contract)) in first.runs.iter().zip(corpus).enumerate() {
            let found = Verdict::of(run).findings;
            if found != contract.label {
                return Err(format!(
                    "campaign {i}: findings {found:?} differ from ground truth {:?}",
                    contract.label
                ));
            }
        }
    }
    Ok(())
}

/// The end-to-end figures of a set of timed passes.
struct Summary {
    attempted: usize,
    failed: usize,
    /// Per campaign that completed in every pass: min over passes of the
    /// campaign wall time, in seconds.
    quiet_run_s: Vec<f64>,
    /// Σ over contracts of the min over passes of decode + prepare, seconds.
    quiet_prepare_s: f64,
    branches: usize,
    f1: f64,
}

fn summarize(workload: Workload, corpus: &[Contract], timed: &Timed) -> Summary {
    let mut summary = Summary {
        attempted: timed.passes * corpus.len(),
        failed: timed.failed,
        quiet_run_s: Vec::new(),
        quiet_prepare_s: 0.0,
        branches: 0,
        f1: 0.0,
    };
    let mut scores = wasai_bench::Metrics::default();
    for ((run, quiet), contract) in timed.first.runs.iter().zip(&timed.quiet).zip(corpus) {
        let verdict = Verdict::of(run);
        for class in workload.classes() {
            scores.record(
                contract.label.contains(class),
                verdict.findings.contains(class),
            );
        }
        let Some((prepare, time)) = quiet else {
            continue;
        };
        summary.quiet_run_s.push(time.as_secs_f64());
        summary.quiet_prepare_s += prepare.as_secs_f64();
        summary.branches += verdict.branches;
    }
    summary.f1 = scores.f1();
    summary
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<stats::Report, String> {
    let workload = args.workload;
    let mut setup_gen = Vec::with_capacity(SETUP_REPEATS);
    let mut corpus = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let fresh = workload.corpus(args.seed);
        setup_gen.push(start.elapsed().as_secs_f64());
        if !corpus.is_empty() && fresh != corpus {
            return Err("corpus generation is not deterministic for this seed".to_string());
        }
        corpus = fresh;
    }
    let probe = stats::CacheProbe::new();

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut timed = Timed::new(run_pass(&corpus, args.seed, &probe));
    while timed.passes < MIN_PASSES || start.elapsed() < budget {
        timed.add(run_pass(&corpus, args.seed, &probe))?;
    }
    let measured = start.elapsed();
    let summary = summarize(workload, &corpus, &timed);
    eprintln!(
        "{}: {} contracts x {} passes in {:.1}s; pass wall {:?}s; cache probe {:?}ms",
        workload.name(),
        corpus.len(),
        timed.passes,
        measured.as_secs_f64(),
        stats::rounded(&timed.walls, 3),
        stats::rounded(&timed.probes, 1),
    );
    eprintln!(
        "fleet cache per pass: {} lookups, {} hits; {} of {} campaigns failed",
        timed.first.cache_lookups, timed.first.cache_hits, summary.failed, summary.attempted
    );
    check_labels(workload, &corpus, &timed.first)?;

    let mut report = stats::Report::new(summary.attempted, summary.failed);
    if args.trace {
        let traced = traced::run(&corpus, args.seed, &probe)?;
        for pass in &traced.passes {
            check_pass(&timed.first, pass, "traced pass")?;
            report.attempted += pass.runs.len();
            report.failed += failures(pass);
        }
        traced.report_layers(&mut report, &corpus, &timed.walls, &summary)?;
        report.metric("fleet.passes", timed.passes as f64, "count");
        report.metric("fleet.pass_wall_s_p50", stats::median(&timed.walls), "s");
        report.metric("fleet.pass_wall_s_iqr", stats::iqr(&timed.walls), "s");
        report.metric("host.cache_probe_ms", stats::median(&timed.probes), "ms");
        return Ok(report);
    }
    let n = summary.quiet_run_s.len();
    let mut ms: Vec<f64> = summary.quiet_run_s.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    let generate_s = stats::median(&setup_gen);
    eprintln!(
        "quiet cost over {n} campaigns; setup: generate {generate_s:.4}s + prepare {:.4}s",
        summary.quiet_prepare_s
    );
    report.metric(
        "campaigns_per_s",
        n as f64 / ms.iter().sum::<f64>() * 1e3,
        "1/s",
    );
    report.metric("campaign_ms_p50", stats::percentile(&ms, 0.5), "ms");
    report.metric("campaign_ms_p90", stats::percentile(&ms, 0.9), "ms");
    report.metric("setup_s", generate_s + summary.quiet_prepare_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    report.metric("branches_covered", summary.branches as f64, "count");
    report.metric("verdict_f1", summary.f1, "f1");
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: wasai-e2e-bench --workload <eosio_sweep|cw_sweep> --seed <n> --seconds <1-60> --trace <0|1>\nerror: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
