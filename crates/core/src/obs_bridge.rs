//! Bridges between the virtual-clock telemetry layer (PR 3) and the
//! wall-clock observability registry (`wasai-obs`).
//!
//! Two pieces live here:
//!
//! - [`ProgressMonitor`]: the live `audit-dir` progress view — samples the
//!   global registry and heartbeat table, renders a one-line status to
//!   stderr, and flags stalled campaigns (no heartbeat tick for N
//!   wall-seconds) via the PR 2 stage markers mirrored into the heartbeat
//!   slots.
//! - [`metrics_json`]: renders a [`Metrics`] aggregate (from an offline
//!   trace) under the same Prometheus series names the live exposition
//!   uses, so `wasai stats --format json` correlates with `/metrics`.
//!
//! Everything here observes and renders; nothing feeds back into
//! scheduling or reports. Monitor output goes to stderr only, keeping
//! stdout (reports, verdict lines) byte-identical with observability on or
//! off.

use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wasai_obs as obs;
use wasai_obs::{Counter, Gauge, StallReport};

use crate::telemetry::Metrics;

/// A point-in-time progress reading, computed from registry + heartbeats.
/// This is what the monitor renders; tests consume it directly.
#[derive(Debug, Clone)]
pub struct MonitorReport {
    /// Campaigns finished cleanly so far.
    pub ok: u64,
    /// Campaigns failed (typed error) so far.
    pub failed: u64,
    /// Campaigns that panicked so far.
    pub panicked: u64,
    /// Campaigns cut off by the fleet deadline so far.
    pub timed_out: u64,
    /// Campaigns lost with a dead worker process (retries exhausted).
    pub crashed: u64,
    /// Worker subprocess re-dispatches by the supervisor so far.
    pub worker_restarts: u64,
    /// Heartbeat slot-aliasing events (worker count exceeded the table).
    pub hb_overflow: u64,
    /// Campaigns scheduled in the sweep (0 when unknown).
    pub total: u64,
    /// Seeds executed per wall-clock second since the monitor started.
    pub exec_per_sec: f64,
    /// Discovered branches / known branch sites, in percent (0 when no
    /// sites are known yet).
    pub coverage_pct: f64,
    /// Solver cache hits / lookups across both levels (0 when no lookups).
    pub cache_hit_rate: f64,
    /// Naive ETA: remaining campaigns at the observed campaigns/s rate
    /// (None until at least one campaign finished).
    pub eta: Option<Duration>,
    /// Campaigns with no heartbeat tick for at least the stall threshold.
    pub stalled: Vec<StallReport>,
}

impl MonitorReport {
    /// Campaigns retired (any outcome).
    pub fn done(&self) -> u64 {
        self.ok + self.failed + self.panicked + self.timed_out + self.crashed
    }
}

impl fmt::Display for MonitorReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} campaigns (ok {}, failed {}, panicked {}, timed-out {}",
            self.done(),
            self.total,
            self.ok,
            self.failed,
            self.panicked,
            self.timed_out
        )?;
        if self.crashed > 0 {
            write!(f, ", crashed {}", self.crashed)?;
        }
        write!(
            f,
            ") | {:.0} exec/s | cov {:.1}% | cache {:.0}%",
            self.exec_per_sec,
            self.coverage_pct,
            self.cache_hit_rate * 100.0
        )?;
        if self.worker_restarts > 0 {
            write!(f, " | restarts {}", self.worker_restarts)?;
        }
        if self.hb_overflow > 0 {
            write!(f, " | hb-overflow {}", self.hb_overflow)?;
        }
        if let Some(eta) = self.eta {
            write!(f, " | eta {}s", eta.as_secs())?;
        }
        if !self.stalled.is_empty() {
            write!(f, " | STALLED:")?;
            for s in &self.stalled {
                write!(
                    f,
                    " campaign {} ({} for {}s)",
                    s.campaign,
                    s.stage.name(),
                    s.idle_ms / 1000
                )?;
            }
        }
        Ok(())
    }
}

/// Live fleet progress monitor.
///
/// Samples the **global** registry and heartbeat table (that is where the
/// instrumented hot paths write) on a fixed interval, renders a status line
/// to stderr, and maintains the `wasai_stalled_campaigns` gauge. Purely a
/// reader: it never touches scheduling, stdout, or report files.
#[derive(Debug)]
pub struct ProgressMonitor {
    total: u64,
    stall_threshold: Duration,
    started: Instant,
}

impl ProgressMonitor {
    /// A monitor for a sweep of `total` campaigns flagging campaigns quiet
    /// for `stall_threshold`.
    pub fn new(total: u64, stall_threshold: Duration) -> ProgressMonitor {
        ProgressMonitor {
            total,
            stall_threshold,
            started: Instant::now(),
        }
    }

    /// Take one sample of the global registry + heartbeats.
    pub fn sample(&self) -> MonitorReport {
        let reg = obs::global();
        let ok = reg.counter(Counter::CampaignsOk);
        let failed = reg.counter(Counter::CampaignsFailed);
        let panicked = reg.counter(Counter::CampaignsPanicked);
        let timed_out = reg.counter(Counter::CampaignsTimedOut);
        let crashed = reg.counter(Counter::CampaignsCrashed);
        let worker_restarts = reg.counter(Counter::WorkerRestarts);
        let done = ok + failed + panicked + timed_out + crashed;

        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let seeds = reg.counter(Counter::SeedsExecuted);
        let sites = reg.counter(Counter::BranchSites);
        let branches = reg.counter(Counter::CoverageBranches);
        let lookups =
            reg.counter(Counter::CacheLookupsCampaign) + reg.counter(Counter::CacheLookupsFleet);
        let hits = reg.counter(Counter::CacheHitsCampaign) + reg.counter(Counter::CacheHitsFleet);

        let eta = (done > 0 && self.total > done).then(|| {
            let per_campaign = elapsed / done as f64;
            Duration::from_secs_f64(per_campaign * (self.total - done) as f64)
        });

        let stalled = obs::heartbeats().stalled(self.stall_threshold.as_millis() as u64);
        reg.gauge_set(Gauge::StalledCampaigns, stalled.len() as u64);
        let hb_overflow = obs::heartbeats().overflowed();
        reg.gauge_set(Gauge::HeartbeatOverflow, hb_overflow);

        MonitorReport {
            ok,
            failed,
            panicked,
            timed_out,
            crashed,
            worker_restarts,
            hb_overflow,
            total: self.total,
            exec_per_sec: seeds as f64 / elapsed,
            coverage_pct: if sites == 0 {
                0.0
            } else {
                branches as f64 * 100.0 / sites as f64
            },
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            eta,
            stalled,
        }
    }

    /// Spawn the render loop on a background thread: one stderr status line
    /// per `interval` until the returned handle is stopped. With `tty` the
    /// line is redrawn in place (`\r`, no newline); otherwise each sample is
    /// its own line, suitable for log capture.
    pub fn spawn(self, interval: Duration, tty: bool) -> MonitorHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("wasai-progress".into())
            .spawn(move || {
                let mut last_len = 0usize;
                while !stop2.load(Ordering::Relaxed) {
                    let report = self.sample();
                    render(&report, tty, &mut last_len);
                    // Sleep in small slices so stop() is prompt even with
                    // second-scale intervals.
                    let mut remaining = interval;
                    while !stop2.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                        let step = remaining.min(Duration::from_millis(50));
                        std::thread::sleep(step);
                        remaining = remaining.saturating_sub(step);
                    }
                }
                // Final sample so the last state is always visible.
                let report = self.sample();
                render(&report, tty, &mut last_len);
                if tty {
                    eprintln!();
                }
            })
            .expect("spawn progress monitor thread");
        MonitorHandle {
            stop,
            handle: Some(handle),
        }
    }
}

fn render(report: &MonitorReport, tty: bool, last_len: &mut usize) {
    let line = report.to_string();
    if tty {
        // Pad with spaces to fully overwrite the previous, longer line.
        let pad = last_len.saturating_sub(line.len());
        eprint!("\r{line}{}", " ".repeat(pad));
        let _ = std::io::stderr().flush();
        *last_len = line.len();
    } else {
        eprintln!("[wasai] {line}");
    }
}

/// Stops the monitor thread when dropped (or via [`MonitorHandle::stop`]).
#[derive(Debug)]
pub struct MonitorHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MonitorHandle {
    /// Stop the render loop and join the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MonitorHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Render an offline [`Metrics`] aggregate as JSON under the Prometheus
/// series names of the live exposition, so `wasai stats --format json`
/// output joins against scraped `/metrics` data by key.
pub fn metrics_json(m: &Metrics) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let mut first = true;
    let mut field = |out: &mut String, key: &str, val: u64| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        // Series names carry label quotes — escape them for the JSON key.
        out.push_str(&format!(
            "  \"{}\": {val}",
            crate::telemetry::json_escape(key)
        ));
    };

    field(
        &mut out,
        "wasai_campaigns_total{outcome=\"ok\"}",
        m.finished,
    );
    for tag in ["failed", "panicked", "timed-out", "crashed"] {
        field(
            &mut out,
            &format!("wasai_campaigns_total{{outcome=\"{tag}\"}}"),
            m.aborted.get(tag).copied().unwrap_or(0),
        );
    }
    field(&mut out, "wasai_seeds_executed_total", m.seeds);
    field(&mut out, "wasai_coverage_branches_total", m.coverage_gained);
    field(&mut out, "wasai_replays_total", m.replays);
    field(&mut out, "wasai_flips_total", m.flips);
    field(
        &mut out,
        "wasai_smt_queries_total{outcome=\"sat\"}",
        m.smt_sat,
    );
    field(
        &mut out,
        "wasai_smt_queries_total{outcome=\"unsat\"}",
        m.smt_unsat,
    );
    field(
        &mut out,
        "wasai_smt_queries_total{outcome=\"unknown\"}",
        m.smt_unknown,
    );
    field(&mut out, "wasai_smt_propagations_total", m.smt_props);
    field(
        &mut out,
        "wasai_smt_cache_hits_total{level=\"campaign\"}",
        m.smt_cache_hits,
    );
    // Not registry series, but part of the offline aggregate; prefixed the
    // same way so consumers treat the namespace uniformly.
    field(&mut out, "wasai_campaigns_started_total", m.campaigns);
    field(&mut out, "wasai_replay_records_total", m.replay_records);
    field(&mut out, "wasai_smt_conflicts_total", m.smt_conflicts);
    field(&mut out, "wasai_smt_incremental_total", m.smt_incremental);
    field(&mut out, "wasai_truncated_campaigns_total", m.truncated);
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::parse_json_fields;

    #[test]
    fn metrics_json_uses_prometheus_series_names() {
        let mut m = Metrics::new();
        m.finished = 3;
        m.seeds = 120;
        m.coverage_gained = 45;
        m.smt_sat = 9;
        m.aborted.insert("timed-out".to_string(), 2);
        let json = metrics_json(&m);
        // The repo's own flat-JSON parser must read the dump back; keys are
        // unescaped Prometheus series names.
        let fields = parse_json_fields(&json).expect("parseable dump");
        let get = |k: &str| fields.get(k).and_then(|v| v.as_num());
        assert_eq!(get("wasai_campaigns_total{outcome=\"ok\"}"), Some(3));
        assert_eq!(get("wasai_campaigns_total{outcome=\"timed-out\"}"), Some(2));
        assert_eq!(get("wasai_seeds_executed_total"), Some(120));
        assert_eq!(get("wasai_coverage_branches_total"), Some(45));
        assert_eq!(get("wasai_smt_queries_total{outcome=\"sat\"}"), Some(9));
    }

    #[test]
    fn monitor_report_renders_stalls() {
        let report = MonitorReport {
            ok: 3,
            failed: 1,
            panicked: 0,
            timed_out: 0,
            crashed: 1,
            worker_restarts: 2,
            hb_overflow: 0,
            total: 8,
            exec_per_sec: 120.0,
            coverage_pct: 42.5,
            cache_hit_rate: 0.25,
            eta: Some(Duration::from_secs(9)),
            stalled: vec![StallReport {
                slot: 1,
                campaign: 5,
                idle_ms: 4000,
                stage: obs::Stage::Solve,
                ticks: 17,
            }],
        };
        let line = report.to_string();
        assert!(line.contains("5/8 campaigns"), "{line}");
        assert!(line.contains("ok 3"), "{line}");
        assert!(line.contains(", crashed 1)"), "{line}");
        assert!(line.contains("| restarts 2"), "{line}");
        assert!(
            !line.contains("hb-overflow"),
            "zero overflow stays quiet: {line}"
        );
        assert!(line.contains("cov 42.5%"), "{line}");
        assert!(line.contains("cache 25%"), "{line}");
        assert!(line.contains("eta 9s"), "{line}");
        assert!(
            line.contains("STALLED: campaign 5 (solve for 4s)"),
            "{line}"
        );
    }
}
