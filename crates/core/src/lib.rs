#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # wasai-core — the WASAI concolic fuzzer (§3)
//!
//! The paper's primary contribution, assembled from the workspace
//! substrates: [`engine::Engine`] drives Algorithm 1 — instrumented
//! execution on the local chain (`wasai-chain` + `wasai-vm`), symbolic trace
//! replay and constraint flipping (`wasai-symex` + `wasai-smt`), seed
//! selection over the database dependency graph, and the vulnerability
//! [`scanner::Scanner`] with the five oracles of §3.5.
//!
//! Use the [`Wasai`] façade for the one-call API; the submodules are public
//! so the baselines and the experiment harness can share the chain setup,
//! payload templates and coverage metric.

pub mod chaos;
pub mod clock;
pub mod config;
pub mod coverage;
pub mod cw;
pub mod dbg;
pub mod engine;
pub mod fleet;
pub mod harness;
pub mod obs_bridge;
pub mod oracle;
pub mod pool;
pub mod profile;
pub mod report;
pub mod scanner;
pub mod seed;
pub mod substrate;
pub mod telemetry;
pub mod wasai;

pub use clock::{CostModel, VirtualClock};
pub use config::FuzzConfig;
pub use coverage::{BranchSites, CoverageSeries};
pub use cw::CwScanner;
pub use engine::Engine;
pub use fleet::journal::{corpus_digest, Journal, JournalMeta, OutcomeRecord};
pub use fleet::supervisor::{run_supervised, SupervisorOpts};
pub use fleet::{
    jobs_from_env, run_campaign_isolated, run_jobs, run_jobs_isolated, run_jobs_isolated_with_sink,
    run_jobs_timed, CampaignOutcome, CampaignRun, FleetStats,
};
pub use harness::{PreparedTarget, TargetInfo};
pub use obs_bridge::{MonitorHandle, MonitorReport, ProgressMonitor};
pub use oracle::{ApiUsageOracle, CustomOracle};
pub use report::{ExploitRecord, FuzzReport, VulnClass};
pub use scanner::{PayloadKind, Scanner};
pub use seed::Seed;
pub use substrate::{
    substrate, CampaignContext, CampaignTarget, ConformanceHarness, ConformanceOp,
    ConformanceVerdict, Substrate, SubstrateKind,
};
pub use telemetry::{
    Metrics, NullSink, Recorder, SmtOutcome, Stage, TelemetryEvent, TelemetrySink, VtimeHistogram,
};
pub use wasai::Wasai;
