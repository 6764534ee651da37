//! The workloads and the corpora they generate from a seed.

use std::collections::BTreeSet;

use wasai_chain::abi::Abi;
use wasai_core::VulnClass;
use wasai_corpus::{cw_corpus, wild_corpus, WildRates};
use wasai_wasm::encode;

/// One contract as the audit receives it: encoded bytes and ABI, plus the
/// generator's ground-truth label, which only the scoring reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub wasm: Vec<u8>,
    pub abi: Abi,
    pub label: BTreeSet<VulnClass>,
}

/// The benchmark's workloads; `BASELINE.md` records the layer shares each
/// one leans on. Every corpus holds at least 100 contracts, so p90 has ten
/// campaigns above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's concolic loop on default-rate wild EOSIO contracts:
    /// replay and solve dominate.
    EosioSweep,
    /// The CosmWasm ground-truth corpus: many short executions, no replay
    /// or solve, exact labels.
    CwSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "eosio_sweep" => Some(Workload::EosioSweep),
            "cw_sweep" => Some(Workload::CwSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EosioSweep => "eosio_sweep",
            Workload::CwSweep => "cw_sweep",
        }
    }

    fn contracts(self) -> usize {
        match self {
            Workload::EosioSweep => 400,
            Workload::CwSweep => 1000,
        }
    }

    /// The classes verdicts are scored on.
    pub fn classes(self) -> &'static [VulnClass] {
        match self {
            Workload::EosioSweep => &VulnClass::ALL,
            Workload::CwSweep => &VulnClass::COSMWASM,
        }
    }

    /// Whether every verdict must equal its label (the CosmWasm generator's
    /// labels are exact; the EOSIO fuzzer is scored, not gated).
    pub fn exact_labels(self) -> bool {
        self == Workload::CwSweep
    }

    /// Generate and encode the workload's corpus for `seed`.
    pub fn corpus(self, seed: u64) -> Vec<Contract> {
        let n = self.contracts();
        match self {
            Workload::EosioSweep => wild_corpus(seed, n, WildRates::default())
                .into_iter()
                .map(|w| Contract {
                    wasm: encode::encode(&w.deployed.module),
                    abi: w.deployed.abi,
                    label: w.deployed.label,
                })
                .collect(),
            Workload::CwSweep => cw_corpus(seed, n)
                .into_iter()
                .map(|c| Contract {
                    wasm: encode::encode(&c.module),
                    abi: Abi::default(),
                    label: c.label,
                })
                .collect(),
        }
    }
}
