//! Fleet scheduler throughput: the same campaign workload on one worker vs
//! four. The workload is `rq4_analyze` over a small wild corpus — real
//! campaigns, so the measurement includes the `PreparedTarget` cache and the
//! slot-vector merge, not just queue overhead.
//!
//! This is a scheduler microbench. The end-to-end throughput ledger is
//! `e2e_bench` (declared in `BENCHMARK.json`): campaigns/s and per-layer
//! wall shares over fixed EOSIO and CosmWasm sweeps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use wasai_bench::{evaluate_with, rq4_analyze, run_tool, Tool};
use wasai_corpus::{table4_benchmark, wild_corpus, WildRates};

fn bench_fleet(c: &mut Criterion) {
    let corpus = wild_corpus(0xf1ee7, 8, WildRates::default());

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);
    for jobs in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("rq4_campaigns", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    let (outcomes, _) = rq4_analyze(&corpus, 0xe05, jobs);
                    std::hint::black_box(outcomes.len());
                });
            },
        );
    }
    group.finish();

    // The shared-artifact cache, isolated from threading: `evaluate_with` on
    // one worker prepares (instrument + compile + branch-site scan) each
    // sample once for all three tools; the uncached loop re-prepares per
    // campaign, which is what the drivers did before `PreparedTarget`.
    let samples = table4_benchmark(0xf1ee7, 0.004);
    let mut group = c.benchmark_group("prepared_cache");
    group.sample_size(10);
    group.bench_function("evaluate_cached", |b| {
        b.iter(|| {
            let (table, _) = evaluate_with(&samples, 0xe05, 1);
            std::hint::black_box(table.len());
        });
    });
    group.bench_function("evaluate_uncached", |b| {
        b.iter(|| {
            let mut flags = 0usize;
            for (i, s) in samples.iter().enumerate() {
                for tool in Tool::ALL {
                    if tool.supports(s.group) {
                        flags += run_tool(tool, s, 0xe05 ^ (i as u64)) as usize;
                    }
                }
            }
            std::hint::black_box(flags);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
