//! Thread-scaling benchmark: batch k-mismatch search throughput as a
//! function of worker count.
//!
//! The batch path is deterministic — occurrence lists and stats are
//! bit-identical at every width — so this bench measures pure wall-clock
//! scaling. Run on a multi-core host to see the speedup; on a single
//! hardware thread the sweep reports the pool's scheduling overhead
//! instead (no assertion is made about throughput either way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kmm_bench::{run_method_par, Workload};
use kmm_core::Method;
use kmm_dna::genome::ReferenceGenome;
use kmm_par::ThreadPool;

fn bench_par_scaling(c: &mut Criterion) {
    let w = Workload::paper(ReferenceGenome::Rat, 0.05, 100, 100);
    let idx = w.index();
    let mut group = c.benchmark_group("par_scaling_batch_search");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(
            BenchmarkId::new("search_batch", threads),
            &pool,
            |b, pool| {
                b.iter(|| run_method_par(&idx, &w.reads, 2, Method::ALGORITHM_A, pool).occurrences)
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("par_scaling_index_build");
    group.sample_size(10);
    let genome = {
        let mut g = ReferenceGenome::Rat.generate_scaled(0.05);
        g.reverse();
        g.push(0);
        g
    };
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("fm_build", threads), &threads, |b, &t| {
            b.iter(|| {
                kmm_bwt::FmIndex::new(&genome, kmm_bwt::FmBuildConfig::default().with_threads(t))
                    .heap_bytes()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_par_scaling);
criterion_main!(benches);
