//! Ablation: parallelizing the naive (No Cube) engine.
//!
//! The paper's Section 6(i) notes the naive iterative algorithm is "too
//! slow" and asks for optimizations. Program **P** runs against shared
//! immutable state, so the per-candidate work partitions across threads;
//! this bench measures the scaling (and the point of diminishing returns
//! from the shared memory bandwidth).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use exq_bench::{natality_db, natality_dims, q_race};
use exq_core::intervention::InterventionEngine;
use exq_core::naive::{explanation_table_naive, explanation_table_naive_with};
use exq_relstore::{ExecConfig, Universal};

fn naive_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_parallel_10k_rows_d3");
    group.sample_size(10);
    let db = natality_db(10_000);
    let u = Universal::compute(&db, &db.full_view());
    let question = q_race(&db);
    let dims = natality_dims(&db, 3);
    let engine = InterventionEngine::with_universal(&db, u);

    group.bench_function("sequential", |b| {
        b.iter(|| explanation_table_naive(&db, &engine, &question, &dims).unwrap())
    });
    for threads in [2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("parallel", threads), &threads, |b, &t| {
            let exec = ExecConfig::with_threads(t);
            b.iter(|| explanation_table_naive_with(&db, &engine, &question, &dims, &exec).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, naive_scaling);
criterion_main!(benches);
