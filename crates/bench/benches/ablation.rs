//! Ablation benchmarks for the engine knobs the paper fixes by hand or
//! leaves open: runtime impact of the m-dominator candidate cap, the
//! balancing iteration limit, the generalized-cofactor operator and the
//! partition support bound. (The quality side of the ablation is printed by
//! `cargo run -p bench --bin ablation`.)

use bdsmaj::{bds_maj, BdsMajOptions, CofactorOp};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_candidate_cap(c: &mut Criterion) {
    let net = circuits::suite::benchmark("Wallace 16 bit").unwrap();
    let mut group = c.benchmark_group("ablation/m_dominator_cap");
    group.sample_size(10);
    for cap in [2usize, 8, 32] {
        let mut opts = BdsMajOptions::default();
        opts.maj.max_candidates = cap;
        group.bench_function(format!("cap_{cap}"), |b| {
            b.iter(|| std::hint::black_box(bds_maj(&net, &opts)));
        });
    }
    group.finish();
}

fn bench_iterations(c: &mut Criterion) {
    let net = circuits::suite::benchmark("Div 18 bit").unwrap();
    let mut group = c.benchmark_group("ablation/balance_iterations");
    group.sample_size(10);
    for iters in [0usize, 5, 20] {
        let mut opts = BdsMajOptions::default();
        opts.maj.max_iterations = iters;
        group.bench_function(format!("iters_{iters}"), |b| {
            b.iter(|| std::hint::black_box(bds_maj(&net, &opts)));
        });
    }
    group.finish();
}

fn bench_cofactor_op(c: &mut Criterion) {
    let net = circuits::suite::benchmark("MAC 16 bit").unwrap();
    let mut group = c.benchmark_group("ablation/cofactor_op");
    group.sample_size(10);
    for (name, op) in [
        ("restrict", CofactorOp::Restrict),
        ("constrain", CofactorOp::Constrain),
    ] {
        let mut opts = BdsMajOptions::default();
        opts.maj.cofactor = op;
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(bds_maj(&net, &opts)));
        });
    }
    group.finish();
}

fn bench_partition_bound(c: &mut Criterion) {
    let net = circuits::suite::benchmark("SQRT 32 bit").unwrap();
    let mut group = c.benchmark_group("ablation/partition_support");
    group.sample_size(10);
    for bound in [8usize, 12, 16] {
        let mut opts = BdsMajOptions::default();
        opts.engine.partition.max_support = bound;
        group.bench_function(format!("support_{bound}"), |b| {
            b.iter(|| std::hint::black_box(bds_maj(&net, &opts)));
        });
    }
    group.finish();
}

criterion_group!(
    ablation,
    bench_candidate_cap,
    bench_iterations,
    bench_cofactor_op,
    bench_partition_bound
);
criterion_main!(ablation);
