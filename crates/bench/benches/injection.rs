//! Microbenchmarks of the error-injection framework: the cost of the fault models themselves
//! and the end-to-end overhead an injector hook adds to a model forward pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use realm_inject::{
    error_model::{BitFlipModel, ErrorModel, FixedBitModel, MagFreqModel},
    injector::ErrorInjector,
    targeting::Target,
};
use realm_llm::{config::ModelConfig, model::Model, Component, NoopHook};
use realm_tensor::rng;

fn bench_error_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("error_models");
    group.sample_size(30);
    let acc = vec![12345i32; 128 * 128];
    for (label, ber) in [("ber_1e-6", 1e-6), ("ber_1e-3", 1e-3), ("ber_1e-2", 1e-2)] {
        let model = BitFlipModel::high_bits(ber);
        group.bench_with_input(BenchmarkId::new("bitflip", label), &ber, |b, _| {
            let mut r = rng::seeded(1);
            b.iter(|| {
                let mut a = acc.clone();
                model.corrupt(&mut r, &mut a)
            });
        });
    }
    let fixed = FixedBitModel::bit30(1e-3);
    group.bench_function("fixed_bit30_1e-3", |b| {
        let mut r = rng::seeded(2);
        b.iter(|| {
            let mut a = acc.clone();
            fixed.corrupt(&mut r, &mut a)
        });
    });
    let magfreq = MagFreqModel::new(1 << 20, 16);
    group.bench_function("magfreq_16x2^20", |b| {
        let mut r = rng::seeded(3);
        b.iter(|| {
            let mut a = acc.clone();
            magfreq.corrupt(&mut r, &mut a)
        });
    });
    group.finish();
}

fn bench_injected_prefill(c: &mut Criterion) {
    let mut group = c.benchmark_group("injected_prefill");
    group.sample_size(10);
    let model = Model::new(&ModelConfig::opt_1_3b_proxy(), 1).expect("valid preset");
    let prompt: Vec<u32> = (0..16u32).map(|t| t % 17).collect();

    group.bench_function("clean", |b| {
        b.iter(|| model.prefill(&prompt, &mut NoopHook).unwrap());
    });
    group.bench_function("with_injector_ber_1e-3", |b| {
        b.iter(|| {
            let mut injector = ErrorInjector::everywhere(BitFlipModel::high_bits(1e-3), 5);
            model.prefill(&prompt, &mut injector).unwrap()
        });
    });
    group.bench_function("with_targeted_injector", |b| {
        b.iter(|| {
            let mut injector = ErrorInjector::new(
                FixedBitModel::bit30(1e-3),
                Target::new().component(Component::O),
                5,
            );
            model.prefill(&prompt, &mut injector).unwrap()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_error_models, bench_injected_prefill);
criterion_main!(benches);
