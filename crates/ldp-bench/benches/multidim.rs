//! Throughput of the multidimensional client encoders: the paper's
//! Algorithm 4 vs Duchi et al.'s Algorithm 3 vs the ε/d composition
//! baseline, at the census dimensionalities — each through the shipping
//! [`ClientEncoder`] encode path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_analytics::{BestEffortNumeric, ClientEncoder, Protocol};
use ldp_core::rng::seeded_rng;
use ldp_core::{AttrSpec, AttrValue, Epsilon, NumericKind, OracleKind};
use std::hint::black_box;

fn tuple(d: usize) -> Vec<AttrValue> {
    (0..d)
        .map(|j| AttrValue::Numeric((j as f64 / d as f64) * 1.8 - 0.9))
        .collect()
}

fn bench_multidim(c: &mut Criterion) {
    let mut group = c.benchmark_group("multidim_perturb");
    let eps = Epsilon::new(1.0).unwrap();
    let arms = [
        (
            "algorithm4_hm",
            Protocol::Sampling {
                numeric: NumericKind::Hybrid,
                oracle: OracleKind::Oue,
            },
            2,
        ),
        (
            "duchi_md",
            Protocol::BestEffort {
                numeric: BestEffortNumeric::DuchiMultidim,
                oracle: OracleKind::Oue,
            },
            3,
        ),
        (
            "composition_pm",
            Protocol::BestEffort {
                numeric: BestEffortNumeric::PerAttribute(NumericKind::Piecewise),
                oracle: OracleKind::Oue,
            },
            4,
        ),
    ];
    for d in [16usize, 94] {
        let t = tuple(d);
        for (name, protocol, seed) in arms {
            let encoder = ClientEncoder::new(protocol, eps, vec![AttrSpec::Numeric; d]).unwrap();
            let mut report = encoder.empty_report();
            let mut scratch = encoder.scratch();
            let mut rng = seeded_rng(seed);
            group.bench_with_input(BenchmarkId::new(name, d), &d, |b, _| {
                b.iter(|| {
                    encoder
                        .encode_into(black_box(&t), &mut rng, &mut report, &mut scratch)
                        .unwrap();
                    black_box(&report);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_multidim);
criterion_main!(benches);
