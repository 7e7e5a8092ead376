//! Criterion bench comparing the two BMP plugins (PATRICIA, BSPL) — the
//! per-level engine choice inside the DAG classifier — and the compiled
//! DIR-24-8 FIB the routing table reads, on route-table-scale prefix sets.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_lpm::{BsplTable, Dir24Table, LpmTable, PatriciaTable, Prefix};

fn prefixes(n: usize, seed: u64) -> Vec<(Prefix<u32>, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let len = *[8u8, 16, 19, 20, 21, 22, 23, 24, 32]
                .get(rng.gen_range(0..9))
                .unwrap();
            (Prefix::new(rng.gen::<u32>(), len), i as u32)
        })
        .collect()
}

fn bench_lpm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpm_lookup");
    for &n in &[1_000usize, 100_000] {
        let pfx = prefixes(n, n as u64);
        let mut pat = PatriciaTable::new();
        let mut bspl = BsplTable::new();
        let mut dir = Dir24Table::new();
        for (p, v) in &pfx {
            pat.insert(*p, *v);
            bspl.insert(*p, *v);
            dir.insert(*p, *v);
        }
        dir.compile();
        let mut rng = StdRng::seed_from_u64(7);
        let probes: Vec<u32> = (0..1024).map(|_| rng.gen()).collect();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("patricia", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) & 1023;
                black_box(pat.lookup(probes[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("bspl", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) & 1023;
                black_box(bspl.lookup(probes[i]))
            })
        });
        group.bench_with_input(BenchmarkId::new("dir24", n), &n, |b, _| {
            b.iter(|| {
                i = (i + 1) & 1023;
                black_box(dir.lookup(probes[i]))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lpm);
criterion_main!(benches);
