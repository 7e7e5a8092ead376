//! E5 — filter-table lookup cost vs number of installed filters.
//!
//! The paper's claim (§5.1.2): "most of these existing techniques require
//! O(n) time … our solution is more or less independent of the number of
//! filters" — `O(f)` in the number of fields. We sweep the filter count
//! for the DAG (both BMP plugins) and the linear-scan baseline, reporting
//! ns/lookup and the DAG's deterministic memory-access count. The
//! timings are informational; the access count is gated — at every filter
//! count the worst probe stays within Table 2's 20 accesses, a bound with
//! no `n` in it — and a violation exits non-zero.
//!
//! Run: `cargo run --release -p rp-bench --bin filter_scaling`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::report::Table;
use rp_classifier::{BmpKind, DagTable, LinearTable};
use rp_netsim::traffic::random_filters;
use rp_packet::FlowTuple;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

fn probe_tuples(n: usize, seed: u64) -> Vec<FlowTuple> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())),
            dst: IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())),
            proto: if rng.gen_bool(0.5) { 6 } else { 17 },
            sport: rng.gen(),
            dport: rng.gen(),
            rx_if: 0,
        })
        .collect()
}

fn time_lookups<F: FnMut(&FlowTuple)>(probes: &[FlowTuple], rounds: usize, mut f: F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        for p in probes {
            f(p);
        }
    }
    t0.elapsed().as_nanos() as f64 / (rounds * probes.len()) as f64
}

/// Table 2's IPv4 total: the DAG's worst case whatever the filter count.
const PAPER_WORST_ACCESSES: u64 = 20;

fn main() {
    println!("E5: filter lookup cost vs filter count (IPv4 filters)");
    println!();
    let probes = probe_tuples(2048, 99);
    let mut t = Table::new(&[
        "filters",
        "linear ns",
        "DAG/patricia ns",
        "DAG/bspl ns",
        "DAG/bspl worst accesses",
    ]);
    for &n in &[16usize, 128, 1024, 8192, 50_000] {
        eprintln!("[filter_scaling] n = {n}…");
        let filters = random_filters(n, false, 0xE5 + n as u64);

        let mut lin = LinearTable::new();
        let mut pat = DagTable::new(BmpKind::Patricia);
        let mut bspl = DagTable::new(BmpKind::Bspl);
        for (i, f) in filters.into_iter().enumerate() {
            lin.insert(f.clone(), i);
            let _ = pat.insert(f.clone(), i);
            let _ = bspl.insert(f, i);
        }

        // Fewer rounds for the expensive linear sweep at large n.
        let lin_rounds = if n > 1000 { 1 } else { 16 };
        let lin_probes = if n >= 50_000 {
            &probes[..256]
        } else {
            &probes[..]
        };
        let ns_lin = time_lookups(lin_probes, lin_rounds, |p| {
            std::hint::black_box(lin.lookup(p));
        });
        let ns_pat = time_lookups(&probes, 16, |p| {
            std::hint::black_box(pat.lookup(p));
        });
        let ns_bspl = time_lookups(&probes, 16, |p| {
            std::hint::black_box(bspl.lookup(p));
        });
        let worst = probes
            .iter()
            .map(|p| bspl.lookup_with_stats(p).1.total())
            .max()
            .unwrap();
        assert!(
            worst <= PAPER_WORST_ACCESSES,
            "{n} filters: a DAG lookup took {worst} accesses, bound is {PAPER_WORST_ACCESSES}"
        );
        t.row(&[
            n.to_string(),
            format!("{ns_lin:.0}"),
            format!("{ns_pat:.0}"),
            format!("{ns_bspl:.0}"),
            worst.to_string(),
        ]);
    }
    t.print();
    println!();
    println!("expected shape: linear grows ~n; DAG columns stay flat (paper §5.1.2).");
}
