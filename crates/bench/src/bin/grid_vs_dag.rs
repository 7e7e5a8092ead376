//! Ablation — set-pruning DAG vs grid-of-tries on 2D filters.
//!
//! Paper §5.1.2: "if there are many ambiguous filters, the memory
//! requirements of our algorithm can be excessive. More advanced
//! techniques such as grid-of-tries can provide better memory utilization
//! without sacrificing performance, but work only in the special case of
//! two-dimensional filters."
//!
//! This binary measures exactly that trade-off: identical 2D (src, dst)
//! filter sets are installed into the six-field set-pruning DAG and into
//! grid-of-tries; we compare node counts (memory) and lookup times. The
//! workload deliberately includes cross-products of overlapping prefixes
//! — the replication-hostile case.
//!
//! The sweep stops at 1024 filters: beyond that the set-pruning DAG's
//! replication on this overlap-heavy workload exhausts memory — which is
//! itself the §5.1.2 observation being quantified.
//!
//! Node counts are deterministic (seeded filter sets) and gated: the DAG
//! must hold more nodes than the grid at every size, its nodes *per
//! filter* must keep growing (replication), and the grid's must not
//! (near-linear). Lookup times are informational.
//!
//! Run: `cargo run --release -p rp-bench --bin grid_vs_dag`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_bench::report::Table;
use rp_classifier::grid::TwoDFilter;
use rp_classifier::{BmpKind, DagTable, FilterSpec, GridOfTries};
use rp_lpm::Prefix;
use rp_packet::FlowTuple;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

/// Overlap-heavy 2D filters: nested prefixes on both axes.
fn overlapping_filters(n: usize, seed: u64) -> Vec<TwoDFilter> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Few distinct base networks, many lengths → heavy nesting.
            let dbase: u32 =
                0x0A00_0000 | (rng.gen_range(0u32..4) << 20) | rng.gen_range(0u32..0xFFFF);
            let sbase: u32 =
                0xC0A8_0000 | (rng.gen_range(0u32..4) << 8) | rng.gen_range(0u32..0xFF);
            TwoDFilter {
                dst: Prefix::new(dbase, rng.gen_range(8..=32)),
                src: Prefix::new(sbase, rng.gen_range(8..=32)),
            }
        })
        .collect()
}

fn to_spec(f: &TwoDFilter) -> FilterSpec {
    format!(
        "{}/{}, {}/{}, *, *, *, *",
        Ipv4Addr::from(f.src.bits()),
        f.src.len(),
        Ipv4Addr::from(f.dst.bits()),
        f.dst.len()
    )
    .parse()
    .unwrap()
}

fn main() {
    println!("ablation: set-pruning DAG vs grid-of-tries on overlap-heavy 2D filters");
    println!();
    let mut t = Table::new(&[
        "filters",
        "DAG nodes",
        "grid nodes (d+s)",
        "DAG ns/lookup",
        "grid ns/lookup",
    ]);
    let mut rng = StdRng::seed_from_u64(1);
    // (DAG, grid) nodes per filter at the previous size.
    let mut prev: Option<(f64, f64)> = None;
    for &n in &[64usize, 256, 512, 1024] {
        let filters = overlapping_filters(n, 42 + n as u64);
        let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
        for (i, f) in filters.iter().enumerate() {
            dag.insert(to_spec(f), i as u32).unwrap();
        }
        let grid = GridOfTries::from_filters(filters.iter().map(|f| (*f, 0u32)).collect());
        let (dn, sn) = grid.node_counts();
        let per_filter = (
            dag.node_count() as f64 / n as f64,
            (dn + sn) as f64 / n as f64,
        );
        assert!(
            per_filter.0 > per_filter.1,
            "{n} filters: DAG {per_filter:?} nodes/filter (DAG, grid) — no replication to show"
        );
        if let Some(p) = prev {
            assert!(
                per_filter.0 > p.0 && per_filter.1 <= p.1,
                "{n} filters: nodes/filter (DAG, grid) went {p:?} -> {per_filter:?}; \
                 expected DAG super-linear, grid near-linear"
            );
        }
        prev = Some(per_filter);

        let probes: Vec<(u32, u32)> = (0..2048)
            .map(|_| {
                (
                    0x0A00_0000 | rng.gen_range(0u32..4) << 20 | rng.gen::<u32>() & 0xFFFF,
                    0xC0A8_0000 | rng.gen_range(0u32..4) << 8 | rng.gen::<u32>() & 0xFF,
                )
            })
            .collect();
        let tuples: Vec<FlowTuple> = probes
            .iter()
            .map(|(d, s)| FlowTuple {
                src: IpAddr::V4(Ipv4Addr::from(*s)),
                dst: IpAddr::V4(Ipv4Addr::from(*d)),
                proto: 17,
                sport: 1,
                dport: 2,
                rx_if: 0,
            })
            .collect();

        let t0 = Instant::now();
        for tup in &tuples {
            std::hint::black_box(dag.lookup(tup));
        }
        let dag_ns = t0.elapsed().as_nanos() as f64 / tuples.len() as f64;
        let t0 = Instant::now();
        for (d, s) in &probes {
            std::hint::black_box(grid.lookup(*d, *s));
        }
        let grid_ns = t0.elapsed().as_nanos() as f64 / probes.len() as f64;

        t.row(&[
            n.to_string(),
            dag.node_count().to_string(),
            format!("{}", dn + sn),
            format!("{dag_ns:.0}"),
            format!("{grid_ns:.0}"),
        ]);
    }
    t.print();
    println!();
    println!("expected shape: DAG node count grows super-linearly with nested");
    println!("filters (replication); grid-of-tries stays near-linear at similar");
    println!("or better lookup cost — matching the paper's §5.1.2 assessment.");
}
