//! E2 — reproduce **Table 2: Memory Accesses for a Filter Lookup**.
//!
//! The paper counts worst-case memory accesses for one filter-table
//! lookup with ~50,000 filters installed and the BSPL BMP plugin:
//!
//! ```text
//! Access to function pointer for BMP function        1
//! Access to function pointer for index hash          1
//! IP address lookup (2·log2(32) / 2·log2(128))    10/14
//! Port number lookup                                  2
//! Access to DAG edges                                  6
//! Total                                            20/24
//! ```
//!
//! Two sections:
//!
//! 1. **Adversarial length population** — prefix sets that populate the
//!    full range of lengths at both address levels, which is exactly the
//!    regime the paper's `2·log2(W)` accounting assumes. Measured worst
//!    case must equal the paper's numbers.
//! 2. **Realistic 50,000 random filters** — with BGP-like CIDR length
//!    mixes the mutating binary search visits only populated lengths, so
//!    the measured worst case comes in *under* the paper's bound (the
//!    bound still holds).
//!
//! Exits non-zero if a measured count contradicts the paper column, and
//! rewrites `BENCH_table2.json` (CI diffs it against the committed copy).
//!
//! Run: `cargo run --release -p rp-bench --bin table2`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_core::obs::Histogram;
use rp_bench::report::{hist_json, write_bench_json, Json, Table};
use rp_classifier::{AddrMatch, BmpKind, DagTable, FilterSpec, LookupStats, PortMatch};
use rp_lpm::Prefix;
use rp_netsim::traffic::random_filters;
use rp_packet::FlowTuple;
use std::net::IpAddr;

const FILTERS: usize = 50_000;
const PROBES: usize = 20_000;

/// Synthesize a tuple matching `spec` (random bits in wildcarded
/// positions) so probes exercise deep DAG walks.
fn matching_tuple(spec: &FilterSpec, rng: &mut StdRng) -> FlowTuple {
    fn addr_of(m: &AddrMatch, rng: &mut StdRng) -> IpAddr {
        match m {
            AddrMatch::Any => IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())),
            AddrMatch::V4(p) => {
                let suffix_bits = 32 - u32::from(p.len());
                let suffix = if suffix_bits == 0 {
                    0
                } else {
                    rng.gen::<u32>() >> (32 - suffix_bits)
                };
                IpAddr::V4(std::net::Ipv4Addr::from(p.bits() | suffix))
            }
            AddrMatch::V6(p) => {
                let suffix_bits = 128 - u32::from(p.len());
                let suffix = if suffix_bits == 0 {
                    0
                } else {
                    rng.gen::<u128>() >> (128 - suffix_bits)
                };
                IpAddr::V6(std::net::Ipv6Addr::from(p.bits() | suffix))
            }
        }
    }
    let port_of = |m: &PortMatch, rng: &mut StdRng| match m {
        PortMatch::Any => rng.gen(),
        PortMatch::Range(lo, hi) => rng.gen_range(*lo..=*hi),
    };
    FlowTuple {
        src: addr_of(&spec.src, rng),
        dst: addr_of(&spec.dst, rng),
        proto: spec.proto.unwrap_or(if rng.gen_bool(0.5) { 6 } else { 17 }),
        sport: port_of(&spec.sport, rng),
        dport: port_of(&spec.dport, rng),
        rx_if: spec.rx_if.unwrap_or(0),
    }
}

fn worst_case(
    dag: &DagTable<u32>,
    specs: &[FilterSpec],
    probes: usize,
    seed: u64,
) -> (LookupStats, Histogram) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut worst = LookupStats::default();
    let mut hist = Histogram::default();
    for i in 0..probes {
        let t = if i % 4 == 0 {
            // Fully random probe (likely early miss).
            let mut t = matching_tuple(&specs[rng.gen_range(0..specs.len())], &mut rng);
            t.sport = rng.gen();
            t.dport = rng.gen();
            t
        } else {
            matching_tuple(&specs[rng.gen_range(0..specs.len())], &mut rng)
        };
        let (_, stats) = dag.lookup_with_stats(&t);
        hist.observe(stats.total());
        if stats.total() > worst.total() {
            worst = stats;
        }
    }
    (worst, hist)
}

/// Section 1: populate every prefix length at both address levels along
/// one probe path. Two groups of filters:
///
/// * one filter per source length 1..W-1 (nested prefixes of the all-ones
///   address) with a fixed exact destination — the root source matcher
///   then holds W-1 populated lengths, so BSPL does `log2(W)` probes;
/// * under the *longest* source prefix, one filter per destination
///   length 1..W-1 — the destination matcher on that path also holds
///   W-1 lengths.
///
/// A probe matching the deepest path therefore pays `log2(W)` probes per
/// address — exactly the paper's `2·log2(32)=10` / `2·log2(128)=14`.
fn adversarial(v6: bool) -> (LookupStats, Histogram, usize) {
    let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    let mut specs = Vec::new();
    let max_len: u8 = if v6 { 127 } else { 31 };
    let src_of = |len: u8| {
        if v6 {
            AddrMatch::V6(Prefix::new(u128::MAX, len))
        } else {
            AddrMatch::V4(Prefix::new(u32::MAX, len))
        }
    };
    let dst_of = |len: u8| {
        if v6 {
            AddrMatch::V6(Prefix::new(u128::MAX, len))
        } else {
            AddrMatch::V4(Prefix::new(u32::MAX, len))
        }
    };
    let mut id = 0u32;
    // Group 1: every source length, fixed exact destination.
    for sl in 1..=max_len {
        let spec = FilterSpec {
            src: src_of(sl),
            dst: dst_of(max_len),
            proto: Some(17),
            sport: PortMatch::eq(1000),
            dport: PortMatch::eq(2000),
            rx_if: None,
        };
        specs.push(spec.clone());
        dag.insert(spec, id).unwrap();
        id += 1;
    }
    // Group 2: under the longest source prefix, every destination length.
    for dl in 1..=max_len {
        let spec = FilterSpec {
            src: src_of(max_len),
            dst: dst_of(dl),
            proto: Some(17),
            sport: PortMatch::eq(1000),
            dport: PortMatch::eq(2000),
            rx_if: None,
        };
        specs.push(spec.clone());
        dag.insert(spec, id).unwrap();
        id += 1;
    }
    let (worst, hist) = worst_case(&dag, &specs, 4000, 0xAD5E);
    (worst, hist, specs.len())
}

/// Section 2: realistic random filters.
fn realistic(v6: bool) -> (LookupStats, Histogram, usize) {
    let specs = random_filters(FILTERS, v6, 0xF1F7E2);
    let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    let mut installed = Vec::new();
    for (i, f) in specs.into_iter().enumerate() {
        // Random port fields occasionally collide ambiguously; skip those
        // (real filter sets are curated policies, not random).
        if dag.insert(f.clone(), i as u32).is_ok() {
            installed.push(f);
        }
    }
    let (worst, hist) = worst_case(&dag, &installed, PROBES, 7);
    (worst, hist, installed.len())
}

/// A Table 2 row: the paper's label, its v4 / v6 count, and where ours
/// is read from.
type Component = (&'static str, u64, u64, fn(&LookupStats) -> u64);

const PAPER: [Component; 6] = [
    ("Access to fn pointer for BMP function", 1, 1, |s| {
        s.bmp_fn_ptr
    }),
    ("Access to fn pointer for index hash", 1, 1, |s| {
        s.hash_fn_ptr
    }),
    ("IP address lookup (2*log2(W))", 10, 14, |s| s.addr_probes),
    ("Port number lookup", 2, 2, |s| s.port_probes),
    ("Access to DAG edges", 6, 6, |s| s.dag_edges),
    ("Total", 20, 24, LookupStats::total),
];

/// Print one section and gate it against the paper column: every
/// component equal to the paper's count when `exact` (the accounting
/// regime the paper assumes), never above it otherwise.
fn print_table(title: &str, w4: LookupStats, n4: usize, w6: LookupStats, n6: usize, exact: bool) {
    println!();
    println!("{title}");
    println!("({n4} IPv4 / {n6} IPv6 filters installed)");
    let mut t = Table::new(&["Component", "paper v4", "ours v4", "paper v6", "ours v6"]);
    for (name, p4, p6, ours) in PAPER {
        let (o4, o6) = (ours(&w4), ours(&w6));
        t.row(&[
            name.into(),
            p4.to_string(),
            o4.to_string(),
            p6.to_string(),
            o6.to_string(),
        ]);
        for (family, paper, got) in [("v4", p4, o4), ("v6", p6, o6)] {
            assert!(
                if exact { got == paper } else { got <= paper },
                "{title}: {name} ({family}) is {got}, paper says {paper}"
            );
        }
    }
    t.print();
    println!(
        "worst-case at the paper's 60 ns/access: {:.2} µs v4, {:.2} µs v6 (paper: 1.2 / 1.4 µs)",
        w4.total() as f64 * 0.06,
        w6.total() as f64 * 0.06
    );
}

fn json_row(
    section: &str,
    family: &str,
    w: &LookupStats,
    hist: &Histogram,
    n: usize,
    paper_total: u64,
) -> Json {
    Json::obj(vec![
        ("section", Json::from(section)),
        ("family", Json::from(family)),
        ("filters", Json::from(n)),
        ("bmp_fn_ptr", Json::from(w.bmp_fn_ptr)),
        ("hash_fn_ptr", Json::from(w.hash_fn_ptr)),
        ("addr_probes", Json::from(w.addr_probes)),
        ("port_probes", Json::from(w.port_probes)),
        ("dag_edges", Json::from(w.dag_edges)),
        ("total", Json::from(w.total())),
        ("paper_total", Json::from(paper_total)),
        // Distribution of per-probe access counts (log-2 buckets), not
        // just the worst case — shows how far typical lookups sit below
        // the bound.
        ("access_hist", hist_json(hist)),
    ])
}

fn main() {
    eprintln!("[table2] adversarial length population…");
    let (a4, ah4, an4) = adversarial(false);
    let (a6, ah6, an6) = adversarial(true);
    print_table(
        "Table 2 — adversarial: every prefix length populated (paper's accounting regime)",
        a4,
        an4,
        a6,
        an6,
        true,
    );

    eprintln!("[table2] realistic 50k random filters…");
    let (r4, rh4, rn4) = realistic(false);
    let (r6, rh6, rn6) = realistic(true);
    print_table(
        "Table 2 — realistic: 50,000 random CIDR filters (mutating binary search beats the bound)",
        r4,
        rn4,
        r6,
        rn6,
        false,
    );
    println!();
    println!("Both sections are independent of the number of filters (the paper's");
    println!("headline property); the bound 20/24 is met exactly in the adversarial");
    println!("regime and undercut with realistic length distributions.");

    let rows = vec![
        json_row("adversarial", "v4", &a4, &ah4, an4, 20),
        json_row("adversarial", "v6", &a6, &ah6, an6, 24),
        json_row("realistic", "v4", &r4, &rh4, rn4, 20),
        json_row("realistic", "v6", &r6, &rh6, rn6, 24),
    ];
    let extra = vec![
        ("filters_requested", Json::from(FILTERS)),
        ("probes", Json::from(PROBES)),
    ];
    let path = write_bench_json("table2", rows, extra).expect("write BENCH_table2.json");
    eprintln!("[table2] wrote {}", path.display());
}
