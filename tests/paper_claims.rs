//! The paper's deterministic claims, asserted: Table 2's memory-access
//! counts (E2), a lookup cost with no filter count in it (E5, §5.1.2),
//! the grid-of-tries remark of §5.1.2 (E10), and §6.1's link sharing by
//! DRR (E6) and H-FSC (E7) in simulated time. Every quantity here repeats
//! exactly, so every one is gated; anything timed belongs to the
//! benchmark of record (`benchmark/`).
//!
//! Two tests build DAGs that take a minute or more in a debug build, so
//! they run in release only: `cargo test --release --test paper_claims`.
//! One of them also compares the committed `BENCH_table2.json` byte for
//! byte; after a deliberate change to what it records, rewrite the file
//! with `cargo test --release --test paper_claims -- --ignored
//! regenerate_bench_table2`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_plugins::classifier::{
    AddrMatch, BmpKind, DagTable, FilterSpec, GridOfTries, LookupStats, PortMatch, TwoDFilter,
};
use router_plugins::core::obs::Histogram;
use router_plugins::lpm::Prefix;
use router_plugins::netsim::traffic::random_filters;
use router_plugins::packet::FlowTuple;
use router_plugins::sched::{DrrScheduler, HfscScheduler, LinkSim, Scheduler, ServiceCurve};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

// E2 — Table 2: memory accesses for a filter lookup.

/// A Table 2 row: the paper's label, its v4 / v6 count, and where ours
/// is read from.
type Component = (&'static str, u64, u64, fn(&LookupStats) -> u64);

const PAPER: [Component; 6] = [
    ("BMP function pointer", 1, 1, |s| s.bmp_fn_ptr),
    ("index-hash function pointer", 1, 1, |s| s.hash_fn_ptr),
    ("IP address lookup (2*log2(W))", 10, 14, |s| s.addr_probes),
    ("port number lookup", 2, 2, |s| s.port_probes),
    ("DAG edges", 6, 6, |s| s.dag_edges),
    ("total", 20, 24, LookupStats::total),
];

/// Filters in the realistic rows, and probes into each of them.
const FILTERS: usize = 50_000;
const PROBES: usize = 20_000;
const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_table2.json");

/// One measured row of `BENCH_table2.json`.
struct Row {
    section: &'static str,
    v6: bool,
    filters: usize,
    worst: LookupStats,
    hist: Histogram,
}

impl Row {
    /// The costliest of `probes` lookups into `dag`, each matching one of
    /// its `specs` (every fourth with random ports, likely an early miss),
    /// and the distribution of their access counts.
    fn measure(
        section: &'static str,
        v6: bool,
        dag: &DagTable<u32>,
        specs: &[FilterSpec],
        probes: usize,
        seed: u64,
    ) -> Row {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut worst = LookupStats::default();
        let mut hist = Histogram::default();
        for i in 0..probes {
            let mut t = matching_tuple(&specs[rng.gen_range(0..specs.len())], &mut rng);
            if i % 4 == 0 {
                t.sport = rng.gen();
                t.dport = rng.gen();
            }
            let (_, stats) = dag.lookup_with_stats(&t);
            hist.observe(stats.total());
            if stats.total() > worst.total() {
                worst = stats;
            }
        }
        let filters = specs.len();
        Row {
            section,
            v6,
            filters,
            worst,
            hist,
        }
    }

    fn family(&self) -> &'static str {
        ["v4", "v6"][self.v6 as usize]
    }

    /// Every component equal to the paper's count when `exact` (the
    /// accounting regime the paper assumes), never above it otherwise.
    fn assert_against_paper(&self, exact: bool) {
        for (name, p4, p6, ours) in PAPER {
            let (paper, got) = (if self.v6 { p6 } else { p4 }, ours(&self.worst));
            assert!(
                if exact { got == paper } else { got <= paper },
                "Table 2, {} {}: {name} is {got}, paper says {paper}",
                self.section,
                self.family()
            );
        }
    }
}

/// A tuple matching `spec`, random in its wildcarded bits, so probes
/// exercise deep DAG walks.
fn matching_tuple(spec: &FilterSpec, rng: &mut StdRng) -> FlowTuple {
    fn addr_of(m: &AddrMatch, rng: &mut StdRng) -> IpAddr {
        match m {
            AddrMatch::Any => IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())),
            AddrMatch::V4(p) => {
                let bits = 32 - u32::from(p.len());
                let suffix = (bits > 0).then(|| rng.gen::<u32>() >> (32 - bits));
                IpAddr::V4(Ipv4Addr::from(p.bits() | suffix.unwrap_or(0)))
            }
            AddrMatch::V6(p) => {
                let bits = 128 - u32::from(p.len());
                let suffix = (bits > 0).then(|| rng.gen::<u128>() >> (128 - bits));
                IpAddr::V6(Ipv6Addr::from(p.bits() | suffix.unwrap_or(0)))
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

/// The paper's accounting regime: every prefix length populated at both
/// address levels along one probe path. One filter per source length
/// 1..W-1 (nested prefixes of the all-ones address) with a fixed exact
/// destination, so the root source matcher holds W-1 lengths; and under
/// the longest source prefix one filter per destination length 1..W-1.
/// A probe down the deepest path pays `log2(W)` binary-search probes per
/// address — the paper's `2·log2(32) = 10` / `2·log2(128) = 14`.
fn adversarial(v6: bool) -> Row {
    let w: u8 = if v6 { 127 } else { 31 };
    let prefix = |len: u8| {
        if v6 {
            AddrMatch::V6(Prefix::new(u128::MAX, len))
        } else {
            AddrMatch::V4(Prefix::new(u32::MAX, len))
        }
    };
    let specs: Vec<FilterSpec> = (1..=w)
        .map(|sl| (sl, w))
        .chain((1..=w).map(|dl| (w, dl)))
        .map(|(sl, dl)| FilterSpec {
            src: prefix(sl),
            dst: prefix(dl),
            proto: Some(17),
            sport: PortMatch::eq(1000),
            dport: PortMatch::eq(2000),
            rx_if: None,
        })
        .collect();
    let mut dag = DagTable::new(BmpKind::Bspl);
    for (id, spec) in specs.iter().enumerate() {
        dag.insert(spec.clone(), id as u32).unwrap();
    }
    Row::measure("adversarial", v6, &dag, &specs, 4000, 0xAD5E)
}

/// 50 000 random filters with BGP-like CIDR length mixes: the mutating
/// binary search visits only populated lengths, so the worst case comes
/// in under the paper's bound. Returns the DAG too, for E5's probes.
fn realistic(v6: bool) -> (Row, DagTable<u32>) {
    let specs = random_filters(FILTERS, v6, 0xF1F7E2);
    let mut dag = DagTable::new(BmpKind::Bspl);
    let mut installed = Vec::new();
    for (i, f) in specs.into_iter().enumerate() {
        // Random port fields occasionally collide ambiguously; skip those
        // (real filter sets are curated policies, not random).
        if dag.insert(f.clone(), i as u32).is_ok() {
            installed.push(f);
        }
    }
    let row = Row::measure("realistic", v6, &dag, &installed, PROBES, 7);
    (row, dag)
}

/// `BENCH_table2.json`: the four rows, each with its per-probe
/// access-count histogram (log-2 buckets, trailing zeros trimmed).
/// Integers print integral, a non-integral mean as `{:?}`.
fn render_table2(rows: &[Row]) -> String {
    let rows: Vec<String> = rows.iter().map(render_row).collect();
    let rows = rows.join(",\n");
    format!(
        r#"{{
  "bench": "table2",
  "schema_version": 1,
  "filters_requested": {FILTERS},
  "probes": {PROBES},
  "rows": [
{rows}
  ]
}}
"#
    )
}

fn render_row(r: &Row) -> String {
    let LookupStats {
        bmp_fn_ptr,
        hash_fn_ptr,
        addr_probes,
        port_probes,
        dag_edges,
    } = r.worst;
    let (section, family, filters, total) = (r.section, r.family(), r.filters, r.worst.total());
    let paper_total = if r.v6 { PAPER[5].2 } else { PAPER[5].1 };
    let (count, sum, mean) = (r.hist.count, r.hist.sum, r.hist.mean());
    let mean = if mean.fract() == 0.0 {
        format!("{mean:.0}")
    } else {
        format!("{mean:?}")
    };
    let buckets = r.hist.trimmed_buckets().iter().map(u64::to_string);
    let buckets = buckets.collect::<Vec<_>>().join(",\n          ");
    format!(
        r#"    {{
      "section": "{section}",
      "family": "{family}",
      "filters": {filters},
      "bmp_fn_ptr": {bmp_fn_ptr},
      "hash_fn_ptr": {hash_fn_ptr},
      "addr_probes": {addr_probes},
      "port_probes": {port_probes},
      "dag_edges": {dag_edges},
      "total": {total},
      "paper_total": {paper_total},
      "access_hist": {{
        "count": {count},
        "sum": {sum},
        "mean": {mean},
        "buckets": [
          {buckets}
        ]
      }}
    }}"#
    )
}

/// Measure, gate and render all four rows. The realistic IPv4 DAG also
/// carries E5's 50 000-filter point, so one build serves both probe
/// distributions.
fn table2_artifact() -> String {
    let mut rows = vec![adversarial(false), adversarial(true)];
    for row in &rows {
        row.assert_against_paper(true);
    }
    for v6 in [false, true] {
        let (row, dag) = realistic(v6);
        row.assert_against_paper(false);
        if !v6 {
            assert_worst_uniform_probe_within_table2(&dag, FILTERS);
        }
        rows.push(row);
    }
    render_table2(&rows)
}

#[test]
fn table2_adversarial_rows_equal_the_paper() {
    for v6 in [false, true] {
        adversarial(v6).assert_against_paper(true);
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "two 50 000-filter DAGs: ≈ 100 s in debug, 30 s in release"
)]
fn table2_artifact_regenerates_byte_identical() {
    let committed = std::fs::read_to_string(ARTIFACT).unwrap();
    let fresh = table2_artifact();
    let mut lines = committed.lines().zip(fresh.lines()).enumerate();
    let first_diff = lines.find(|(_, (c, f))| c != f).map(|(i, d)| (i + 1, d));
    assert!(
        committed == fresh,
        "BENCH_table2.json differs from the measurement at (line, (committed, measured)) \
         {first_diff:?}; after a deliberate change, run the ignored regenerate_bench_table2"
    );
}

/// Rewrites `BENCH_table2.json`:
/// `cargo test --release --test paper_claims -- --ignored regenerate_bench_table2`.
#[test]
#[ignore = "rewrites BENCH_table2.json"]
fn regenerate_bench_table2() {
    std::fs::write(ARTIFACT, table2_artifact()).unwrap();
}

// E5 — lookup cost vs number of filters (§5.1.2).

/// The worst of 2 048 uniformly random IPv4 probes (mostly early misses)
/// stays within Table 2's IPv4 total, a bound with no `n` in it.
fn assert_worst_uniform_probe_within_table2(dag: &DagTable<u32>, n: usize) {
    let mut rng = StdRng::seed_from_u64(99);
    let probes: Vec<FlowTuple> = (0..2048)
        .map(|_| FlowTuple {
            src: IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())),
            dst: IpAddr::V4(Ipv4Addr::from(rng.gen::<u32>())),
            proto: if rng.gen_bool(0.5) { 6 } else { 17 },
            sport: rng.gen(),
            dport: rng.gen(),
            rx_if: 0,
        })
        .collect();
    let worst = probes.iter().map(|p| dag.lookup_with_stats(p).1.total());
    let (worst, bound) = (worst.max().unwrap(), PAPER[5].1);
    assert!(
        worst <= bound,
        "{n} filters: a DAG lookup took {worst} accesses, bound is {bound}"
    );
}

/// The 50 000 point is `table2_artifact_regenerates_byte_identical`'s.
#[test]
fn dag_worst_lookup_stays_within_20_at_every_filter_count() {
    for n in [16usize, 128, 1024, 8192] {
        let specs = random_filters(n, false, 0xE5 + n as u64);
        let mut dag = DagTable::new(BmpKind::Bspl);
        for (i, f) in specs.into_iter().enumerate() {
            let _ = dag.insert(f, i as u32);
        }
        assert_worst_uniform_probe_within_table2(&dag, n);
    }
}

// E10 — set-pruning DAG vs grid-of-tries on 2-D filters (§5.1.2).

/// Overlap-heavy 2-D filters: few distinct base networks, many lengths,
/// so prefixes nest on both axes — the replication-hostile case.
fn overlapping_filters(n: usize, seed: u64) -> Vec<TwoDFilter> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
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

/// "If there are many ambiguous filters, the memory requirements of our
/// algorithm can be excessive. More advanced techniques such as
/// grid-of-tries can provide better memory utilization" (§5.1.2). The
/// sweep stops at 1 024 filters: past a few thousand the set-pruning
/// DAG's replication on this workload exhausts memory.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a 1 024-filter overlap DAG: ≈ 61 s in debug, 6 s in release"
)]
fn dag_outgrows_grid_of_tries_on_overlapping_2d_filters() {
    // (DAG, grid) nodes per filter at the previous size.
    let mut prev: Option<(f64, f64)> = None;
    for n in [64usize, 256, 512, 1024] {
        let filters = overlapping_filters(n, 42 + n as u64);
        let mut dag = DagTable::new(BmpKind::Bspl);
        for (i, f) in filters.iter().enumerate() {
            let (src, dst) = (AddrMatch::V4(f.src), AddrMatch::V4(f.dst));
            let spec = FilterSpec {
                src,
                dst,
                ..FilterSpec::any()
            };
            dag.insert(spec, i as u32).unwrap();
        }
        let grid = GridOfTries::from_filters(filters.iter().map(|f| (*f, 0u32)).collect());
        let (dn, sn) = grid.node_counts();
        let dag_pf = dag.node_count() as f64 / n as f64;
        let grid_pf = (dn + sn) as f64 / n as f64;
        assert!(
            dag_pf > grid_pf,
            "{n} filters: DAG {dag_pf:.1} vs grid {grid_pf:.1} nodes/filter — no replication"
        );
        if let Some((prev_dag, prev_grid)) = prev {
            assert!(
                dag_pf > prev_dag,
                "{n} filters: DAG nodes/filter {prev_dag:.1} -> {dag_pf:.1}, not super-linear"
            );
            assert!(
                grid_pf <= prev_grid,
                "{n} filters: grid nodes/filter {prev_grid:.1} -> {grid_pf:.1}, not near-linear"
            );
        }
        prev = Some((dag_pf, grid_pf));
    }
}

// E6, E7 — link sharing in simulated time (§6.1).

/// How far (percentage points of the link) a delivered byte share may sit
/// from its configured value: one scheduler quantum over a 2–3 s simulated
/// run is below 0.2 points, so 0.5 fails on a real mis-share only.
const SHARE_TOLERANCE_PP: f64 = 0.5;

/// Each flow's share of the bytes delivered to `flows` is within
/// [`SHARE_TOLERANCE_PP`] of `want_pct`.
fn assert_shares<S: Scheduler>(what: &str, sim: &LinkSim<S>, flows: &[u32], want_pct: &[f64]) {
    let total: u64 = flows.iter().map(|f| sim.stats(*f).bytes).sum();
    for (f, want) in flows.iter().zip(want_pct) {
        let got = 100.0 * sim.stats(*f).bytes as f64 / total as f64;
        assert!(
            (got - want).abs() <= SHARE_TOLERANCE_PP,
            "{what}, flow {f}: delivered {got:.2} % of the link, configured {want:.2} %"
        );
    }
}

/// Flows 0..8 backlogged with the given weights and packet sizes on a
/// 100 Mb/s DRR link, for 2 s of simulated time.
fn drr_link(weights: [u32; 8], sizes: [u32; 8]) -> LinkSim<DrrScheduler> {
    let mut drr = DrrScheduler::new(9180, 64);
    for (f, w) in (0..).zip(weights) {
        drr.set_weight(f, w);
    }
    let mut sim = LinkSim::new(drr, 100_000_000);
    sim.run_backlogged(&(0..).zip(sizes).collect::<Vec<_>>(), 2_000_000_000);
    sim
}

const DRR_FLOWS: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// Equal weights over packet sizes from 64 to 9 180 B: every flow gets
/// 12.5 % of the bytes — byte-fair, not packet-fair.
#[test]
fn drr_equal_weights_are_byte_fair_over_mixed_packet_sizes() {
    let sim = drr_link([1; 8], [1500, 300, 9180, 700, 1500, 64, 4000, 1200]);
    assert_shares("DRR, equal weights", &sim, &DRR_FLOWS, &[12.5; 8]);
}

/// Weights 1,1,2,2,3,3,4,4 (the §6.1 bandwidth reservations): shares
/// proportional to weight.
#[test]
fn drr_shares_follow_reserved_weights() {
    let sim = drr_link([1, 1, 2, 2, 3, 3, 4, 4], [1500; 8]);
    let want = [5.0, 5.0, 10.0, 10.0, 15.0, 15.0, 20.0, 20.0];
    assert_shares("DRR, weighted", &sim, &DRR_FLOWS, &want);
}

const MBPS: u64 = 1_000_000;
const HFSC_LINK_BPS: u64 = 10 * MBPS;
const HFSC_RUN_NS: u64 = 3_000_000_000;

/// A 10 Mb/s link shared as root → A (70 %) {A1, A2 equal}, B (30 %);
/// flows 1, 2 and 3 are A1, A2 and B, backlogged with 1 000-B packets if
/// listed in `active`, for 3 s of simulated time.
fn hfsc_hierarchy(active: &[u32]) -> LinkSim<HfscScheduler> {
    let mut h = HfscScheduler::new(HFSC_LINK_BPS, 128);
    let root = h.root();
    let a = h.add_class(root, 7 * MBPS, None);
    let b = h.add_class(root, 3 * MBPS, None);
    let a1 = h.add_class(a, 35 * MBPS / 10, None);
    let a2 = h.add_class(a, 35 * MBPS / 10, None);
    h.bind_flow(1, a1);
    h.bind_flow(2, a2);
    h.bind_flow(3, b);
    let mut sim = LinkSim::new(h, HFSC_LINK_BPS);
    let flows: Vec<(u32, u32)> = active.iter().map(|&f| (f, 1000)).collect();
    sim.run_backlogged(&flows, HFSC_RUN_NS);
    sim
}

#[test]
fn hfsc_leaves_get_their_hierarchical_shares() {
    let sim = hfsc_hierarchy(&[1, 2, 3]);
    assert_shares(
        "H-FSC, all backlogged",
        &sim,
        &[1, 2, 3],
        &[35.0, 35.0, 30.0],
    );
}

/// With A2 idle, A1 takes all of A's 70 %: excess is redistributed
/// within the subtree, not globally.
#[test]
fn hfsc_idle_sibling_excess_stays_in_its_subtree() {
    let sim = hfsc_hierarchy(&[1, 3]);
    assert_shares("H-FSC, A2 idle", &sim, &[1, 3], &[70.0, 30.0]);
}

/// Delay decoupled from bandwidth: a bursty 80 kb/s voice flow (ten
/// 200-B packets every 200 ms) against backlogged bulk traffic. A concave
/// curve (2 Mb/s for its first 20 ms, then 80 kb/s) keeps the voice
/// flow's worst delay within that 20 ms knee; a linear curve of the same
/// long-term rate does not.
#[test]
fn hfsc_concave_curve_meets_its_knee_and_linear_does_not() {
    const KNEE_US: u64 = 20_000;
    let worst_voice_delay_ns = |curve: ServiceCurve| -> u64 {
        let mut h = HfscScheduler::new(HFSC_LINK_BPS, 256);
        let root = h.root();
        let voice = h.add_class(root, MBPS / 10, Some(curve));
        let bulk = h.add_class(root, 9 * MBPS, None);
        h.bind_flow(1, voice);
        h.bind_flow(2, bulk);
        let mut sim = LinkSim::new(h, HFSC_LINK_BPS);
        let mut next_burst = 0u64;
        while sim.now_ns() < HFSC_RUN_NS {
            if sim.now_ns() >= next_burst {
                for _ in 0..10 {
                    sim.offer(1, 200, 0);
                }
                next_burst += 200_000_000;
            }
            sim.offer(2, 1500, 0);
            sim.offer(2, 1500, 0);
            if sim.transmit_one().is_none() {
                sim.advance(10_000);
            }
        }
        sim.stats(1).max_delay_ns
    };
    let linear = worst_voice_delay_ns(ServiceCurve::linear(80_000));
    let concave = worst_voice_delay_ns(ServiceCurve {
        m1_bps: 2 * MBPS,
        d_us: KNEE_US,
        m2_bps: 80_000,
    });
    assert!(
        concave <= KNEE_US * 1000,
        "concave curve's worst delay {concave} ns misses its {KNEE_US} µs knee"
    );
    assert!(
        linear > KNEE_US * 1000,
        "linear curve's worst delay {linear} ns meets the {KNEE_US} µs knee: nothing shown"
    );
}
