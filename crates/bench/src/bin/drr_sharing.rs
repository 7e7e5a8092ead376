//! E6 — weighted DRR link sharing (the paper's §6.1 demo).
//!
//! Eight backlogged flows on one simulated link: first with equal
//! weights (fair queueing — Jain index → 1.0, byte-fair even with mixed
//! packet sizes), then with reserved weights 1..4 (shares proportional
//! to weights).
//!
//! Time is simulated, so the shares repeat exactly; a share further than
//! `SHARE_TOLERANCE_PP` from its weight exits non-zero.
//!
//! Run: `cargo run --release -p rp-bench --bin drr_sharing`

use rp_bench::report::{assert_share, Table};
use rp_sched::link::LinkSim;
use rp_sched::DrrScheduler;

const LINK_BPS: u64 = 100_000_000; // 100 Mb/s
const RUN_NS: u64 = 2_000_000_000; // 2 s

fn main() {
    println!(
        "E6: weighted DRR link sharing on a {} Mb/s link",
        LINK_BPS / 1_000_000
    );

    // Phase 1: equal weights, deliberately mixed packet sizes.
    let sizes = [1500u32, 300, 9180, 700, 1500, 64, 4000, 1200];
    let mut drr = DrrScheduler::new(9180, 64);
    for f in 0..8 {
        drr.set_weight(f, 1);
    }
    let mut sim = LinkSim::new(drr, LINK_BPS);
    let flows: Vec<(u32, u32)> = (0..8u32).map(|f| (f, sizes[f as usize])).collect();
    sim.run_backlogged(&flows, RUN_NS);
    println!();
    println!("phase 1: equal weights, mixed packet sizes");
    let mut t = Table::new(&["flow", "pkt size", "Mbytes", "share %"]);
    let total: u64 = (0..8).map(|f| sim.stats(f).bytes).sum();
    for f in 0..8u32 {
        let b = sim.stats(f).bytes;
        let share = 100.0 * b as f64 / total as f64;
        t.row(&[
            f.to_string(),
            sizes[f as usize].to_string(),
            format!("{:.2}", b as f64 / 1e6),
            format!("{share:.1}"),
        ]);
        assert_share(&format!("equal weights, flow {f}"), share, 100.0 / 8.0);
    }
    t.print();
    let j = sim.jain_index(&(0..8).collect::<Vec<_>>(), None);
    println!("Jain fairness index: {j:.4} (1.0 = perfect byte fairness)");

    // Phase 2: weights 1,1,2,2,3,3,4,4 — reserved flows.
    let mut drr = DrrScheduler::new(9180, 64);
    let weights = [1u32, 1, 2, 2, 3, 3, 4, 4];
    for f in 0..8u32 {
        drr.set_weight(f, weights[f as usize]);
    }
    let mut sim = LinkSim::new(drr, LINK_BPS);
    let flows: Vec<(u32, u32)> = (0..8u32).map(|f| (f, 1500)).collect();
    sim.run_backlogged(&flows, RUN_NS);
    println!();
    println!("phase 2: weights 1,1,2,2,3,3,4,4 (bandwidth reservations)");
    let total: u64 = (0..8).map(|f| sim.stats(f).bytes).sum();
    let wsum: u32 = weights.iter().sum();
    let mut t = Table::new(&["flow", "weight", "share %", "expected %"]);
    for f in 0..8u32 {
        let share = 100.0 * sim.stats(f).bytes as f64 / total as f64;
        let want = 100.0 * weights[f as usize] as f64 / wsum as f64;
        t.row(&[
            f.to_string(),
            weights[f as usize].to_string(),
            format!("{share:.1}"),
            format!("{want:.1}"),
        ]);
        assert_share(&format!("weighted, flow {f}"), share, want);
    }
    t.print();
    let shares: Vec<f64> = weights.iter().map(|w| *w as f64).collect();
    let jw = sim.jain_index(&(0..8).collect::<Vec<_>>(), Some(&shares));
    println!("weighted Jain index: {jw:.4} (1.0 = shares exactly ∝ weights)");
}
