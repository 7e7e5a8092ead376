//! E7 — H-FSC hierarchical link sharing and delay/bandwidth decoupling,
//! the properties the paper reproduces from Stoica/Zhang/Ng by porting
//! the CMU scheduler ("our results are consistent with that paper").
//!
//! Experiment 1: a two-level hierarchy (A 70% {A1 50/A2 50}, B 30%) with
//! everything backlogged → leaf shares 35/35/30; with A2 idle → A1 takes
//! all of A's 70% (hierarchical, not global, redistribution).
//!
//! Experiment 2: a voice-like flow with a concave service curve sees far
//! lower worst-case delay than with a linear curve of the same long-term
//! rate — the decoupling of delay and bandwidth allocation.
//!
//! Time is simulated, so every number repeats exactly. Exits non-zero if
//! a leaf's share is further than `SHARE_TOLERANCE_PP` from its curve's,
//! or if the concave curve misses its own 20 ms knee (or the linear one
//! of equal rate somehow meets it — then the experiment shows nothing).
//!
//! Run: `cargo run --release -p rp-bench --bin hfsc_sharing`

use rp_bench::report::{assert_share, Table};
use rp_sched::link::LinkSim;
use rp_sched::{HfscScheduler, ServiceCurve};

const MBPS: u64 = 1_000_000;
const LINK: u64 = 10 * MBPS;

fn hierarchy() -> (HfscScheduler, [u32; 3]) {
    let mut h = HfscScheduler::new(LINK, 128);
    let root = h.root();
    let a = h.add_class(root, 7 * MBPS, None);
    let b = h.add_class(root, 3 * MBPS, None);
    let a1 = h.add_class(a, 35 * MBPS / 10, None);
    let a2 = h.add_class(a, 35 * MBPS / 10, None);
    h.bind_flow(1, a1);
    h.bind_flow(2, a2);
    h.bind_flow(3, b);
    (h, [1, 2, 3])
}

fn main() {
    println!("E7: H-FSC hierarchical link sharing (10 Mb/s link; A=70% {{A1,A2}}, B=30%)");
    println!();

    // All backlogged.
    let (h, flows) = hierarchy();
    let mut sim = LinkSim::new(h, LINK);
    sim.run_backlogged(&[(1, 1000), (2, 1000), (3, 1000)], 3_000_000_000);
    let total: f64 = flows.iter().map(|f| sim.stats(*f).bytes as f64).sum();
    let mut t = Table::new(&["leaf", "share %", "expected %"]);
    for (f, want) in flows.iter().zip([35.0, 35.0, 30.0]) {
        let share = 100.0 * sim.stats(*f).bytes as f64 / total;
        t.row(&[
            format!("flow {f}"),
            format!("{share:.1}"),
            format!("{want:.1}"),
        ]);
        assert_share(&format!("all backlogged, flow {f}"), share, want);
    }
    println!("all leaves backlogged:");
    t.print();

    // A2 idle: A1 should absorb A's whole 70%.
    let (h, _) = hierarchy();
    let mut sim = LinkSim::new(h, LINK);
    sim.run_backlogged(&[(1, 1000), (3, 1000)], 3_000_000_000);
    let total = (sim.stats(1).bytes + sim.stats(3).bytes) as f64;
    println!();
    println!("A2 idle (hierarchical redistribution):");
    let mut t = Table::new(&["leaf", "share %", "expected %"]);
    for (f, leaf, want) in [(1, "flow 1 (A1)", 70.0), (3, "flow 3 (B)", 30.0)] {
        let share = 100.0 * sim.stats(f).bytes as f64 / total;
        t.row(&[leaf.into(), format!("{share:.1}"), format!("{want:.1}")]);
        assert_share(&format!("A2 idle, {leaf}"), share, want);
    }
    t.print();

    // Decoupling experiment.
    println!();
    println!("delay/bandwidth decoupling: bursty 80 kb/s voice flow vs bulk traffic");
    let run = |curve: ServiceCurve| -> (u64, f64) {
        let mut h = HfscScheduler::new(LINK, 256);
        let root = h.root();
        let voice = h.add_class(root, MBPS / 10, Some(curve));
        let bulk = h.add_class(root, 9 * MBPS, None);
        h.bind_flow(1, voice);
        h.bind_flow(2, bulk);
        let mut sim = LinkSim::new(h, LINK);
        let mut next_burst = 0u64;
        while sim.now_ns() < 3_000_000_000 {
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
        let v = sim.stats(1);
        (v.max_delay_ns, v.bytes as f64 * 8.0 / 3.0)
    };
    let (d_lin, r_lin) = run(ServiceCurve::linear(80_000));
    const KNEE_US: u64 = 20_000;
    let (d_con, r_con) = run(ServiceCurve {
        m1_bps: 2 * MBPS,
        d_us: KNEE_US,
        m2_bps: 80_000,
    });
    let mut t = Table::new(&["voice service curve", "max delay (ms)", "goodput (kb/s)"]);
    t.row(&[
        "linear 80 kb/s".into(),
        format!("{:.2}", d_lin as f64 / 1e6),
        format!("{:.0}", r_lin / 1e3),
    ]);
    t.row(&[
        "concave m1=2 Mb/s d=20 ms m2=80 kb/s".into(),
        format!("{:.2}", d_con as f64 / 1e6),
        format!("{:.0}", r_con / 1e3),
    ]);
    t.print();
    println!(
        "same bandwidth, {}x lower worst-case delay with the concave curve",
        if d_con > 0 { d_lin / d_con.max(1) } else { 0 }
    );
    assert!(
        d_con <= KNEE_US * 1000 && d_lin > KNEE_US * 1000,
        "decoupling: concave curve's worst delay {d_con} ns must meet its {KNEE_US} µs knee, \
         linear's {d_lin} ns must not"
    );
}
