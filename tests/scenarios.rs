//! Larger cross-crate scenarios: multi-router chains combining security,
//! scheduling and monitoring — the "applications" of paper §2 (VPN entry
//! points, edge-router profile enforcement, network monitoring).

use router_plugins::core::ip_core::Disposition;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{Router, RouterConfig};
use router_plugins::netsim::testbench::Testbench;
use router_plugins::netsim::traffic::{v6_host, Workload};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowTuple, Mbuf};

fn router(script: &str) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(&mut r, script).expect("setup");
    r
}

/// VPN chain: edge router encrypts + schedules; core router just
/// forwards; exit router decrypts. Payload must survive; tampering on
/// the "core" hop must not.
#[test]
fn vpn_chain_with_scheduling() {
    let mut entry = router(
        "load esp\ncreate esp mode=encap key=chain spi=5\n\
         bind ipsec esp 0 <*, *, UDP, *, *, *>\n\
         load drr\ncreate drr quantum=9180\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, *, *, *, *>",
    );
    let mut core = router("");
    let mut exit = router(
        "load esp\ncreate esp mode=decap key=chain spi=5\n\
         bind ipsec esp 0 <*, *, ESP, *, *, *>",
    );

    let payload_packets: Vec<Vec<u8>> = (0..10u16)
        .map(|i| PacketSpec::udp(v6_host(1), v6_host(200), 4000 + i, 9000, 256).build())
        .collect();

    let mut delivered = 0;
    for p in &payload_packets {
        // Entry: encrypt + queue.
        let d = entry.receive(Mbuf::new(p.clone(), 0));
        assert!(matches!(d, Disposition::Queued(1)), "{d:?}");
        entry.pump(1, 1);
        let wire1 = entry.take_tx(1).pop().unwrap();
        // Core: plain forward.
        let d = core.receive(Mbuf::new(wire1.into_data(), 0));
        assert!(matches!(d, Disposition::Forwarded(1)));
        let wire2 = core.take_tx(1).pop().unwrap();
        // Exit: decrypt + forward.
        let d = exit.receive(Mbuf::new(wire2.into_data(), 0));
        assert!(matches!(d, Disposition::Forwarded(1)));
        let out = exit.take_tx(1).pop().unwrap();
        // Three hops aged the hop limit thrice; payload intact.
        assert_eq!(out.data()[7], p[7] - 3);
        assert_eq!(&out.data()[8..], &p[8..]);
        // Ports classify correctly after decapsulation.
        let t = FlowTuple::extract(out.data(), 0).unwrap();
        assert_eq!(t.dport, 9000);
        delivered += 1;
    }
    assert_eq!(delivered, 10);

    // A bit flipped "in the core" kills the packet at the exit.
    let d = entry.receive(Mbuf::new(payload_packets[0].clone(), 0));
    assert!(matches!(d, Disposition::Queued(1)));
    entry.pump(1, 1);
    let mut wire = entry.take_tx(1).pop().unwrap().into_data();
    let n = wire.len() - 5;
    wire[n] ^= 0x10;
    assert!(matches!(
        exit.receive(Mbuf::new(wire, 0)),
        Disposition::Dropped(_)
    ));
}

/// Edge-router profile enforcement (paper §2: "modern edge routers …
/// enforcing the configured profiles of differential service flows"):
/// firewall denies one prefix, stats watches everything, DRR reserves
/// weight for a premium flow — all simultaneously on distinct gates.
#[test]
fn edge_router_full_stack() {
    let mut r = router(
        "load firewall\ncreate firewall action=deny\n\
         bind fw firewall 0 <2001:db8::66, *, *, *, *, *>\n\
         load stats\ncreate stats\n\
         bind stats stats 0 <*, *, *, *, *, *>\n\
         load drr\ncreate drr quantum=1500 limit=32\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    );
    // Premium reservation for sport 7000.
    let out = run_command(&mut r, "bind sched drr 0 <2001:db8::1, *, UDP, 7000, *, *>").unwrap();
    let fid: u64 = out.strip_prefix("filter ").unwrap().parse().unwrap();
    run_command(
        &mut r,
        &format!("msg drr 0 setweight filter={fid} weight=3"),
    )
    .unwrap();

    // Banned host dropped at the firewall gate, not counted by sched.
    let banned = PacketSpec::udp(v6_host(0x66), v6_host(9), 1, 2, 64).build();
    assert!(matches!(
        r.receive(Mbuf::new(banned, 0)),
        Disposition::Dropped(_)
    ));

    // Premium + best-effort flows share the egress under 3:1 weights.
    let (premium_out, besteff_out) = drr_share(&mut r, 600);
    let ratio = f64::from(premium_out) / f64::from(besteff_out);
    assert!((ratio - 3.0).abs() < 0.4, "premium:besteffort = {ratio}");

    // Stats plugin saw the forwarded traffic but not the firewall drop's
    // flow (dropped before the stats gate? firewall gate precedes stats —
    // dropped packets never reach it).
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(report.contains("pkts"), "{report}");
}

/// Premium (sport 7000) and best-effort packets offered in pairs to a
/// DRR that sends one packet per pair: returns what each flow sent.
fn drr_share(r: &mut Router, rounds: usize) -> (u32, u32) {
    let premium = PacketSpec::udp(v6_host(1), v6_host(9), 7000, 9000, 1000).build();
    let besteff = PacketSpec::udp(v6_host(2), v6_host(9), 8000, 9000, 1000).build();
    let (mut premium_out, mut besteff_out) = (0, 0);
    for _ in 0..rounds {
        r.receive(Mbuf::new(premium.clone(), 0));
        r.receive(Mbuf::new(besteff.clone(), 0));
        r.pump(1, 1);
        for m in r.take_tx(1) {
            match FlowTuple::from_mbuf(&m).unwrap().sport {
                7000 => premium_out += 1,
                8000 => besteff_out += 1,
                _ => unreachable!(),
            }
        }
    }
    (premium_out, besteff_out)
}

/// A DRR weight set after a flow has bound still reaches that flow: the
/// weight is the filter's hard state, looked up through the binding's
/// filter on the flow's later packets, not copied into the flow record
/// when it bound.
#[test]
fn drr_weight_set_after_bind_reaches_the_bound_flow() {
    let mut r = router(
        "load drr\ncreate drr quantum=1500 limit=32\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    );
    let out = run_command(&mut r, "bind sched drr 0 <2001:db8::1, *, UDP, 7000, *, *>").unwrap();
    let fid: u64 = out.strip_prefix("filter ").unwrap().parse().unwrap();

    // Both flows bind and share 1:1 while the premium filter has no
    // weight.
    let (premium_out, besteff_out) = drr_share(&mut r, 200);
    let ratio = f64::from(premium_out) / f64::from(besteff_out);
    assert!((ratio - 1.0).abs() < 0.1, "premium:besteffort = {ratio}");
    assert_eq!(r.flow_stats().live, 2);
    r.pump(1, usize::MAX);
    r.take_tx(1);

    run_command(
        &mut r,
        &format!("msg drr 0 setweight filter={fid} weight=3"),
    )
    .unwrap();
    let (premium_out, besteff_out) = drr_share(&mut r, 600);
    let ratio = f64::from(premium_out) / f64::from(besteff_out);
    assert!((ratio - 3.0).abs() < 0.4, "premium:besteffort = {ratio}");
    assert_eq!(r.flow_stats().misses, 2, "the flows stayed bound");
}

/// Mini Table 3: the framework forwards the paper workload correctly in
/// all four kernel configurations (counts, not timing — timing lives in
/// the release benches).
#[test]
fn mini_table3_all_kernels_forward() {
    use router_plugins::core::monolithic::{AltqDrrRouter, BestEffortRouter};
    let workload = Workload::paper_table3();
    let tb = Testbench::new(&workload);

    let mut be = BestEffortRouter::new(4, false);
    be.add_route(v6_host(0), 32, 1);
    assert_eq!(tb.run_best_effort(&mut be, 1).forwarded, 300);

    let mut fw = router(
        "load null\ncreate null\n\
         bind fw null 0 <*, *, *, *, *, *>\n\
         bind ipsec null 0 <*, *, *, *, *, *>\n\
         bind stats null 0 <*, *, *, *, *, *>",
    );
    assert_eq!(tb.run(&mut fw, 1, 1).forwarded, 300);
    assert_eq!(fw.flow_stats().misses, 3);

    let mut altq = AltqDrrRouter::new(4, 64, 9180, false);
    altq.add_route(v6_host(0), 32, 1);
    assert_eq!(tb.run_altq(&mut altq, 1).forwarded, 300);

    let mut pd = router(
        "load drr\ncreate drr quantum=9180 limit=512\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    );
    assert_eq!(tb.run(&mut pd, 1, 1).forwarded, 300);
}

/// The HSF plugin end to end: two leaves with different shares, DRR
/// fairness within the premium leaf.
#[test]
fn hsf_plugin_end_to_end() {
    let mut r = router("load hsf\ncreate hsf rate=10000000 quantum=1500 limit=64\nattach 1 hsf 0");
    // Leaf 1: premium 70%; leaf 2: default 30%.
    assert_eq!(
        run_command(&mut r, "msg hsf 0 addleaf parent=root ls=7000000").unwrap(),
        "class 1"
    );
    assert_eq!(
        run_command(&mut r, "msg hsf 0 addleaf parent=root ls=3000000").unwrap(),
        "class 2"
    );
    run_command(&mut r, "msg hsf 0 default class=2").unwrap();
    let out = run_command(&mut r, "bind sched hsf 0 <2001:db8::1, *, UDP, *, *, *>").unwrap();
    let premium_fid: u64 = out.strip_prefix("filter ").unwrap().parse().unwrap();
    run_command(&mut r, "bind sched hsf 0 <*, *, UDP, *, *, *>").unwrap();
    run_command(
        &mut r,
        &format!("msg hsf 0 bindfilter filter={premium_fid} class=1"),
    )
    .unwrap();

    let premium = PacketSpec::udp(v6_host(1), v6_host(9), 1, 2, 1000).build();
    let other = PacketSpec::udp(v6_host(2), v6_host(9), 3, 4, 1000).build();
    let (mut p_out, mut o_out) = (0u32, 0u32);
    for i in 0..900 {
        r.set_time_ns(i * 1_000_000);
        r.receive(Mbuf::new(premium.clone(), 0));
        r.receive(Mbuf::new(other.clone(), 0));
        r.pump(1, 1);
        for m in r.take_tx(1) {
            match FlowTuple::from_mbuf(&m).unwrap().src {
                s if s == v6_host(1) => p_out += 1,
                _ => o_out += 1,
            }
        }
    }
    let share = f64::from(p_out) / f64::from(p_out + o_out);
    assert!((share - 0.7).abs() < 0.06, "premium share {share}");
}
