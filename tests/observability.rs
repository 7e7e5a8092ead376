//! End-to-end observability: the metrics registry and event tracer as
//! seen through the pmgr surface, on both data planes, plus the fragment
//! classification fix — every fragment of a datagram must hit the same
//! flow record (and therefore the same shard), because only the first
//! fragment carries the transport header.

use router_plugins::classifier::flow_table::FlowTableStats;
use router_plugins::core::dataplane::CounterRow;
use router_plugins::core::ip_core::fragment_v4;
use router_plugins::core::loader::PluginLoader;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{
    ControlPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netdev::frame::attach_ethernet;
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netdev::{FaultProgram, FaultyDev, IoPlane};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::ipv4::Ipv4Packet;
use router_plugins::packet::Mbuf;
use std::net::{IpAddr, Ipv4Addr};

fn v4(n: u8) -> IpAddr {
    IpAddr::V4(Ipv4Addr::new(10, 0, 0, n))
}

/// A 2000-byte UDP datagram split into on-wire fragments (≥ 3 of them);
/// only the first carries the UDP header.
fn fragmented_udp() -> Vec<Vec<u8>> {
    let mut buf = PacketSpec::udp(v4(1), v4(2), 5555, 7777, 2000).build();
    {
        let p = Ipv4Packet::new_unchecked(&mut buf[..]);
        let b = p.into_inner();
        b[6] &= !0x40; // clear DF so the datagram can fragment
        let mut p = Ipv4Packet::new_unchecked(&mut buf[..]);
        p.fill_checksum();
    }
    let frags = fragment_v4(&buf, 600).expect("fragmentable");
    assert!(frags.len() >= 3, "want ≥3 fragments, got {}", frags.len());
    frags
}

fn single_router() -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v4(2), 32, 1);
    r
}

fn parallel_router(shards: usize) -> ParallelRouter {
    let mut template = PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut pr = ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 256,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    pr.cp_add_route(v4(2), 32, 1);
    pr
}

// ---------------------------------------------------------------------
// Fragment classification: one datagram → one flow record → one shard
// ---------------------------------------------------------------------

#[test]
fn fragments_share_one_flow_record() {
    let mut r = single_router();
    let frags = fragmented_udp();
    let n = frags.len() as u64;
    for f in frags {
        r.receive(Mbuf::new(f, 0));
    }
    let fs = r.flow_stats();
    assert_eq!(
        fs.misses, 1,
        "every fragment must key to the same flow record"
    );
    assert_eq!(fs.hits, n - 1, "later fragments must hit the cached record");
    let m = r.metrics_snapshot();
    assert_eq!(
        m.fragment_flows, 1,
        "the flow must be counted as fragmented"
    );
    assert_eq!(m.if_rx_packets[0], n);
}

#[test]
fn fragments_land_on_one_shard() {
    let mut pr = parallel_router(4);
    for f in fragmented_udp() {
        pr.receive_batch(vec![Mbuf::new(f, 0)]);
    }
    pr.flush();
    let rows = pr.cp_counter_rows();
    assert_eq!(rows[0].label, "total");
    let busy: Vec<_> = rows[1..]
        .iter()
        .filter(|r| r.metrics.flows.misses + r.metrics.flows.hits > 0)
        .collect();
    assert_eq!(
        busy.len(),
        1,
        "all fragments must dispatch to one shard: {:?}",
        rows[1..]
            .iter()
            .map(|r| (
                r.label.clone(),
                r.metrics.flows.misses + r.metrics.flows.hits
            ))
            .collect::<Vec<_>>()
    );
    assert_eq!(busy[0].metrics.flows.misses, 1);
}

// ---------------------------------------------------------------------
// Metrics surface: pmgr `metrics [json]` on both planes, shard merge
// ---------------------------------------------------------------------

#[test]
fn metrics_json_on_single_router() {
    let mut r = single_router();
    for f in fragmented_udp() {
        r.receive(Mbuf::new(f, 0));
    }
    let out = run_command(&mut r, "metrics json").unwrap();
    assert!(out.starts_with("{\"merged\":{"), "{out}");
    assert!(out.contains("\"fragment_flows\":1"), "{out}");
    assert!(
        !out.contains("\"shards\""),
        "single router has no shard breakdown: {out}"
    );
    let text = run_command(&mut r, "metrics").unwrap();
    assert!(text.starts_with("== total =="), "{text}");
}

#[test]
fn metrics_json_on_parallel_router_has_shard_breakdown() {
    let shards = 4;
    let mut pr = parallel_router(shards);
    for i in 0..32u8 {
        let buf = PacketSpec::udp(v4(1), v4(2), 6000 + u16::from(i), 80, 64).build();
        pr.receive_batch(vec![Mbuf::new(buf, 0)]);
    }
    pr.flush();
    let out = run_command(&mut pr, "metrics json").unwrap();
    assert!(out.starts_with("{\"merged\":{"), "{out}");
    assert!(out.contains("\"shards\":["), "{out}");
    // merged + one object per shard, each with a "gates" section.
    assert_eq!(out.matches("\"gates\"").count(), shards + 1, "{out}");
}

#[test]
fn shard_registries_merge_into_total() {
    let mut pr = parallel_router(4);
    for i in 0..64u8 {
        let buf = PacketSpec::udp(v4(1), v4(2), 7000 + u16::from(i), 80, 64).build();
        pr.receive_batch(vec![Mbuf::new(buf, 0)]);
    }
    pr.flush();
    let rows = pr.cp_counter_rows();
    assert_eq!(rows.len(), 5);
    assert_eq!(rows[0].label, "total");
    let total = &rows[0].metrics;
    let sum = |f: &dyn Fn(&router_plugins::core::MetricsSnapshot) -> u64| -> u64 {
        rows[1..].iter().map(|r| f(&r.metrics)).sum()
    };
    assert_eq!(total.if_rx_packets[0], sum(&|m| m.if_rx_packets[0]));
    assert_eq!(total.if_rx_packets[0], 64);
    for g in 0..router_plugins::core::gate::GATE_COUNT {
        assert_eq!(total.class_misses[g], sum(&move |m| m.class_misses[g]));
        assert_eq!(total.gate_calls[g], sum(&move |m| m.gate_calls[g]));
    }
    // 64 distinct source ports spread over 4 shards: more than one shard
    // must actually have seen traffic for the merge to mean anything.
    let active = rows[1..]
        .iter()
        .filter(|r| r.metrics.if_rx_packets[0] > 0)
        .count();
    assert!(active > 1, "workload only reached {active} shard(s)");
    assert_one_ledger(&mut pr, |pr| pr.flow_stats());

    // A single router: one row, the router's own registry.
    let mut r = single_router();
    run_script(
        &mut r,
        "load null\ncreate null\nbind stats null 0 <*, *, *, *, *, *>",
    )
    .unwrap();
    for i in 0..24u8 {
        let dst = if i % 4 == 0 { v4(3) } else { v4(2) }; // v4(3): no route
        let buf = PacketSpec::udp(v4(1), dst, 7100 + u16::from(i), 80, 64).build();
        r.receive(Mbuf::new(buf, 0));
    }
    r.receive(Mbuf::new(vec![0x45, 0, 0], 0)); // malformed
    let d = r.stats();
    // The stats gate runs before the route lookup: every UDP packet calls.
    assert_eq!(
        (d.plugin_calls, d.dropped_no_route, d.dropped_malformed),
        (24, 6, 1)
    );
    assert_one_ledger(&mut r, |r| r.flow_stats());

    // Two shards, one killed with packets queued at its ingress and a DRR
    // backlog stranded in its scheduler: the loss is re-accounted into the
    // dispatcher's counters and the merge must still be exact.
    const BACKLOG: u16 = 8;
    let mut pr = parallel_router(2);
    run_script(
        &mut pr,
        "load drr\ncreate drr quantum=1500 limit=64\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    let offer = |pr: &mut ParallelRouter, base: u16| {
        for i in 0..32u16 {
            let dst = if i % 8 == 0 { v4(3) } else { v4(2) };
            pr.receive_batch(vec![Mbuf::new(
                PacketSpec::udp(v4(1), dst, base + i, 80, 64).build(),
                0,
            )]);
        }
    };
    offer(&mut pr, 7200);
    // `receive` without the burst entry's pump leaves the packets queued.
    pr.control_map(|ctx| {
        for i in 0..BACKLOG {
            let spec = PacketSpec::udp(v4(1), v4(2), 7300 + i, 80, 64);
            ctx.router.receive(Mbuf::new(spec.build(), 0));
        }
    });
    run_command(&mut pr, "shard kill 0").unwrap();
    offer(&mut pr, 7400);
    pr.flush();
    let d = pr.stats();
    assert!(
        d.dropped_shard_down >= u64::from(BACKLOG),
        "the stranded backlog must be re-accounted: {d:?}"
    );
    assert_one_ledger(&mut pr, |pr| pr.flow_stats());

    // The same plane behind devices: framed garbage becomes device-rx
    // drops, a failing egress device-tx drops.
    let (ingress, _pi) = LoopbackDev::pair_framed("eth-in", "peer-in", 1024);
    let (egress, _po) = LoopbackDev::pair_framed("eth-out", "peer-out", 1024);
    let in_handle = ingress.handle();
    let (egress, faults) = FaultyDev::wrap(Box::new(egress));
    faults.set(FaultProgram {
        fail_tx_every: 4,
        ..FaultProgram::default()
    });
    let mut plane = IoPlane::new(parallel_router(2), 64);
    plane.bind(0, Box::new(ingress));
    plane.bind(1, Box::new(egress));
    let mut frame = Vec::new();
    for i in 0..32u16 {
        let ip = PacketSpec::udp(v4(1), v4(2), 7500 + i, 80, 64).build();
        assert!(attach_ethernet(&mut frame, &[2; 6], &[4; 6], &ip));
        assert!(in_handle.inject(&frame));
    }
    in_handle.inject(&[0xde, 0xad]); // truncated
    let mut arp = vec![0u8; 42];
    (arp[12], arp[13]) = (0x08, 0x06);
    in_handle.inject(&arp);
    plane.poll_until_quiet(2, 100);
    plane.check_conservation();
    let d = plane.plane_mut().stats();
    assert_eq!(d.dropped_device_rx, 2);
    assert_eq!(d.dropped_device_tx, 8, "every fourth of 32 refused");
    assert_one_ledger(&mut plane, |p| p.plane_mut().flow_stats());
}

/// The ledger identities, on the total row and on every shard row: the
/// drop view is the drop slots, plugin calls are the gate calls, and the
/// flow counters are the flow table's. The total also conserves, and is
/// exactly the plane's own counters plus every router's snapshot.
fn assert_one_ledger<C: ControlPlane>(
    plane: &mut C,
    flow_stats: impl Fn(&mut C) -> FlowTableStats,
) {
    fn identities(row: &CounterRow) {
        let (d, m) = (row.data(), &row.metrics);
        assert_eq!(
            d.dropped_total(),
            m.drops.iter().sum::<u64>(),
            "{}",
            row.label
        );
        assert_eq!(
            d.plugin_calls,
            m.gate_calls.iter().sum::<u64>(),
            "{}",
            row.label
        );
    }
    let rows = plane.cp_counter_rows();
    let routers: Vec<_> = plane
        .cp_query(|r| (r.metrics_snapshot(), r.flow_stats()))
        .into_iter()
        .map(|(_, a)| a.ok().expect("every router answers"))
        .collect();
    let mut merged = plane.cp_local_totals();
    for (m, _) in &routers {
        merged.absorb(m);
    }
    assert_eq!(merged, rows[0].metrics, "local totals + routers != total");
    identities(&rows[0]);
    assert_eq!(rows[0].metrics.flows, flow_stats(plane));
    let d = rows[0].data();
    assert_eq!(d.received, d.forwarded + d.dropped_total(), "{d:?}");
    let shard_rows = &rows[1..];
    assert!(shard_rows.is_empty() || shard_rows.len() == routers.len());
    for (row, (_, flows)) in shard_rows.iter().zip(&routers) {
        identities(row);
        assert_eq!(row.metrics.flows, *flows, "{}", row.label);
    }
}

// ---------------------------------------------------------------------
// Tracer surface: pmgr `trace on|off|dump` over the parallel plane
// ---------------------------------------------------------------------

#[test]
fn trace_dump_labels_shard_origin() {
    let mut pr = parallel_router(2);
    assert_eq!(
        run_command(&mut pr, "trace dump").unwrap(),
        "no trace events"
    );
    run_command(&mut pr, "trace on").unwrap();
    for i in 0..8u8 {
        let buf = PacketSpec::udp(v4(1), v4(2), 8000 + u16::from(i), 80, 64).build();
        pr.receive_batch(vec![Mbuf::new(buf, 0)]);
    }
    pr.flush();
    let out = run_command(&mut pr, "trace dump 64").unwrap();
    assert!(
        out.contains("[shard 0]") || out.contains("[shard 1]"),
        "{out}"
    );
    assert!(
        out.contains("[shard] shard"),
        "dispatch events traced: {out}"
    );
    assert!(out.contains("[flow] flow created"), "{out}");
    run_command(&mut pr, "trace off").unwrap();
    let seq_before: Vec<String> = out.lines().map(str::to_string).collect();
    for i in 0..4u8 {
        let buf = PacketSpec::udp(v4(3), v4(2), 8100 + u16::from(i), 80, 64).build();
        pr.receive_batch(vec![Mbuf::new(buf, 0)]);
    }
    pr.flush();
    let after = run_command(&mut pr, "trace dump 64").unwrap();
    assert_eq!(
        after.lines().count(),
        seq_before.len(),
        "tracer off must record nothing new"
    );
}
