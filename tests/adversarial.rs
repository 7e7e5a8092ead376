//! Adversarial-traffic resilience: flow-table admission control must
//! make a one-packet-flow flood degrade the flood's own flows instead of
//! established ones — on both data planes — and a chaos soak over
//! heavy-tailed traffic must conserve every packet.

use router_plugins::classifier::FlowTableConfig;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::supervisor::HealthState;
use router_plugins::core::{
    ControlPlane, DataPlane, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netsim::traffic::{fragment_flood, v6_host, Workload};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowTuple, Mbuf};

/// Wildcard-classified, routed rig: one gate exercises the flow cache on
/// every packet, the route keeps 2001:db8::/32 deliverable.
const RIG_SCRIPT: &str = "load null\n\
     create null\n\
     bind stats null 0 <*, *, *, *, *, *>\n\
     route 2001:db8::/32 1\n";

fn parallel_router(shards: usize, flow_table: FlowTableConfig) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut par = ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                flow_table,
                ..RouterConfig::default()
            },
            ingress_depth: 4096,
            ..ParallelRouterConfig::default()
        },
        &template,
    );
    run_script(&mut par, RIG_SCRIPT).unwrap();
    par
}

fn drain_single(r: &mut Router) -> Vec<Mbuf> {
    let mut tx = Vec::new();
    for i in 0..r.interface_count() {
        tx.extend(r.take_tx(i as u32));
    }
    tx
}

fn drain_parallel(par: &mut ParallelRouter) -> Vec<Mbuf> {
    par.flush();
    let mut tx = Vec::new();
    for i in 0..par.interface_count() {
        tx.extend(par.take_tx(i as u32));
    }
    tx
}

fn established_specs() -> Vec<(std::net::IpAddr, std::net::IpAddr, u16, u16)> {
    (0..32u16)
        .map(|i| (v6_host(10 + i), v6_host(200), 4000 + i, 80))
        .collect()
}

fn established_packet(spec: &(std::net::IpAddr, std::net::IpAddr, u16, u16)) -> Mbuf {
    Mbuf::new(
        PacketSpec::udp(spec.0, spec.1, spec.2, spec.3, 64).build(),
        0,
    )
}

/// Tiny, admission-controlled flow table: 64 records, 5ms idle window.
fn defended_flow_table() -> FlowTableConfig {
    FlowTableConfig {
        buckets: 256,
        initial_records: 32,
        max_records: 64,
        max_idle_ns: 5_000_000,
        ..FlowTableConfig::default()
    }
}

/// One-packet-flow flood against the single-threaded router: admission
/// control must deny the flood's inserts (degrading only the attacker's
/// flows to the uncached path) while every established-flow packet is
/// delivered and no established record is recycled.
#[test]
fn syn_flood_degrades_attacker_not_established_flows_single() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: defended_flow_table(),
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, RIG_SCRIPT).unwrap();

    let established = established_specs();
    let mut sent_established = 0usize;
    r.set_time_ns(0);
    for spec in &established {
        r.receive(established_packet(spec));
        sent_established += 1;
    }

    let flood = Workload::one_packet_flood(2000, 64, 0xF100D).build();
    let mut now = 1_000_000u64; // flood starts 1ms in
    for (n, pkt) in flood.into_iter().enumerate() {
        now += 10_000; // 10µs per flood packet
        r.set_time_ns(now);
        r.receive(pkt);
        // Keepalives every 2ms keep the established flows inside the
        // 5ms idle window throughout.
        if n % 200 == 199 {
            for spec in &established {
                r.receive(established_packet(spec));
                sent_established += 1;
            }
        }
    }

    // Final round: every established flow must still be cached (a pure
    // hit, no insert) and delivered.
    let hits_before = r.flow_stats().hits;
    for spec in &established {
        r.receive(established_packet(spec));
        sent_established += 1;
    }
    let f = r.flow_stats();
    assert_eq!(
        f.hits - hits_before,
        established.len() as u64,
        "an established flow lost its cache record"
    );
    assert!(f.denied > 0, "admission control never engaged");
    assert_eq!(f.recycled, 0, "flood recycled an established record");
    assert!(f.live <= 64, "flow table exceeded its cap");

    let tx = drain_single(&mut r);
    let established_delivered = tx
        .iter()
        .filter(|m| {
            let t = FlowTuple::from_mbuf(m).unwrap();
            t.dport == 80 && t.sport >= 4000 && t.sport < 4032
        })
        .count();
    assert_eq!(
        established_delivered, sent_established,
        "established-flow packets were lost under the flood"
    );

    // The denial shows up in the observability snapshot.
    assert_eq!(r.metrics_snapshot().flows, f);
}

/// The same flood against the sharded data plane: per-shard admission
/// control, merged counters, zero established loss.
#[test]
fn syn_flood_degrades_attacker_not_established_flows_parallel() {
    let mut par = parallel_router(4, defended_flow_table());

    let established = established_specs();
    let mut sent_established = 0usize;
    par.set_time_ns(0);
    for spec in &established {
        par.receive_batch(vec![established_packet(spec)]);
        sent_established += 1;
    }

    let flood = Workload::one_packet_flood(2000, 64, 0xF100D).build();
    let mut now = 1_000_000u64;
    for (n, pkt) in flood.into_iter().enumerate() {
        now += 10_000;
        par.receive_batch(vec![pkt]);
        if n % 200 == 199 {
            par.set_time_ns(now); // control barrier; also drains FIFOs
            for spec in &established {
                par.receive_batch(vec![established_packet(spec)]);
                sent_established += 1;
            }
        }
    }
    par.set_time_ns(now);
    for spec in &established {
        par.receive_batch(vec![established_packet(spec)]);
        sent_established += 1;
    }

    let tx = drain_parallel(&mut par);
    let f = par.flow_stats();
    assert!(f.denied > 0, "admission control never engaged on any shard");
    assert_eq!(f.recycled, 0, "flood recycled an established record");
    assert!(f.live <= 4 * 64, "merged live count exceeded the caps");

    let established_delivered = tx
        .iter()
        .filter(|m| {
            let t = FlowTuple::from_mbuf(m).unwrap();
            t.dport == 80 && t.sport >= 4000 && t.sport < 4032
        })
        .count();
    assert_eq!(
        established_delivered, sent_established,
        "established-flow packets were lost under the flood"
    );

    let stats = par.stats();
    assert_eq!(stats.dropped_total(), 0, "nothing should drop in this rig");
}

/// Wave `wave` of the churn: 40 new one-packet flows.
fn churn_wave(wave: u16) -> Vec<Mbuf> {
    let host = |i: u16| v6_host(1000 + wave * 64 + i);
    let spec = |i: u16| PacketSpec::udp(host(i), v6_host(200), 5000 + i, 80, 64);
    (0..40).map(|i| Mbuf::new(spec(i).build(), 0)).collect()
}

/// Flow-record conservation at the router level, both planes: every
/// successful insert is still accounted for by live + expired + recycled
/// + inline-reclaimed records after heavy churn and an idle sweep.
#[test]
fn flow_churn_accounting_is_conserved_on_both_planes() {
    const IDLE_NS: u64 = 2_000_000;

    // Single-threaded.
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: defended_flow_table(),
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    run_script(&mut r, RIG_SCRIPT).unwrap();
    let mut expired = 0u64;
    let mut now = 0u64;
    for wave in 0..6u16 {
        for m in churn_wave(wave) {
            r.receive(m);
        }
        now += IDLE_NS + 1;
        r.set_time_ns(now);
        expired += r.expire_idle_flows(IDLE_NS) as u64;
    }
    let f = r.flow_stats();
    let inserted = f.misses - f.denied;
    assert_eq!(
        inserted,
        f.live as u64 + expired + f.recycled + f.inline_expired,
        "single-plane conservation: {f:?} expired={expired}"
    );

    // Parallel.
    let mut par = parallel_router(4, defended_flow_table());
    let mut expired = 0u64;
    let mut now = 0u64;
    for wave in 0..6u16 {
        par.receive_batch(churn_wave(wave));
        now += IDLE_NS + 1;
        par.set_time_ns(now);
        expired += par.expire_idle_flows(IDLE_NS) as u64;
    }
    par.flush();
    let f = par.flow_stats();
    let inserted = f.misses - f.denied;
    assert_eq!(
        inserted,
        f.live as u64 + expired + f.recycled + f.inline_expired,
        "parallel-plane conservation: {f:?} expired={expired}"
    );
}

/// Chaos soak on the steered plane: heavy-tailed, one-packet-flood and
/// fragment-flood phases while a chaos plugin panics, drops and stalls,
/// two shards are killed mid-phase and journal-rebuilt, and the simulated
/// clock jumps past the idle window between phases. Nothing may vanish,
/// the defended flow tables may never outgrow their caps, and both kinds
/// of fault must actually have fired.
#[test]
fn chaos_soak_conserves_with_flat_flow_table_occupancy() {
    const SHARDS: usize = 4;
    let table = defended_flow_table();
    let (cap, idle_ns) = (SHARDS * table.max_records, table.max_idle_ns);
    let mut par = parallel_router(SHARDS, table);
    // The chaos instance sits on a narrow filter, so its faults hit the
    // probe flow below and leave the bulk of each phase to the shards.
    run_script(
        &mut par,
        "route 10.0.0.0/8 1\n\
         load chaos\n\
         create chaos mode=none\n\
         bind fw chaos 0 <*, *, UDP, *, 7777, *>",
    )
    .unwrap();
    let probe = Mbuf::new(
        PacketSpec::udp(v6_host(50), v6_host(300), 7000, 7777, 64).build(),
        0,
    );
    let restarts = |par: &mut ParallelRouter| {
        par.cp_shard_status()
            .iter()
            .map(|s| s.restarts)
            .sum::<u32>()
    };

    let phases = [
        (
            "panic-once",
            Some(0),
            Workload::heavy_tailed(64, 8, 256, 0x50AC).build(),
        ),
        (
            "drop every=7",
            None,
            Workload::one_packet_flood(1500, 64, 0x50AD).build(),
        ),
        (
            "stall cost=20000",
            Some(2),
            fragment_flood(150, 3000, 600, 0x50AE),
        ),
    ];
    let (mut offered, mut wire, mut now) = (0u64, 0u64, 0u64);
    for (mode, victim, pkts) in &phases {
        run_command(&mut par, &format!("msg chaos 0 set mode={mode}")).unwrap();
        let restarts_before = restarts(&mut par);
        for (n, p) in pkts.iter().enumerate() {
            if let Some(v) = victim.filter(|_| n == pkts.len() / 2) {
                par.cp_shard_kill(v).unwrap();
            }
            par.receive_batch(vec![p.clone()]);
            offered += 1;
            if n % 100 == 99 {
                par.receive_batch(vec![probe.clone()]);
                offered += 1;
            }
            if n % 512 == 511 {
                par.flush();
            }
        }
        if victim.is_some() {
            let t0 = std::time::Instant::now();
            while restarts(&mut par) == restarts_before
                || par
                    .cp_shard_status()
                    .iter()
                    .any(|s| s.health == HealthState::Quarantined)
            {
                assert!(t0.elapsed().as_secs() < 10, "shard never restarted");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        wire += drain_parallel(&mut par).len() as u64;
        // Occupancy is sampled under attack, before the idle sweep.
        let live = par.flow_stats().live;
        assert!(live <= cap, "{mode}: {live} live records, cap {cap}");
        now += idle_ns + 1;
        par.set_time_ns(now);
        par.expire_idle_flows(idle_ns);
    }

    let s = par.stats();
    assert_eq!(s.received, offered);
    assert_eq!(offered, wire + s.dropped_total(), "silent loss: {s:?}");
    assert!(s.plugin_faults > 0, "chaos plugin never faulted: {s:?}");
    assert!(par.flow_stats().denied > 0, "admission never engaged");
    assert!(restarts(&mut par) >= 2, "shard kills never restarted");
}
