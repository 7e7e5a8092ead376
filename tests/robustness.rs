//! Robustness: the router must survive arbitrary byte soup and mutated
//! packets with every gate armed — a kernel data path never panics on
//! wire input. (Drops are fine; UB/panics/hangs are not.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_plugins::classifier::FlowTableConfig;
use router_plugins::core::ip_core::{Disposition, DropReason};
use router_plugins::core::plugin::{PacketCtx, SoftState};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{
    FaultPolicy, Gate, HealthState, PluginAction, PluginInstance, Router, RouterConfig,
};
use router_plugins::netsim::topology::{Port, Topology};
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::mbuf::FlowIndex;
use router_plugins::packet::{FlowKey, Mbuf};

fn armed_router() -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: true,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    r.add_route("10.0.0.0".parse().unwrap(), 8, 2);
    run_script(
        &mut r,
        "
        load firewall
        create firewall action=allow
        bind fw firewall 0 <*, *, TCP, *, *, *>
        load opt6
        create opt6
        bind opts opt6 0 <*, *, *, *, *, *>
        load ah
        create ah mode=verify key=k spi=1
        bind ipsec ah 0 <2001:db8:dead::/48, *, *, *, *, *>
        load stats
        create stats
        bind stats stats 0 <*, *, *, *, *, *>
        load drr
        create drr quantum=1500 limit=8
        attach 1 drr 0
        bind sched drr 0 <*, *, UDP, *, *, *>
        ",
    )
    .unwrap();
    r
}

#[test]
fn random_bytes_never_panic() {
    let mut r = armed_router();
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for i in 0..5000 {
        let len = rng.gen_range(0..200);
        let mut data = vec![0u8; len];
        rng.fill(&mut data[..]);
        // Half the time, force a plausible version nibble so parsing goes
        // deeper before failing.
        if len > 0 && rng.gen_bool(0.5) {
            data[0] = if rng.gen_bool(0.5) { 0x45 } else { 0x60 };
        }
        let _ = r.receive(Mbuf::new(data, i % 4));
    }
    // Router still works afterwards.
    let ok = PacketSpec::udp(v6_host(1), v6_host(9), 1, 2, 32).build();
    let d = r.receive(Mbuf::new(ok, 0));
    assert!(matches!(
        d,
        router_plugins::core::ip_core::Disposition::Queued(1)
    ));
}

#[test]
fn mutated_valid_packets_never_panic() {
    let mut r = armed_router();
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let templates = [
        PacketSpec::udp(v6_host(1), v6_host(9), 1000, 2000, 64).build(),
        PacketSpec::tcp(v6_host(2), v6_host(9), 1000, 443, 64).build(),
        PacketSpec::udp(
            "10.1.2.3".parse().unwrap(),
            "10.9.9.9".parse().unwrap(),
            5,
            6,
            64,
        )
        .build(),
        PacketSpec::udp(v6_host(3), v6_host(9), 7, 8, 64)
            .with_hbh_option(5, vec![0, 0])
            .build(),
    ];
    for i in 0..5000 {
        let mut p = templates[i % templates.len()].clone();
        // Up to 4 random byte mutations.
        for _ in 0..rng.gen_range(1..=4) {
            let pos = rng.gen_range(0..p.len());
            p[pos] ^= 1 << rng.gen_range(0..8);
        }
        let _ = r.receive(Mbuf::new(p, (i % 4) as u32));
    }
    // Drain whatever got queued; must terminate.
    let mut total = 0;
    while r.pump(1, 64) > 0 {
        total += 1;
        assert!(total < 10_000);
        r.take_tx(1);
    }
}

// ------------------------------------------------------------------
// Plugin supervision: a faulting plugin loses packets, never the router.
// ------------------------------------------------------------------

fn supervised_router(script: &str) -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(&mut r, script).unwrap();
    r
}

fn udp(sport: u16) -> Mbuf {
    Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(9), sport, 2000, 64).build(),
        0,
    )
}

/// The acceptance scenario: a chaos instance panicking on every 3rd packet
/// at the input (firewall) gate. The router forwards every non-faulting
/// packet of a 1000-packet workload, the instance ends up quarantined,
/// affected flows fall back to the default path, and `pmgr health`
/// reports the transition.
#[test]
fn chaos_every_third_packet_quarantine_acceptance() {
    let mut r = supervised_router(
        "load chaos\ncreate chaos mode=panic every=3\n\
         bind fw chaos 0 <*, *, UDP, *, *, *>",
    );
    let mut forwarded = 0u64;
    let mut faulted = 0u64;
    for i in 0..1000u32 {
        // 40 distinct flows so quarantine has live cache entries to flush.
        match r.receive(udp(1000 + (i % 40) as u16)) {
            Disposition::Forwarded(_) => forwarded += 1,
            Disposition::Dropped(DropReason::PluginFault(Gate::Firewall)) => faulted += 1,
            other => panic!("packet {i}: unexpected disposition {other:?}"),
        }
    }
    // Faults on calls 3, 6 and 9; the third fault crosses the quarantine
    // threshold (policy default 3), and every later packet forwards.
    assert_eq!(faulted, 3);
    assert_eq!(forwarded, 997);
    let reports = r.health_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].plugin, "chaos");
    assert_eq!(reports[0].health, HealthState::Quarantined);
    let health = run_command(&mut r, "health").unwrap();
    assert!(health.contains("quarantined"), "{health}");
    assert!(health.contains("injected panic"), "{health}");
    let faults = run_command(&mut r, "faults").unwrap();
    assert!(faults.contains("quarantines=1"), "{faults}");
    let s = r.stats();
    assert_eq!(s.dropped_fault, 3);
    assert_eq!(s.plugin_quarantines, 1);
    assert_eq!(s.forwarded, forwarded);
}

/// Panic containment holds at every gate of the pipeline, including the
/// scheduling gate on the egress side.
#[test]
fn chaos_panics_contained_at_every_gate() {
    for gate in ["fw", "opts", "ipsec", "route", "stats", "sched"] {
        let mut r = supervised_router(&format!(
            "load chaos\ncreate chaos mode=panic every=3\n\
             bind {gate} chaos 0 <*, *, UDP, *, *, *>"
        ));
        let mut dropped = 0u32;
        let mut passed = 0u32;
        for i in 0..30u16 {
            match r.receive(udp(100 + i)) {
                Disposition::Forwarded(_) | Disposition::Queued(_) => passed += 1,
                Disposition::Dropped(DropReason::PluginFault(_)) => dropped += 1,
                other => panic!("gate {gate}: unexpected disposition {other:?}"),
            }
        }
        assert_eq!(dropped, 3, "gate {gate}: three faults then quarantine");
        assert_eq!(passed, 27, "gate {gate}");
        assert_eq!(
            r.health_reports()[0].health,
            HealthState::Quarantined,
            "gate {gate}"
        );
    }
}

/// One isolation frame spans all pre-routing gates, so attribution rests
/// on the in-flight marker: with a healthy instance at the first gate and
/// a crashing one at a later gate, every fault lands on the crashing
/// instance, the first gate's work still counts, and the dropped packet's
/// buffer goes back to the pool.
#[test]
fn panic_at_a_later_gate_is_charged_to_that_instance_alone() {
    let mut r = supervised_router(
        "load null\ncreate null\nbind fw null 0 <*, *, UDP, *, *, *>\n\
         load chaos\ncreate chaos mode=panic every=1\n\
         bind stats chaos 0 <*, *, UDP, *, *, *>",
    );
    let pool_before = r.pool_stats();
    for i in 0..3u16 {
        let m = r.mbuf_with(udp(100 + i).data(), 0);
        assert_eq!(
            r.receive(m),
            Disposition::Dropped(DropReason::PluginFault(Gate::Stats))
        );
    }
    let pool = r.pool_stats();
    assert_eq!(pool.acquired - pool_before.acquired, 3);
    assert_eq!(pool.recycled - pool_before.recycled, 3);
    let s = r.stats();
    assert_eq!(s.plugin_calls, 6, "the first gate's calls are counted");
    assert_eq!(s.plugin_faults, 3);
    assert_eq!(s.dropped_fault, 3);
    let reports = r.health_reports();
    let of = |name: &str| reports.iter().find(|h| h.plugin == name).unwrap();
    assert_eq!(of("chaos").total_faults, 3);
    assert_eq!(of("chaos").health, HealthState::Quarantined);
    assert_eq!(of("null").total_faults, 0);
    assert_eq!(of("null").health, HealthState::Healthy);
    let instances = run_command(&mut r, "show instances").unwrap();
    assert!(instances.contains("null: 3 calls"), "{instances}");
    // With the crashing instance off the path the flow forwards again,
    // still through the first gate's instance.
    assert!(matches!(r.receive(udp(100)), Disposition::Forwarded(1)));
    assert_eq!(r.stats().plugin_calls, 7);
}

/// A quarantined instance is restarted from its factory after the policy
/// backoff (simulated time); a second quarantine doubles the backoff.
#[test]
fn quarantined_instance_restarts_with_backoff() {
    let mut r = supervised_router(
        "load chaos\ncreate chaos mode=panic every=1\n\
         bind stats chaos 0 <*, *, UDP, *, *, *>",
    );
    for i in 0..3u16 {
        assert!(matches!(
            r.receive(udp(100 + i)),
            Disposition::Dropped(DropReason::PluginFault(Gate::Stats))
        ));
    }
    let rep = &r.health_reports()[0];
    assert_eq!(rep.health, HealthState::Quarantined);
    assert_eq!(rep.restart_at_ns, Some(1_000_000), "initial 1ms backoff");
    // While quarantined the flow falls back to the default path.
    assert!(matches!(r.receive(udp(50)), Disposition::Forwarded(1)));
    // Advance past the backoff: the instance is rebuilt from the factory
    // with its create-time config and its filter binding re-installed.
    r.set_time_ns(1_000_000);
    let rep = &r.health_reports()[0];
    assert_eq!(rep.health, HealthState::Healthy);
    assert_eq!(rep.restarts, 1);
    assert_eq!(r.stats().plugin_restarts, 1);
    // Same config, same crash: the second quarantine re-arms the restart
    // timer with the backoff doubled (1ms → 2ms from t=1ms).
    for i in 0..3u16 {
        assert!(matches!(r.receive(udp(60 + i)), Disposition::Dropped(_)));
    }
    let rep = &r.health_reports()[0];
    assert_eq!(rep.health, HealthState::Quarantined);
    assert_eq!(rep.restart_at_ns, Some(3_000_000), "doubled backoff");
}

/// Restart rebuilds from the create-time config: an instance rearmed into
/// a crash loop at run time comes back benign and serves traffic again.
#[test]
fn restart_recovers_create_time_config() {
    let mut r =
        supervised_router("load chaos\ncreate chaos\nbind stats chaos 0 <*, *, UDP, *, *, *>");
    assert!(matches!(r.receive(udp(1)), Disposition::Forwarded(1)));
    // Rearm the live instance into a crash loop mid-stream.
    run_command(&mut r, "msg chaos 0 set mode=panic every=1").unwrap();
    for i in 2..5u16 {
        assert!(matches!(r.receive(udp(i)), Disposition::Dropped(_)));
    }
    assert_eq!(r.health_reports()[0].health, HealthState::Quarantined);
    r.set_time_ns(2_000_000);
    assert_eq!(r.health_reports()[0].health, HealthState::Healthy);
    // The rebuilt instance runs the (benign) create-time config.
    for i in 10..20u16 {
        assert!(matches!(r.receive(udp(i)), Disposition::Forwarded(1)));
    }
    let rep = &r.health_reports()[0];
    assert_eq!(rep.health, HealthState::Healthy);
    assert_eq!(rep.faults, 0, "fault window reset by the restart");
    assert_eq!(rep.total_faults, 3, "lifetime count survives");
}

/// A stalling instance (modelled by charging absurd per-call cost) trips
/// the packet budget: calls complete and packets forward, but the faults
/// accumulate to quarantine.
#[test]
fn stalling_instance_exceeds_budget_and_quarantines() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        fault_policy: FaultPolicy {
            packet_budget_ns: 10_000,
            max_restarts: 0,
            ..FaultPolicy::default()
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load chaos\ncreate chaos mode=stall cost=50000\n\
         bind stats chaos 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    // A stall is a completed call: the packet still forwards, but each
    // call charges 50µs against a 10µs budget and counts as a fault.
    for i in 0..3u16 {
        assert!(matches!(r.receive(udp(i)), Disposition::Forwarded(1)));
    }
    assert_eq!(r.stats().plugin_faults, 3);
    let rep = &r.health_reports()[0];
    assert_eq!(rep.health, HealthState::Quarantined);
    let last = rep.last_fault.as_deref().unwrap();
    assert!(last.contains("budget exceeded"), "{last}");
    assert_eq!(rep.restart_at_ns, None, "restart disabled by policy");
    // Quarantined means off the path: later packets skip the stall.
    assert!(matches!(r.receive(udp(9)), Disposition::Forwarded(1)));
}

/// A budget fault that quarantines an instance mid-walk ends that
/// instance's run: the same packet's later gate, bound to the same
/// instance, must not call it again. Two calls per packet against a
/// quarantine threshold of three puts the quarantining fault at the
/// first gate of the second packet.
#[test]
fn quarantine_mid_walk_stops_the_instances_run() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        fault_policy: FaultPolicy {
            packet_budget_ns: 10_000,
            max_restarts: 0,
            ..FaultPolicy::default()
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load chaos\ncreate chaos mode=stall cost=50000\n\
         bind fw chaos 0 <*, *, UDP, *, *, *>\n\
         bind stats chaos 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    assert!(matches!(r.receive(udp(1)), Disposition::Forwarded(1)));
    let s = r.stats();
    assert_eq!((s.plugin_calls, s.plugin_faults), (2, 2));
    assert_eq!(r.health_reports()[0].health, HealthState::Degraded);
    // The fw call is the third fault: quarantined there, never at stats.
    assert!(matches!(r.receive(udp(1)), Disposition::Forwarded(1)));
    let s = r.stats();
    assert_eq!((s.plugin_calls, s.plugin_faults), (3, 3));
    assert_eq!(s.plugin_quarantines, 1);
    assert_eq!(r.health_reports()[0].health, HealthState::Quarantined);
    // Off the path at both gates, for the old flow and a new one.
    assert!(matches!(r.receive(udp(1)), Disposition::Forwarded(1)));
    assert!(matches!(r.receive(udp(2)), Disposition::Forwarded(1)));
    assert_eq!(r.stats().plugin_calls, 3);
}

/// A plugin whose eviction callback panics — the fault the data path
/// cannot see coming: it strikes while some *other* flow's first packet
/// is being classified.
struct Grumpy;
struct GrumpyInstance;

impl router_plugins::core::Plugin for Grumpy {
    fn name(&self) -> &str {
        "grumpy"
    }
    fn code(&self) -> router_plugins::core::PluginCode {
        router_plugins::core::PluginCode::new(router_plugins::core::PluginType::STATS, 99)
    }
    fn create_instance(
        &mut self,
        _config: &str,
    ) -> Result<Box<dyn PluginInstance>, router_plugins::core::plugin::PluginError> {
        Ok(Box::new(GrumpyInstance))
    }
}

impl PluginInstance for GrumpyInstance {
    fn handle_packet(&mut self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
        PluginAction::Continue
    }
    fn flow_unbound(&mut self, _: FlowIndex, key: &FlowKey, _: SoftState, _: &mut Vec<Mbuf>) {
        panic!("cannot let go of {key}");
    }
}

/// A panic in `flow_unbound` is a fault like any other: counted, charged
/// to the instance that raised it, and quarantining at the policy's
/// threshold — while the packet whose classification recycled the flow is
/// forwarded regardless, and every packet is accounted for.
#[test]
fn panicking_eviction_callback_is_charged_and_quarantines() {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        flow_table: FlowTableConfig {
            buckets: 64,
            max_buckets: 0,
            initial_records: 4,
            max_records: 8,
            ..RouterConfig::default().flow_table
        },
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.loader.add_factory("grumpy", || Box::new(Grumpy)).unwrap();
    r.add_route(v6_host(0), 32, 1);
    run_script(
        &mut r,
        "load grumpy\ncreate grumpy\nbind stats grumpy 0 <*, *, UDP, *, *, *>\n\
         load null\ncreate null\nbind fw null 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    // Eight flows fill the table; each later flow recycles one of them,
    // and the third recycling crosses the quarantine threshold (3).
    const FLOWS: u16 = 40;
    for i in 0..FLOWS {
        assert_eq!(
            r.receive(udp(1000 + i)),
            Disposition::Forwarded(1),
            "flow {i}"
        );
        let faults = u64::from(i.saturating_sub(7).min(3));
        assert_eq!(r.stats().plugin_faults, faults, "after flow {i}");
    }
    let s = r.stats();
    assert_eq!(
        (s.received, s.forwarded),
        (u64::from(FLOWS), u64::from(FLOWS))
    );
    assert_eq!(
        (s.plugin_faults, s.plugin_quarantines, s.dropped_fault),
        (3, 1, 0)
    );
    let reports = r.health_reports();
    let of = |name: &str| reports.iter().find(|h| h.plugin == name).unwrap();
    assert_eq!(of("grumpy").health, HealthState::Quarantined);
    assert_eq!(of("grumpy").total_faults, 3);
    assert!(of("grumpy")
        .last_fault
        .as_deref()
        .unwrap()
        .contains("cannot let go"));
    // The healthy instance on the same flows heard every one of its
    // callbacks and is charged nothing.
    assert_eq!(of("null").total_faults, 0);
    assert_eq!(of("null").health, HealthState::Healthy);
    // The quarantine flushed grumpy's flows; the table refilled and
    // went on recycling, now without a fault.
    assert_eq!(r.flow_stats().live, 8);
    assert!(r.flow_stats().recycled > 3);
}

/// Link-level fault injection across a 3-node chain: loss on the first
/// hop, corruption on the second. Counters account for every packet —
/// nothing is silently blackholed.
#[test]
fn topology_fault_injection_three_nodes() {
    fn node() -> Router {
        let mut r = Router::new(RouterConfig {
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r.add_route(v6_host(0), 32, 1);
        r
    }
    let mut topo = Topology::new();
    let a = topo.add_node(node());
    let b = topo.add_node(node());
    let c = topo.add_node(node());
    topo.connect(Port { node: a, iface: 1 }, Port { node: b, iface: 0 });
    topo.connect(Port { node: b, iface: 1 }, Port { node: c, iface: 0 });
    // Every 2nd packet leaving A is lost; every 2nd leaving B is corrupted.
    topo.set_link_loss(Port { node: a, iface: 1 }, 2);
    topo.set_link_corruption(Port { node: b, iface: 1 }, 2);
    let pkt = PacketSpec::udp(v6_host(1), v6_host(200), 7, 8, 100).build();
    for _ in 0..12 {
        topo.inject(Port { node: a, iface: 0 }, pkt.clone());
    }
    topo.run_until_idle(10);
    assert_eq!(topo.lost_to_faults, 6, "half lost on the A→B hop");
    assert_eq!(topo.corrupted_by_faults, 3, "half of the survivors mangled");
    let got = topo.take_delivered(c);
    assert_eq!(got.len(), 6, "corrupted packets still arrive, lost do not");
    let orig_last = *pkt.last().unwrap();
    let flipped = got
        .iter()
        .filter(|m| *m.data().last().unwrap() == orig_last ^ 0xFF)
        .count();
    assert_eq!(flipped, 3);
}

/// An interface going down mid-stream blackholes the hop (counted), and
/// traffic resumes when it comes back — end to end through the chain.
#[test]
fn topology_interface_down_and_recovery() {
    fn node() -> Router {
        let mut r = Router::new(RouterConfig {
            verify_checksums: false,
            ..RouterConfig::default()
        });
        register_builtin_factories(&mut r.loader);
        r.add_route(v6_host(0), 32, 1);
        r
    }
    let mut topo = Topology::new();
    let a = topo.add_node(node());
    let b = topo.add_node(node());
    let link = Port { node: a, iface: 1 };
    topo.connect(link, Port { node: b, iface: 0 });
    let pkt = PacketSpec::udp(v6_host(1), v6_host(200), 7, 8, 64).build();
    topo.set_link_down(link, true);
    for _ in 0..4 {
        topo.inject(Port { node: a, iface: 0 }, pkt.clone());
    }
    topo.run_until_idle(10);
    assert_eq!(topo.take_delivered(b).len(), 0);
    assert_eq!(topo.lost_to_faults, 4);
    topo.set_link_down(link, false);
    for _ in 0..4 {
        topo.inject(Port { node: a, iface: 0 }, pkt.clone());
    }
    topo.run_until_idle(10);
    assert_eq!(topo.take_delivered(b).len(), 4);
    assert_eq!(topo.lost_to_faults, 4, "no further losses");
}

#[test]
fn truncations_of_every_template_never_panic() {
    let mut r = armed_router();
    let templates = [
        PacketSpec::udp(v6_host(1), v6_host(9), 1000, 2000, 64).build(),
        PacketSpec::udp(v6_host(3), v6_host(9), 7, 8, 32)
            .with_hbh_option(5, vec![0, 0])
            .build(),
    ];
    for t in &templates {
        for cut in 0..t.len() {
            let _ = r.receive(Mbuf::new(t[..cut].to_vec(), 0));
        }
    }
}
