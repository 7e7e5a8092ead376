//! Shard-level supervision: a fault confined to one shard must never
//! lose the router. These tests drive the parallel data plane through
//! panics, wedges, and saturating bursts and verify the three promises
//! of the supervisor: containment (the other shards keep serving and the
//! control plane never hangs), rebuild (a restarted shard replays the
//! command journal back into id lockstep), and accounting (every packet
//! lost in a fault window is counted under `shard_down`/`shard_overload`
//! — zero silent loss).

use router_plugins::classifier::{FilterId, FilterSpec};
use router_plugins::core::gate::ALL_GATES;
use router_plugins::core::ip_core::DropReason;
use router_plugins::core::obs::drop_reason_index;
use router_plugins::core::plugins::chaos::release_wedges;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::supervisor::HealthState;
use router_plugins::core::{
    ControlCmd, ControlPlane, DataPlane, Gate, InstanceId, ParallelRouter, ParallelRouterConfig,
    PluginMsg, Router, RouterConfig,
};
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowKey, Mbuf};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `release_wedges` is a global release valve; serialize the tests that
/// wedge worker threads so one test's release cannot free another's.
static WEDGE_LOCK: Mutex<()> = Mutex::new(());

fn wedge_guard() -> std::sync::MutexGuard<'static, ()> {
    // A failed sibling test only poisons the lock; the guarded resource
    // (the global wedge epoch) is still valid.
    WEDGE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn parallel(shards: usize, cfg: impl FnOnce(&mut ParallelRouterConfig)) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    let mut c = ParallelRouterConfig {
        shards,
        router: RouterConfig {
            verify_checksums: false,
            ..RouterConfig::default()
        },
        ingress_depth: 64,
        ..ParallelRouterConfig::default()
    };
    cfg(&mut c);
    ParallelRouter::new(c, &template)
}

fn udp(dst_host: u16, sport: u16, dport: u16) -> Mbuf {
    Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(dst_host), sport, dport, 64).build(),
        0,
    )
}

/// Poll the supervisor until `pred` holds for the shard's status row, or
/// panic after `deadline`.
fn wait_for(
    pr: &mut ParallelRouter,
    shard: usize,
    deadline: Duration,
    what: &str,
    pred: impl Fn(&router_plugins::core::ShardStatus) -> bool,
) {
    let t0 = Instant::now();
    loop {
        let status = pr.cp_shard_status();
        if pred(&status[shard]) {
            return;
        }
        assert!(
            t0.elapsed() < deadline,
            "shard {shard} never became {what}: {:?} restarts={} fault={:?}",
            status[shard].health,
            status[shard].restarts,
            status[shard].last_fault
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------
// Containment + rebuild: a killed shard restarts into id lockstep
// ---------------------------------------------------------------------

#[test]
fn killed_shard_restarts_and_rejoins_in_lockstep() {
    let mut pr = parallel(2, |_| {});
    run_script(
        &mut pr,
        "load firewall\ncreate firewall\nroute 2001:db8::/32 1",
    )
    .unwrap();

    // Offer some traffic to both shards, fully retired before the fault.
    for i in 0..40u16 {
        pr.receive_batch(vec![udp(200 + (i % 8), 4000 + i, 80)]);
    }
    pr.flush();
    let before = pr.stats();
    assert_eq!(before.received, 40);
    assert_eq!(before.received, before.forwarded + before.dropped_total());

    let out = run_command(&mut pr, "shard kill 0").unwrap();
    assert!(out.contains("kill injected"), "{out}");

    // The panic is confined: the worker dies, the dispatcher quarantines
    // it and restarts it with backoff — observable as a degraded shard
    // with a recorded fault.
    wait_for(&mut pr, 0, Duration::from_secs(5), "restarted", |s| {
        s.health == HealthState::Degraded && s.restarts >= 1
    });
    let status = pr.cp_shard_status();
    assert!(
        status[0]
            .last_fault
            .as_deref()
            .is_some_and(|f| f.contains("injected kill")),
        "{:?}",
        status[0].last_fault
    );
    assert_eq!(status[1].health, HealthState::Healthy, "{:?}", status[1]);

    // Journal replay put the rebuilt shard's id counters back in
    // lockstep: the next allocation collapses to a single reply instead
    // of a per-shard divergence error.
    let out = run_command(&mut pr, "create firewall").unwrap();
    assert_eq!(out, "firewall instance 1");
    let out = run_command(&mut pr, "bind fw firewall 1 <*, *, UDP, *, 9999, *>").unwrap();
    assert_eq!(out, "filter 0");

    // Traffic flows through both shards again, and the books balance:
    // everything offered is either on the wire or in a counted drop.
    for i in 0..40u16 {
        pr.receive_batch(vec![udp(200 + (i % 8), 5000 + i, 80)]);
    }
    pr.flush();
    let s = pr.stats();
    assert_eq!(s.received, s.forwarded + s.dropped_total());
}

// ---------------------------------------------------------------------
// Accounting: a shard killed *mid-burst* loses packets in flight, and
// every one of them is re-accounted under a named drop
// ---------------------------------------------------------------------

#[test]
fn shard_killed_mid_burst_loses_nothing_silently() {
    const OFFERED: usize = 6_000;
    // Small FIFOs and no overload wait: the dispatcher never blocks, so
    // the burst keeps arriving while shard 0 dies, sits in quarantine and
    // is rebuilt.
    let mut pr = parallel(2, |c| {
        c.ingress_depth = 16;
        c.overload_wait = Duration::ZERO;
    });
    run_script(
        &mut pr,
        "load firewall\ncreate firewall\nroute 2001:db8::/32 1",
    )
    .unwrap();
    let flows: Vec<Mbuf> = (0..64).map(|i| udp(200 + i, 4000 + i, 80)).collect();

    for i in 0..OFFERED {
        if i == OFFERED / 3 {
            pr.cp_shard_kill(0).unwrap();
        }
        pr.receive_batch(vec![flows[i % flows.len()].clone()]);
    }
    wait_for(&mut pr, 0, Duration::from_secs(5), "restarted", |s| {
        s.health != HealthState::Quarantined && s.restarts >= 1
    });
    pr.flush();
    let wire: usize = (0..pr.interface_count())
        .map(|i| pr.take_tx(i as u32).len())
        .sum();

    let s = pr.stats();
    assert_eq!(s.received, OFFERED as u64, "sheds still count received");
    assert_eq!(
        OFFERED as u64,
        wire as u64 + s.dropped_shard_overload + s.dropped_shard_down,
        "offered != wire + named sheds: {s:?}"
    );
    assert_eq!(s.forwarded, wire as u64);
    // Engagement: had the kill landed after the burst drained, nothing
    // would have been in flight or shed at a dead shard.
    assert!(s.dropped_shard_down > 0, "kill missed the burst: {s:?}");
}

// ---------------------------------------------------------------------
// The journal converges a shard that missed commands while it was down
// ---------------------------------------------------------------------

#[test]
fn commands_issued_while_a_shard_is_down_reach_it_through_the_journal() {
    // Restarts disabled: the killed shard stays down until the operator
    // intervenes, so commands demonstrably land while it cannot hear them.
    let mut pr = parallel(2, |c| {
        c.router.fault_policy.max_restarts = 0;
    });
    run_script(&mut pr, "load firewall\ncreate firewall").unwrap();

    pr.cp_shard_kill(0).unwrap();
    wait_for(&mut pr, 0, Duration::from_secs(5), "quarantined", |s| {
        s.health == HealthState::Quarantined
    });

    // Allocate an instance while shard 0 is down — only shard 1 executes
    // it, but the journal records it.
    let out = run_command(&mut pr, "create firewall").unwrap();
    assert_eq!(out, "firewall instance 1");

    // Operator restart overrides the exhausted budget and replays the
    // journal, including the command shard 0 never saw.
    let out = run_command(&mut pr, "shard restart 0").unwrap();
    assert!(out.contains("shard 0 restarted"), "{out}");

    // Both shards must now agree on the next id.
    let out = run_command(&mut pr, "create firewall").unwrap();
    assert_eq!(out, "firewall instance 2");
}

// ---------------------------------------------------------------------
// The journal carries the FIB compile: a rebuilt shard is not left on
// the trie while its siblings read the direct-index table
// ---------------------------------------------------------------------

#[test]
fn restarted_shard_recompiles_its_fib_from_the_journal() {
    let mut pr = parallel(2, |_| {});
    // Routes before and after the compile: replay must compile at the
    // same point in the sequence and repaint what came later.
    run_script(
        &mut pr,
        "route 10.0.0.0/8 1\nroute 10.1.0.0/16 2\nroute optimize\nroute 10.1.2.128/25 3",
    )
    .unwrap();
    let fib = |pr: &mut ParallelRouter| pr.control_map(|ctx| ctx.router.fib_stats());
    let before = fib(&mut pr);
    assert_eq!(before.len(), 2);
    for s in &before {
        assert!(s.compiled, "{s:?}");
        assert_eq!((s.tbl8_groups, s.repaints), (1, 1), "{s:?}");
    }

    // 64 flows over both shards to destinations on either side of every
    // installed prefix boundary; what comes out where is the behaviour.
    let offer = |pr: &mut ParallelRouter| -> Vec<(u32, Vec<u8>)> {
        for i in 0..64u16 {
            let dst = [
                [10, 9, 9, 9],
                [10, 1, 9, 9],
                [10, 1, 2, 127],
                [10, 1, 2, 128],
            ][i as usize % 4];
            let spec = PacketSpec::udp(
                IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)),
                IpAddr::V4(Ipv4Addr::from(dst)),
                4000 + i,
                80,
                64,
            );
            pr.receive_batch(vec![Mbuf::new(spec.build(), 0)]);
        }
        pr.flush();
        let mut out: Vec<(u32, Vec<u8>)> = (0..4)
            .flat_map(|i| {
                pr.take_tx(i)
                    .into_iter()
                    .map(move |m| (i, m.data().to_vec()))
            })
            .collect();
        out.sort();
        out
    };
    let want = offer(&mut pr);
    assert_eq!(want.len(), 64);
    for iface in 1..=3 {
        assert!(
            want.iter().any(|(i, _)| *i == iface),
            "nothing left if{iface}"
        );
    }

    pr.cp_shard_kill(0).unwrap();
    wait_for(&mut pr, 0, Duration::from_secs(5), "restarted", |s| {
        s.health == HealthState::Degraded && s.restarts >= 1
    });

    assert_eq!(fib(&mut pr), before, "rebuilt shard's FIB differs");
    let out = run_command(&mut pr, "metrics").unwrap();
    assert!(out.contains("fib: compiled=2 "), "{out}");
    assert_eq!(offer(&mut pr), want, "rebuilt shard forwards differently");
}

// ---------------------------------------------------------------------
// Journal-replay equivalence, for every command there is
// ---------------------------------------------------------------------

fn create(plugin: &str, config: &str) -> ControlCmd {
    ControlCmd::Message {
        plugin: plugin.into(),
        msg: PluginMsg::CreateInstance {
            config: config.into(),
        },
    }
}

fn bind(plugin: &str, id: u32, gate: Gate, filter: &str) -> ControlCmd {
    ControlCmd::Message {
        plugin: plugin.into(),
        msg: PluginMsg::RegisterInstance {
            id: InstanceId(id),
            gate,
            filter: filter.parse::<FilterSpec>().unwrap(),
        },
    }
}

/// A command sequence holding a value of every `ControlCmd` variant, in an
/// order a router accepts. It is grown one stanza at a time, each stanza
/// chosen by the variant that ended the one before — and that `match` has
/// no wildcard arm, so a new variant does not compile until it has been
/// given a place in the sequence.
fn every_command() -> Vec<ControlCmd> {
    use ControlCmd::*;
    let v4 = |a, b, c, d| IpAddr::V4(Ipv4Addr::new(a, b, c, d));
    let mut table: Vec<ControlCmd> = Vec::new();
    loop {
        let stanza = match table.last() {
            None => vec![
                LoadPlugin("firewall".into()),
                LoadPlugin("drr".into()),
                LoadPlugin("stats".into()),
                LoadPlugin("null".into()),
                // Fails, identically everywhere, and must again on replay.
                LoadPlugin("no-such-plugin".into()),
            ],
            Some(LoadPlugin(_)) => vec![
                create("firewall", "action=deny"),
                create("firewall", "action=allow"),
                // A freed id is not handed out again: the next create
                // must say 2 on every router.
                Message {
                    plugin: "firewall".into(),
                    msg: PluginMsg::FreeInstance { id: InstanceId(0) },
                },
                create("drr", "quantum=1500 limit=64"),
                create("stats", ""),
                bind("firewall", 1, Gate::Firewall, "<*, *, UDP, *, 53, *>"),
                bind("stats", 0, Gate::Stats, "<*, *, UDP, *, *, *>"),
                bind("stats", 0, Gate::Stats, "<10.0.0.0/8, *, TCP, *, 80, *>"),
                Message {
                    plugin: "stats".into(),
                    msg: PluginMsg::DeregisterInstance {
                        gate: Gate::Stats,
                        filter: FilterId(0),
                    },
                },
                Message {
                    plugin: "stats".into(),
                    msg: PluginMsg::Custom {
                        instance: Some(InstanceId(0)),
                        name: "report".into(),
                        args: String::new(),
                    },
                },
            ],
            Some(Message { .. }) => vec![SetDefaultScheduler {
                iface: 1,
                plugin: "drr".into(),
                id: InstanceId(0),
            }],
            Some(SetDefaultScheduler { .. }) => vec![
                AddRoute {
                    addr: v4(10, 0, 0, 0),
                    prefix_len: 8,
                    tx_if: 1,
                },
                AddRoute {
                    addr: v4(10, 1, 0, 0),
                    prefix_len: 16,
                    tx_if: 2,
                },
                AddRoute {
                    addr: v6_host(0),
                    prefix_len: 32,
                    tx_if: 3,
                },
            ],
            Some(AddRoute { .. }) => vec![OptimizeRoutes],
            // After the compile: a repaint, and a miss that fails the
            // same way on replay.
            Some(OptimizeRoutes) => vec![
                RemoveRoute {
                    addr: v4(10, 1, 0, 0),
                    prefix_len: 16,
                },
                RemoveRoute {
                    addr: v4(172, 16, 0, 0),
                    prefix_len: 12,
                },
            ],
            Some(RemoveRoute { .. }) => vec![SetGateEnabled {
                gate: Gate::Ipv6Options,
                enabled: false,
            }],
            Some(SetGateEnabled { .. }) => vec![SetInterfaceAddr {
                iface: 0,
                addr: v6_host(254),
            }],
            Some(SetInterfaceAddr { .. }) => vec![TraceEnable(true)],
            // Takes a live instance and its binding with it.
            Some(TraceEnable(_)) => vec![ForceUnloadPlugin("stats".into())],
            Some(ForceUnloadPlugin(_)) => vec![
                UnloadPlugin("null".into()),
                // Refused: an instance is live.
                UnloadPlugin("firewall".into()),
            ],
            Some(UnloadPlugin(_)) => return table,
        };
        table.extend(stanza);
    }
}

/// Everything the control plane can see of a router's configuration.
fn configuration(r: &Router) -> impl PartialEq + std::fmt::Debug {
    let fib = r.fib_stats();
    (
        r.loader.loaded(),
        r.describe_instances(),
        ALL_GATES.map(|g| (r.gate_enabled(g), r.describe_filters(g))),
        (fib.compiled, fib.next_hops),
        r.tracer().enabled(),
    )
}

#[test]
fn every_command_replays_into_the_same_router() {
    let mut single = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut single.loader);
    let mut pr = parallel(2, |_| {});

    let mut refused = Vec::new();
    for cmd in every_command() {
        let want = cmd.apply(&mut single);
        if want.is_err() {
            refused.push(format!("{cmd:?}"));
        }
        assert_eq!(pr.cp_apply(cmd.clone()), want, "{cmd:?}");
    }
    // The table engages: only the three commands meant to fail did.
    assert_eq!(refused.len(), 3, "{refused:?}");
    assert_eq!(pr.journal_len(), every_command().len());

    pr.cp_shard_kill(1).unwrap();
    wait_for(&mut pr, 1, Duration::from_secs(5), "restarted", |s| {
        s.health == HealthState::Degraded && s.restarts >= 1
    });

    let want = configuration(&single);
    let shards = pr.control_map(|ctx| configuration(&ctx.router));
    assert_eq!(shards.len(), 2);
    for (i, got) in shards.iter().enumerate() {
        assert_eq!(*got, want, "shard {i}");
    }

    // The id counters came back too: the next instance and the next
    // filter get the same ids on the router that lived through the
    // commands, on shard 0, and on the shard rebuilt from the journal.
    let next = [
        (
            create("firewall", "action=deny"),
            "InstanceCreated(InstanceId(2))",
        ),
        (
            bind("firewall", 2, Gate::Firewall, "<*, *, TCP, *, 22, *>"),
            "Registered(FilterId(1))",
        ),
    ];
    for (cmd, reply) in next {
        let want = cmd.apply(&mut single);
        assert_eq!(format!("{want:?}"), format!("Ok({reply})"), "{cmd:?}");
        let got = pr.control_map(move |ctx| cmd.apply(&mut ctx.router));
        assert_eq!(got, vec![want.clone(), want]);
    }
}

// ---------------------------------------------------------------------
// Watchdog: a wedged shard is classified stalled, not waited on forever
// ---------------------------------------------------------------------

#[test]
fn wedged_shard_is_quarantined_by_the_watchdog_and_flush_returns() {
    let _guard = wedge_guard();
    let mut pr = parallel(2, |c| {
        c.stall_timeout = Duration::from_millis(100);
    });
    run_script(
        &mut pr,
        "load chaos\n\
         create chaos mode=wedge\n\
         bind stats chaos 0 <*, *, UDP, *, 7777, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();

    // Wedge whichever shard owns this flow (the chaos filter only
    // matches dport 7777, so the other shard never trips it).
    let trigger = udp(201, 6000, 7777);
    let victim = pr.shard_of(&trigger);
    pr.receive_batch(vec![trigger]);
    std::thread::sleep(Duration::from_millis(20)); // let the worker dequeue and wedge

    // This flush used to block forever on the wedged barrier. Now the
    // watchdog classifies the shard as stalled and the wait moves on.
    let t0 = Instant::now();
    pr.flush();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "flush did not return promptly"
    );
    let status = pr.cp_shard_status();
    assert!(
        status[victim]
            .last_fault
            .as_deref()
            .is_some_and(|f| f.contains("stalled")),
        "expected a stall fault on shard {victim}: {:?}",
        status[victim]
    );

    // Release the wedged thread so the abandoned incarnation can exit and
    // be harvested, and let the backoff restart bring the shard back.
    release_wedges();
    wait_for(
        &mut pr,
        victim,
        Duration::from_secs(5),
        "serving again",
        |s| s.health == HealthState::Degraded && s.restarts >= 1,
    );

    // The rebuilt shard replayed the chaos binding from the journal;
    // disarm it before offering traffic to the same flow space.
    run_command(&mut pr, "msg chaos 0 set mode=none").unwrap();
    for i in 0..20u16 {
        pr.receive_batch(vec![udp(201, 6100 + i, 80)]);
    }
    pr.flush();
    let s = pr.stats();
    // Zero silent loss: the wedged packet and everything after it is
    // either forwarded or in a counted drop bucket.
    assert_eq!(s.received, s.forwarded + s.dropped_total());
}

// ---------------------------------------------------------------------
// flush() waits on a completion cursor: a shard that will never move its
// cursor again must not hold it, and what it held is counted
// ---------------------------------------------------------------------

/// `n` packets of distinct flows that all dispatch to `shard`.
fn batch_for(pr: &ParallelRouter, shard: usize, n: usize) -> Vec<Mbuf> {
    (0..u16::MAX)
        .map(|i| udp(200 + (i % 32), 9000 + i, 80))
        .filter(|m| pr.shard_of(m) == shard)
        .take(n)
        .collect()
}

#[test]
fn flush_does_not_wait_for_a_shard_killed_with_a_batch_in_flight() {
    const IN_FLIGHT: usize = 8;
    let mut pr = parallel(2, |_| {});
    let stall_timeout = ParallelRouterConfig::default().stall_timeout;
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    let batch = batch_for(&pr, 0, IN_FLIGHT);

    // The batch takes its FIFO place behind the kill: accepted, never
    // handled, so shard 0's cursor stays short of it for good.
    pr.cp_shard_kill(0).unwrap();
    pr.receive_batch(batch);
    let t0 = Instant::now();
    pr.flush();
    assert!(
        t0.elapsed() < 2 * stall_timeout,
        "flush waited {:?} on a dead shard",
        t0.elapsed()
    );

    let s = pr.stats();
    assert_eq!(s.received, IN_FLIGHT as u64);
    assert_eq!(s.dropped_shard_down, IN_FLIGHT as u64, "{s:?}");
    assert_eq!(s.received, s.forwarded + s.dropped_total());
}

#[test]
fn flush_does_not_wait_for_a_shard_wedged_under_it() {
    let _guard = wedge_guard();
    const IN_FLIGHT: usize = 8;
    let stall_timeout = Duration::from_millis(300);
    let mut pr = parallel(2, |c| c.stall_timeout = stall_timeout);
    run_script(
        &mut pr,
        "load chaos\n\
         create chaos mode=wedge\n\
         bind stats chaos 0 <*, *, UDP, *, 7777, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();
    let trigger = udp(201, 6000, 7777);
    let victim = pr.shard_of(&trigger);
    let batch = batch_for(&pr, victim, IN_FLIGHT);
    pr.receive_batch(vec![trigger]);
    std::thread::sleep(Duration::from_millis(20)); // let the worker dequeue and wedge
    assert_eq!(pr.receive_batch(batch), IN_FLIGHT);

    // The wedge lets go only after the watchdog must have given up on the
    // shard, so flush has to leave the cursor wait on its own; the release
    // then lets the settle phase harvest the abandoned worker's accounting
    // inside the same flush.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(stall_timeout * 3 / 2);
        release_wedges();
    });
    let t0 = Instant::now();
    pr.flush();
    let waited = t0.elapsed();
    releaser.join().unwrap();
    assert!(
        waited < 2 * stall_timeout,
        "flush waited {waited:?} on a wedged shard"
    );
    let status = pr.cp_shard_status();
    assert!(
        status[victim]
            .last_fault
            .as_deref()
            .is_some_and(|f| f.contains("stalled")),
        "{:?}",
        status[victim]
    );

    // The trigger went out once released; the batch queued behind it died
    // with the abandoned incarnation and is counted, not lost.
    let s = pr.stats();
    assert_eq!(s.received, 1 + IN_FLIGHT as u64);
    assert_eq!(s.dropped_shard_down, IN_FLIGHT as u64, "{s:?}");
    assert_eq!(s.received, s.forwarded + s.dropped_total());
}

/// A fan-out queued behind a wedge gets `unresponsive` from that shard.
/// The abandoned incarnation keeps its own return ring: what it sends
/// after the watchdog gave up on it, and after its replacement took over
/// the shard index, still reaches the wire once and is counted once.
#[test]
fn an_abandoned_incarnations_late_egress_leaves_once() {
    let _guard = wedge_guard();
    let mut pr = parallel(2, |c| c.stall_timeout = Duration::from_millis(100));
    run_script(
        &mut pr,
        "load chaos\n\
         create chaos mode=wedge\n\
         bind stats chaos 0 <*, *, UDP, *, 7777, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();
    let trigger = udp(201, 6000, 7777);
    let victim = pr.shard_of(&trigger);
    pr.receive_batch(vec![trigger]);
    let out = run_command(&mut pr, "msg chaos 0 status").unwrap();
    let other = 1 - victim;
    assert!(out.contains(&format!("[shard {other}] ")), "{out}");
    assert!(
        out.contains(&format!("[shard {victim}] unresponsive")),
        "{out}"
    );
    wait_for(
        &mut pr,
        victim,
        Duration::from_secs(5),
        "rebuilt behind the wedged incarnation",
        |s| s.health == HealthState::Degraded && s.restarts >= 1,
    );
    assert!(pr.take_tx(1).is_empty(), "the trigger left while wedged");

    release_wedges();
    pr.flush();
    let dports = |out: Vec<Mbuf>| -> Vec<u16> {
        let key = |m: &Mbuf| FlowKey::extract(m.data(), m.rx_if).unwrap();
        out.iter().map(|m| key(m).tuple().dport).collect()
    };
    assert_eq!(dports(pr.take_tx(1)), [7777]);
    pr.flush();
    assert_eq!(dports(pr.take_tx(1)), [] as [u16; 0]);
    let s = pr.stats();
    assert_eq!((s.received, s.forwarded), (1, 1), "{s:?}");
    assert_eq!(s.dropped_total(), 0, "{s:?}");
}

// ---------------------------------------------------------------------
// Satellite regression: control fan-out over a pre-killed shard
// ---------------------------------------------------------------------

#[test]
fn control_map_and_flush_survive_a_dead_shard() {
    let mut pr = parallel(2, |c| {
        c.router.fault_policy.max_restarts = 0;
    });
    run_script(&mut pr, "load stats\ncreate stats").unwrap();

    pr.cp_shard_kill(1).unwrap();
    // Deliberately give the dispatcher no chance to notice the death
    // before the next control commands: the old fan-out blocked forever
    // on the dead shard's reply channel here.
    std::thread::sleep(Duration::from_millis(50));

    let t0 = Instant::now();
    let out = run_command(&mut pr, "stats").unwrap();
    assert!(out.starts_with("total:"), "{out}");
    pr.flush();
    let out = run_command(&mut pr, "msg stats 0 report").unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "control plane hung on a dead shard"
    );
    // Partial merge: the surviving shard's report plus an explicit
    // down marker for the dead one.
    assert!(out.contains("[shard 0]"), "{out}");
    assert!(out.contains("[shard 1] down"), "{out}");
}

// ---------------------------------------------------------------------
// Overload: dispatch to a saturated shard sheds counted, not silent
// ---------------------------------------------------------------------

#[test]
fn overload_shed_is_counted_in_stats_and_metrics() {
    let _guard = wedge_guard();
    const OFFERED: u64 = 50;
    let mut pr = parallel(1, |c| {
        c.ingress_depth = 8;
        c.overload_wait = Duration::ZERO;
        // Generous stall budget: the shard must stay *healthy* (merely
        // saturated) for the whole burst so the sheds land in the
        // overload bucket, not the down bucket.
        c.stall_timeout = Duration::from_secs(30);
    });
    run_script(
        &mut pr,
        "load chaos\n\
         create chaos mode=wedge\n\
         bind stats chaos 0 <*, *, UDP, *, 7777, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();

    // The worker wedges on the trigger packet (the only flow the chaos
    // filter matches — wedge re-arms per matching packet, so the burst
    // itself must not trip it); the FIFO fills; the rest of the burst
    // must shed immediately (zero overload_wait) and be counted per
    // packet.
    pr.receive_batch(vec![udp(201, 7000, 7777)]);
    std::thread::sleep(Duration::from_millis(20)); // let the worker dequeue and wedge
    for i in 1..OFFERED {
        pr.receive_batch(vec![udp(201, 7000 + i as u16, 80)]);
    }
    let status = pr.cp_shard_status();
    assert_eq!(status[0].health, HealthState::Healthy, "{:?}", status[0]);
    let shed = status[0].shed_overload;
    assert!(
        shed >= OFFERED - 10,
        "expected most of the burst shed, got {shed}"
    );
    assert_eq!(status[0].shed_down, 0, "{:?}", status[0]);

    // Release and drain what was queued.
    release_wedges();
    pr.flush();

    let s = pr.stats();
    assert_eq!(s.received, OFFERED, "sheds must still count as received");
    assert_eq!(s.dropped_shard_overload, shed);
    assert_eq!(
        s.received,
        s.forwarded + s.dropped_total(),
        "zero silent loss: {s:?}"
    );

    // The metrics registry tells the same story in its drop slot.
    let m = pr.metrics_snapshot();
    assert_eq!(m.drops[drop_reason_index(DropReason::ShardOverload)], shed);
}
