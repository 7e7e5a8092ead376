//! E9 — control-path lifecycle across the whole stack: modload → create
//! instance → create filter → bind → traffic → deregister → free →
//! modunload, exercised through the pmgr command language exactly as the
//! paper's §3.1 configuration sequence describes.

use router_plugins::core::ip_core::Disposition;
use router_plugins::core::loader::PluginLoader;
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script, PmgrError};
use router_plugins::core::{
    ControlPlane, Gate, ParallelRouter, ParallelRouterConfig, Router, RouterConfig,
};
use router_plugins::netdev::ioplane::IoPlane;
use router_plugins::netdev::loopback::LoopbackDev;
use router_plugins::netsim::traffic::v6_host;
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::Mbuf;

fn router() -> Router {
    let mut r = Router::new(RouterConfig {
        verify_checksums: false,
        ..RouterConfig::default()
    });
    register_builtin_factories(&mut r.loader);
    r.add_route(v6_host(0), 32, 1);
    r
}

fn udp_packet(sport: u16) -> Mbuf {
    Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(100), sport, 9000, 128).build(),
        0,
    )
}

#[test]
fn full_configuration_lifecycle() {
    let mut r = router();

    // §3.1 step 1: loading a plugin.
    run_command(&mut r, "load stats").unwrap();
    assert_eq!(r.loader.loaded(), vec!["stats"]);

    // Step 2: creating an instance.
    let out = run_command(&mut r, "create stats").unwrap();
    assert_eq!(out, "stats instance 0");

    // Steps 3+4: creating a filter and binding it to the instance.
    let out = run_command(&mut r, "bind stats stats 0 <*, *, UDP, *, *, *>").unwrap();
    let fid: u64 = out.strip_prefix("filter ").unwrap().parse().unwrap();

    // Data flows through the bound instance.
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(report.contains("2 pkts"), "{report}");

    // Deregister: flows derived from the filter are invalidated.
    run_command(&mut r, &format!("unbind stats stats {fid}")).unwrap();
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(
        report.contains("2 pkts"),
        "unbound instance must stop counting: {report}"
    );

    // Free + unload.
    run_command(&mut r, "free stats 0").unwrap();
    run_command(&mut r, "unload stats").unwrap();
    assert!(r.loader.loaded().is_empty());
}

#[test]
fn free_instance_purges_bindings() {
    let mut r = router();
    run_script(
        &mut r,
        "load firewall\ncreate firewall action=deny\nbind fw firewall 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    assert!(matches!(r.receive(udp_packet(1)), Disposition::Dropped(_)));
    // Free while the filter is still installed: the Router must purge the
    // binding first (the paper: "all references to it are removed from
    // the flow table and the filter table").
    run_command(&mut r, "free firewall 0").unwrap();
    assert_eq!(r.receive(udp_packet(1)), Disposition::Forwarded(1));
    // And the plugin can now be unloaded.
    run_command(&mut r, "unload firewall").unwrap();
}

#[test]
fn unload_refused_while_instances_live() {
    let mut r = router();
    run_script(&mut r, "load null\ncreate null").unwrap();
    let err = run_command(&mut r, "unload null").unwrap_err();
    assert!(matches!(err, PmgrError::Plugin(_)));
    run_command(&mut r, "free null 0").unwrap();
    run_command(&mut r, "unload null").unwrap();
}

#[test]
fn force_unload_mid_flow_flushes_bindings() {
    let mut r = router();
    run_script(
        &mut r,
        "load stats\ncreate stats\nbind stats stats 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    // Traffic caches a live flow bound to the instance.
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    // Plain unload keeps the refusal semantics while instances live…
    assert!(run_command(&mut r, "unload stats").is_err());
    // …and a bogus modifier is a syntax error, not a force.
    assert!(matches!(
        run_command(&mut r, "unload stats now"),
        Err(PmgrError::Syntax(_))
    ));
    // `force` frees the instance — deregistering its filter and flushing
    // the cached mid-stream flow — then unloads the module.
    let out = run_command(&mut r, "unload stats force").unwrap();
    assert_eq!(out, "force-unloaded stats");
    assert!(r.loader.loaded().is_empty());
    // The flow keeps flowing on the default path; no stale binding left.
    assert_eq!(r.receive(udp_packet(1000)), Disposition::Forwarded(1));
    assert_eq!(r.receive(udp_packet(1001)), Disposition::Forwarded(1));
}

#[test]
fn force_unload_scheduler_drains_queue_to_wire() {
    let mut r = router();
    run_script(
        &mut r,
        "load drr\ncreate drr quantum=1500\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    assert!(matches!(r.receive(udp_packet(1)), Disposition::Queued(1)));
    assert!(matches!(r.receive(udp_packet(2)), Disposition::Queued(1)));
    run_command(&mut r, "unload drr force").unwrap();
    // The queued packets were pushed to the wire, not blackholed.
    assert_eq!(r.take_tx(1).len(), 2);
    assert_eq!(r.receive(udp_packet(3)), Disposition::Forwarded(1));
}

#[test]
fn pmgr_health_and_faults_commands() {
    let mut r = router();
    assert_eq!(
        run_command(&mut r, "health").unwrap(),
        "no supervised instances"
    );
    run_script(&mut r, "load null\ncreate null").unwrap();
    let h = run_command(&mut r, "health").unwrap();
    assert!(h.contains("null 0: healthy faults=0/0 restarts=0"), "{h}");
    let f = run_command(&mut r, "faults").unwrap();
    assert!(f.contains("faults=0"), "{f}");
    assert!(f.contains("quarantines=0"), "{f}");
    run_command(&mut r, "free null 0").unwrap();
    assert_eq!(
        run_command(&mut r, "health").unwrap(),
        "no supervised instances"
    );
}

#[test]
fn multiple_instances_coexist_per_flow() {
    // "One of the novel features of our design is the ability to bind
    // different plugins to individual flows; this allows distinct plugin
    // implementations to seamlessly coexist."
    let mut r = router();
    run_script(
        &mut r,
        "load firewall\n\
         create firewall action=deny\n\
         create firewall action=allow\n\
         bind fw firewall 0 <2001:db8::/64, *, UDP, *, *, *>\n\
         bind fw firewall 1 <2001:db8::1, *, UDP, *, *, *>\n",
    )
    .unwrap();
    // Host ::1 matches the more specific allow instance.
    assert_eq!(r.receive(udp_packet(7)), Disposition::Forwarded(1));
    // Another host in the /64 hits the deny instance.
    let other = Mbuf::new(
        PacketSpec::udp(v6_host(2), v6_host(100), 7, 9000, 64).build(),
        0,
    );
    assert!(matches!(r.receive(other), Disposition::Dropped(_)));
}

#[test]
fn same_instance_multiple_filters() {
    // "The same instance may be registered multiple times with the AIU
    // with different filter specifications."
    let mut r = router();
    run_script(
        &mut r,
        "load stats\ncreate stats\n\
         bind stats stats 0 <*, *, UDP, *, 1000, *>\n\
         bind stats stats 0 <*, *, UDP, *, 2000, *>\n",
    )
    .unwrap();
    let mk = |dport: u16| {
        Mbuf::new(
            PacketSpec::udp(v6_host(1), v6_host(100), 5, dport, 64).build(),
            0,
        )
    };
    r.receive(mk(1000));
    r.receive(mk(2000));
    r.receive(mk(3000)); // matches no filter
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(report.contains("2 pkts"), "{report}");
}

#[test]
fn gates_toggle_at_runtime() {
    let mut r = router();
    run_script(
        &mut r,
        "load firewall\ncreate firewall action=deny\nbind fw firewall 0 <*, *, *, *, *, *>",
    )
    .unwrap();
    assert!(matches!(r.receive(udp_packet(1)), Disposition::Dropped(_)));
    r.set_gate_enabled(Gate::Firewall, false);
    assert_eq!(r.receive(udp_packet(2)), Disposition::Forwarded(1));
    r.set_gate_enabled(Gate::Firewall, true);
    assert!(matches!(r.receive(udp_packet(3)), Disposition::Dropped(_)));
}

#[test]
fn reload_after_unload_gets_fresh_state() {
    let mut r = router();
    run_script(
        &mut r,
        "load stats\ncreate stats\nbind stats stats 0 <*, *, *, *, *, *>",
    )
    .unwrap();
    r.receive(udp_packet(1));
    run_script(
        &mut r,
        "free stats 0\nunload stats\nload stats\ncreate stats",
    )
    .unwrap();
    let report = run_command(&mut r, "msg stats 0 report").unwrap();
    assert!(
        report.contains("0 pkts"),
        "fresh module must start clean: {report}"
    );
}

#[test]
fn new_filter_applies_to_already_cached_flows() {
    // Paper §6.1: "these commands can be executed at any time, even when
    // network traffic is transiting through the system." A more specific
    // filter installed mid-flow must take effect on the very next packet
    // of an already-cached flow.
    let mut r = router();
    run_script(
        &mut r,
        "load firewall\ncreate firewall action=allow\n\
         bind fw firewall 0 <*, *, UDP, *, *, *>",
    )
    .unwrap();
    // Cache the flow under the allow-all filter.
    assert_eq!(r.receive(udp_packet(777)), Disposition::Forwarded(1));
    assert_eq!(r.receive(udp_packet(777)), Disposition::Forwarded(1));
    assert_eq!(r.flow_stats().hits, 1);
    // Now deny that specific source port, while traffic is "in flight".
    run_script(
        &mut r,
        "create firewall action=deny\n\
         bind fw firewall 1 <*, *, UDP, 777, *, *>",
    )
    .unwrap();
    // The cached flow was invalidated and reclassifies to the deny rule.
    assert!(matches!(
        r.receive(udp_packet(777)),
        Disposition::Dropped(_)
    ));
    // Unrelated flows are unaffected.
    assert_eq!(r.receive(udp_packet(778)), Disposition::Forwarded(1));
}

// ---------------------------------------------------------------------
// One surface, four planes
// ---------------------------------------------------------------------

/// Every pmgr command, once or more. No traffic flows, so every counter
/// a reply shows is zero on every plane. `route optimize` comes after the
/// `metrics` reads because the FIB gauges in the total row count shards;
/// the kill is asynchronous, so nothing may follow it.
const EVERY_COMMAND: &str = "load stats
create stats
create stats
bind stats stats 1 <*, *, UDP, *, 53, *>
bind stats stats 1 <10.0.0.0/8, *, TCP, *, *, *>
unbind stats stats 0
msg stats 1 report
free stats 0
load drr
create drr quantum=1500 limit=64
attach 1 drr 0
route 10.0.0.0/8 1
route 2001:db8::/32 2
gate ipv6opts off
gate ipv6opts on
show filters stats
show filters fw
show instances
health
faults
stats
info
trace on
load null
trace dump 4
trace off
metrics
metrics json
route optimize
unload null
unload drr
unload stats force
unload stats
devices
shards
shard restart 0
shards
shard kill 1";

/// `(command, reply)` for every line of the script; an error is a reply.
fn transcript<C: ControlPlane>(cp: &mut C) -> Vec<(&'static str, String)> {
    EVERY_COMMAND
        .lines()
        .map(|cmd| {
            let reply = run_command(cp, cmd).unwrap_or_else(|e| e.to_string());
            (cmd, reply)
        })
        .collect()
}

/// What a parallel plane's reply says about the logical router: shard 0
/// speaks for the lockstep state, and the per-shard breakdown (`shard i`
/// rows, `== shard i ==` sections, the `shards` array) is left out.
fn logical_view(reply: &str) -> String {
    let reply = match reply.split_once(",\"shards\":[") {
        Some((merged, _)) => format!("{merged}}}"),
        None => reply.to_string(),
    };
    let mut in_shard_section = false;
    let mut out = Vec::new();
    for line in reply.lines() {
        if line.starts_with("== ") {
            in_shard_section = line.starts_with("== shard ");
        }
        let breakdown = in_shard_section
            || (line.starts_with("shard ") && line.contains(": rx="))
            || (line.starts_with("[shard ") && !line.starts_with("[shard 0] "));
        if !breakdown {
            out.push(line.strip_prefix("[shard 0] ").unwrap_or(line));
        }
    }
    out.join("\n")
}

#[test]
fn one_command_language_over_every_plane() {
    let template = || {
        let mut t = PluginLoader::new();
        register_builtin_factories(&mut t);
        t
    };
    // The preallocated-records gauge of the total row counts shards too:
    // the single router gets two shards' worth.
    let config = |initial_records| {
        let mut c = RouterConfig::default();
        c.flow_table.initial_records = initial_records;
        c
    };
    let single = || {
        let mut r = Router::new(config(2 * 512));
        r.loader = template();
        r
    };
    let parallel = || {
        let cfg = ParallelRouterConfig {
            shards: 2,
            router: config(512),
            ..ParallelRouterConfig::default()
        };
        ParallelRouter::new(cfg, &template())
    };
    let (dev_a, _peer_a) = LoopbackDev::pair("lo-a", "peer-a", 16);
    let (dev_b, _peer_b) = LoopbackDev::pair("lo-b", "peer-b", 16);
    let mut io_single = IoPlane::new(single(), 8);
    io_single.bind(0, Box::new(dev_a));
    let mut io_parallel = IoPlane::new(parallel(), 8);
    io_parallel.bind(0, Box::new(dev_b));

    let on_single = transcript(&mut single());
    let on_parallel = transcript(&mut parallel());
    let on_io_single = transcript(&mut io_single);
    let on_io_parallel = transcript(&mut io_parallel);

    // Under an I/O plane nothing changes but the `devices` rows.
    for (bare, io, dev) in [
        (&on_single, &on_io_single, "lo-a"),
        (&on_parallel, &on_io_parallel, "lo-b"),
    ] {
        for ((cmd, bare), (_, io)) in bare.iter().zip(io) {
            if *cmd == "devices" {
                assert!(bare.starts_with("no bound devices"), "{bare}");
                assert!(io.starts_with(&format!("{dev} if0 ")), "{io}");
            } else {
                assert_eq!(io, bare, "`{cmd}` under an I/O plane");
            }
        }
    }

    // Over shards nothing changes but the labels, the per-shard
    // breakdown and the shard commands themselves.
    for ((cmd, one), (_, many)) in on_single.iter().zip(&on_parallel) {
        if cmd.starts_with("shard") {
            assert!(one.contains("no data-plane shards"), "`{cmd}`: {one}");
            assert!(many.contains("shard "), "`{cmd}`: {many}");
            assert!(!many.starts_with("error"), "`{cmd}`: {many}");
        } else {
            assert_eq!(&logical_view(many), one, "`{cmd}` over two shards");
        }
    }
    // The script ran, it did not just fail the same way four times: the
    // only refusals are the unload of a plugin with a live instance and
    // the unload of one already gone.
    let refused: Vec<_> = on_single
        .iter()
        .filter(|(cmd, reply)| reply.starts_with("error") && !cmd.starts_with("shard "))
        .map(|(cmd, _)| *cmd)
        .collect();
    assert_eq!(refused, ["unload drr", "unload stats"]);
}
