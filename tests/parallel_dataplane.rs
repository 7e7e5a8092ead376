//! The sharded parallel data plane: flow-affine, balanced placement,
//! one control plane whose commands mean the same thing on every shard,
//! and a `flush` that returns with everything out. That it delivers what
//! the single-threaded router delivers is a row of
//! `tests/differential.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use router_plugins::classifier::flow_table::flow_hash;
use router_plugins::core::dataplane::{shard_for_tuple, ShardReport};
use router_plugins::core::plugins::register_builtin_factories;
use router_plugins::core::pmgr::{run_command, run_script};
use router_plugins::core::{ControlPlane, ParallelRouter, ParallelRouterConfig, RouterConfig};
use router_plugins::netsim::traffic::{fragment_flood, v4_host, v6_host};
use router_plugins::packet::builder::PacketSpec;
use router_plugins::packet::{FlowTuple, Mbuf};
use std::net::IpAddr;

// ---------------------------------------------------------------------
// Shard balance: the dispatch hash must spread random five-tuples evenly
// ---------------------------------------------------------------------

fn random_tuple(rng: &mut StdRng) -> FlowTuple {
    let v6: bool = rng.gen_bool(0.5);
    let (src, dst) = if v6 {
        (
            IpAddr::V6(std::net::Ipv6Addr::from(rng.gen::<u128>())),
            IpAddr::V6(std::net::Ipv6Addr::from(rng.gen::<u128>())),
        )
    } else {
        (
            IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())),
            IpAddr::V4(std::net::Ipv4Addr::from(rng.gen::<u32>())),
        )
    };
    FlowTuple {
        src,
        dst,
        proto: if rng.gen_bool(0.5) { 6 } else { 17 },
        sport: rng.gen(),
        dport: rng.gen_range(1..1024),
        rx_if: 0,
    }
}

#[test]
fn dispatch_spreads_random_flows_within_15_percent_of_mean() {
    const TUPLES: usize = 20_000;
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let tuples: Vec<FlowTuple> = (0..TUPLES).map(|_| random_tuple(&mut rng)).collect();
    for shards in [2usize, 4, 8] {
        let mut load = vec![0u64; shards];
        for t in &tuples {
            load[shard_for_tuple(t, shards)] += 1;
        }
        let mean = TUPLES as f64 / shards as f64;
        let max = *load.iter().max().unwrap() as f64;
        let min = *load.iter().min().unwrap() as f64;
        assert!(
            max <= mean * 1.15,
            "{shards} shards: max load {max} above 115% of mean {mean} ({load:?})"
        );
        assert!(
            min >= mean * 0.85,
            "{shards} shards: min load {min} below 85% of mean {mean} ({load:?})"
        );
    }
}

#[test]
fn dispatch_is_flow_affine_and_matches_cache_hash() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let t = random_tuple(&mut rng);
        for shards in [1usize, 2, 4, 8] {
            let s = shard_for_tuple(&t, shards);
            // Multiply-shift range reduction over the same cache hash.
            assert_eq!(s, ((flow_hash(&t) as u64 * shards as u64) >> 32) as usize);
            assert_eq!(s, shard_for_tuple(&t, shards));
        }
    }
}

/// Placement is one pure function of the packet: what `receive` does is
/// what `shard_of` says, which is the tuple hash — for every packet shape
/// the dispatcher can be handed.
#[test]
fn receive_places_every_packet_shape_by_its_tuple_hash() {
    let non_first = fragment_flood(1, 2000, 576, 1).swap_remove(1);
    let t = FlowTuple::from_mbuf(&non_first).expect("fragment parses");
    assert_eq!((t.sport, t.dport), (0, 0), "non-first fragments key on 0,0");
    let unparsable = Mbuf::new(vec![0u8; 4], 0);
    assert!(FlowTuple::from_mbuf(&unparsable).is_err());
    let cases = [
        Mbuf::new(
            PacketSpec::udp(v4_host(1, 2, 3), v4_host(200, 0, 1), 4000, 80, 64).build(),
            0,
        ),
        Mbuf::new(
            PacketSpec::udp(v6_host(10), v6_host(200), 4000, 80, 64).build(),
            0,
        ),
        non_first,
        unparsable,
    ];
    for shards in [1usize, 2, 4, 8] {
        let mut par = parallel(shards);
        for m in &cases {
            let want = FlowTuple::from_mbuf(m).map_or(0, |t| shard_for_tuple(&t, shards));
            assert_eq!(par.shard_of(m), want, "{shards} shards");
            assert_eq!(par.receive(m.clone()), want, "{shards} shards");
        }
    }
}

// ---------------------------------------------------------------------
// Single control plane over many shards
// ---------------------------------------------------------------------

fn parallel(shards: usize) -> ParallelRouter {
    let mut template = router_plugins::core::loader::PluginLoader::new();
    register_builtin_factories(&mut template);
    ParallelRouter::new(
        ParallelRouterConfig {
            shards,
            router: RouterConfig {
                verify_checksums: false,
                ..RouterConfig::default()
            },
            ingress_depth: 64,
            ..ParallelRouterConfig::default()
        },
        &template,
    )
}

#[test]
fn control_fanout_keeps_instance_ids_in_lockstep() {
    let mut pr = parallel(4);
    let out = run_script(
        &mut pr,
        "load stats\ncreate stats\ncreate stats\nbind stats stats 1 <*, *, UDP, *, 53, *>",
    )
    .unwrap();
    // Aggregated replies collapse to the single-router answer: one id,
    // not four.
    assert_eq!(out[1], "stats instance 0");
    assert_eq!(out[2], "stats instance 1");
    assert!(out[3].starts_with("filter "), "{out:?}");

    // The logical view is identical to what any one shard reports.
    let instances = pr.cp_describe_instances();
    assert_eq!(instances.len(), 2, "{instances:?}");
    let filters = run_command(&mut pr, "show filters stats").unwrap();
    assert!(filters.contains("53"), "{filters}");
}

#[test]
fn pmgr_stats_reports_per_shard_breakdown() {
    let mut pr = parallel(2);
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    for i in 0..40u16 {
        pr.receive(Mbuf::new(
            PacketSpec::udp(v6_host(i), v6_host(300), 2000 + i, 80, 64).build(),
            0,
        ));
    }
    pr.flush();
    let out = run_command(&mut pr, "stats").unwrap();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3, "total + 2 shard rows: {out}");
    assert!(lines[0].starts_with("total: rx=40"), "{out}");
    assert!(lines[1].starts_with("shard 0: rx="), "{out}");
    assert!(lines[2].starts_with("shard 1: rx="), "{out}");
    // Shard rows sum to the total row.
    let rx_of = |line: &str| -> u64 {
        line.split("rx=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(rx_of(lines[1]) + rx_of(lines[2]), 40);
}

#[test]
fn force_unload_fans_out_and_frees_all_shards() {
    let mut pr = parallel(3);
    run_script(
        &mut pr,
        "load firewall\ncreate firewall action=deny\n\
         bind fw firewall 0 <*, *, UDP, *, 7, *>",
    )
    .unwrap();
    assert_eq!(pr.cp_describe_instances().len(), 1);
    let out = run_command(&mut pr, "unload firewall force").unwrap();
    assert_eq!(out, "force-unloaded firewall");
    assert!(pr.cp_describe_instances().is_empty());
    assert!(pr.cp_loaded_plugins().is_empty());
    // Reload works afterwards on every shard.
    run_script(&mut pr, "load firewall\ncreate firewall action=deny").unwrap();
    assert_eq!(pr.cp_describe_instances().len(), 1);
}

#[test]
fn divergent_per_shard_text_replies_are_labelled() {
    let mut pr = parallel(2);
    run_script(
        &mut pr,
        "load stats\ncreate stats\n\
         bind stats stats 0 <*, *, UDP, *, *, *>\n\
         route 2001:db8::/32 1",
    )
    .unwrap();
    // One packet of a single flow lands on exactly one shard, so the two
    // shards' per-instance counters diverge.
    pr.receive(Mbuf::new(
        PacketSpec::udp(v6_host(1), v6_host(300), 1234, 80, 64).build(),
        0,
    ));
    pr.flush();
    let out = run_command(&mut pr, "msg stats 0 report").unwrap();
    assert!(out.contains("[shard 0]"), "{out}");
    assert!(out.contains("[shard 1]"), "{out}");
}

#[test]
fn shard_reports_cover_all_shards_and_account_packets() {
    let mut pr = parallel(4);
    run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
    for i in 0..100u16 {
        pr.receive(Mbuf::new(
            PacketSpec::udp(v6_host(i), v6_host(301), 1000 + i, 80, 64).build(),
            0,
        ));
    }
    pr.flush();
    let reports: Vec<ShardReport> = pr.shard_reports();
    assert_eq!(reports.len(), 4);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.shard, i);
    }
    assert_eq!(reports.iter().map(|r| r.packets).sum::<u64>(), 100);
    assert_eq!(pr.stats().received, 100);
    assert_eq!(pr.stats().forwarded, 100);
}

// ---------------------------------------------------------------------
// flush() reads a completion cursor: what that could get wrong
// ---------------------------------------------------------------------

#[test]
fn flush_returns_with_every_packet_out_cycle_after_cycle() {
    const CYCLES: u64 = 1_000;
    const BATCH: u64 = 8;
    for shards in [1usize, 2] {
        let mut pr = parallel(shards);
        run_script(&mut pr, "route 2001:db8::/32 1").unwrap();
        // Idle plane: every cursor has caught up with nothing.
        pr.flush();
        let images: Vec<Vec<u8>> = (0..BATCH as u16)
            .map(|i| PacketSpec::udp(v6_host(i), v6_host(300), 2000 + i, 80, 64).build())
            .collect();
        let mut out = Vec::new();
        for cycle in 0..CYCLES {
            let mut batch = pr.batch_carrier();
            for image in &images {
                batch.push(pr.mbuf_with(image, 0));
            }
            assert_eq!(pr.receive_batch(batch), BATCH as usize);
            // No sleep, no retry: when flush returns the burst is out.
            pr.flush();
            pr.take_tx_into(1, &mut out);
            assert_eq!(out.len() as u64, BATCH, "{shards} shards, cycle {cycle}");
            for m in out.drain(..) {
                pr.recycle_mbuf(m);
            }
        }
        let status = pr.cp_shard_status();
        assert_eq!(status.len(), shards);
        for s in &status {
            assert_eq!(s.sent, s.processed, "{s:?}");
        }
        assert_eq!(status.iter().map(|s| s.sent).sum::<u64>(), CYCLES * BATCH);
        if shards == 2 {
            assert!(status.iter().all(|s| s.sent > 0), "{status:?}");
        }
    }
}

#[test]
fn flush_after_a_control_command_sees_what_the_command_emitted() {
    const BACKLOG: usize = 20;
    let mut pr = parallel(2);
    run_script(
        &mut pr,
        "load drr\ncreate drr quantum=1500 limit=64\nattach 1 drr 0\n\
         bind sched drr 0 <*, *, UDP, *, *, *>\nroute 2001:db8::/32 1",
    )
    .unwrap();
    // Queue a backlog inside each shard's DRR instance: `receive` alone,
    // without the pump the burst entry runs after a queuing disposition.
    let queued = pr.control_map(|ctx| {
        (0..BACKLOG as u16)
            .filter(|&i| {
                let spec = PacketSpec::udp(v6_host(i), v6_host(300), 3000 + i, 80, 64);
                ctx.router.receive(Mbuf::new(spec.build(), 0))
                    == router_plugins::core::ip_core::Disposition::Queued(1)
            })
            .count()
    });
    assert_eq!(queued, vec![BACKLOG; 2]);
    pr.flush();
    assert!(
        pr.take_tx(1).is_empty(),
        "the backlog leaked before the unload"
    );

    // Force-unload drains the backlog to the wire on the shard, after the
    // command's reply is already on its way: only the cursor — moved after
    // the message's egress drain — tells flush the carriers are in.
    assert_eq!(
        run_command(&mut pr, "unload drr force").unwrap(),
        "force-unloaded drr"
    );
    pr.flush();
    assert_eq!(pr.take_tx(1).len(), 2 * BACKLOG);
}
