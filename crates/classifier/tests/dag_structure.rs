//! Structural properties of the set-pruning DAG: replication cost (the
//! paper's §5.1.2 memory caveat), pruning on removal, and cache/table
//! interaction in the AIU.

use rp_classifier::{Aiu, AiuConfig, BmpKind, DagTable, FilterSpec, FlowTableConfig};
use rp_packet::{FlowKey, FlowTuple};
use std::net::IpAddr;

fn t(src: &str, dport: u16) -> FlowTuple {
    FlowTuple {
        src: src.parse::<IpAddr>().unwrap(),
        dst: "10.0.0.9".parse().unwrap(),
        proto: 17,
        sport: 1,
        dport,
        rx_if: 0,
    }
}

#[test]
fn disjoint_filters_grow_linearly() {
    // Disjoint filters (distinct sources) should not replicate: node
    // count grows linearly.
    let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    let mut counts = Vec::new();
    for i in 0..64u32 {
        let f: FilterSpec = format!("10.{}.{}.0/24, *, UDP, *, *, *", i / 8, i % 8)
            .parse()
            .unwrap();
        dag.insert(f, i).unwrap();
        counts.push(dag.node_count());
    }
    // Each disjoint filter adds a constant number of nodes (one path).
    let d1 = counts[1] - counts[0];
    let dlast = counts[63] - counts[62];
    assert_eq!(d1, dlast, "disjoint inserts must cost constant nodes");
}

#[test]
fn nested_wildcards_replicate() {
    // A wildcard filter must be replicated under every specific edge —
    // node count impact grows with the number of specific edges
    // (the paper's acknowledged space cost).
    let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    for i in 0..16u32 {
        let f: FilterSpec = format!("10.{i}.0.0/16, *, UDP, *, {}, *", 1000 + i)
            .parse()
            .unwrap();
        dag.insert(f, i).unwrap();
    }
    let before = dag.node_count();
    // One wildcard-source filter with a distinct protocol: replicates
    // into all 16 source edges + the wildcard edge.
    dag.insert("*, *, TCP, *, *, *".parse().unwrap(), 99)
        .unwrap();
    let added = dag.node_count() - before;
    assert!(added >= 17 * 3, "wildcard replicated {added} nodes only");
    // And every source still sees it for TCP.
    for i in 0..16 {
        let mut probe = t(&format!("10.{i}.0.1"), 1);
        probe.proto = 6;
        assert_eq!(dag.lookup(&FlowKey::of(&probe)).map(|(_, v)| *v), Some(99));
    }
}

#[test]
fn removal_returns_node_count_to_baseline() {
    let mut dag: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    let a = dag
        .insert("10.0.0.0/8, *, UDP, *, *, *".parse().unwrap(), 1)
        .unwrap();
    let baseline = dag.node_count();
    let installed_root = dag.filter_ids().len();
    assert_eq!(installed_root, 1);
    let b = dag
        .insert("10.1.0.0/16, *, *, *, 500-600, *".parse().unwrap(), 2)
        .unwrap();
    let c = dag
        .insert("*, *, TCP, *, *, *".parse().unwrap(), 3)
        .unwrap();
    assert!(dag.node_count() > baseline);
    dag.remove(b).unwrap();
    dag.remove(c).unwrap();
    // Pruned back to the single-filter shape node for node, and every
    // probe behaves as with only filter a.
    assert_eq!(dag.node_count(), baseline);
    let mut reference: DagTable<u32> = DagTable::new(BmpKind::Bspl);
    reference
        .insert("10.0.0.0/8, *, UDP, *, *, *".parse().unwrap(), 1)
        .unwrap();
    for probe in [
        t("10.1.2.3", 550),
        t("10.1.2.3", 700),
        t("11.1.2.3", 550),
        t("10.200.2.3", 80),
    ] {
        assert_eq!(
            dag.lookup(&FlowKey::of(&probe)).map(|(_, v)| *v),
            reference.lookup(&FlowKey::of(&probe)).map(|(_, v)| *v),
            "probe {probe}"
        );
    }
    let _ = a;
}

#[test]
fn aiu_cache_cold_vs_warm_accounting() {
    let mut aiu: Aiu<u32> = Aiu::new(AiuConfig {
        gates: 2,
        flow_table: FlowTableConfig {
            gates: 2,
            buckets: 256,
            initial_records: 16,
            max_records: 64,
            max_idle_ns: 0,
            ..FlowTableConfig::default()
        },
        bmp: BmpKind::Bspl,
    });
    aiu.install_filter(0, "*, *, UDP, *, *, *".parse().unwrap(), 7)
        .unwrap();
    aiu.install_filter(1, "*, *, *, *, *, *".parse().unwrap(), 8)
        .unwrap();
    // 10 flows × 20 packets.
    for round in 0..20 {
        for flow in 0..10u16 {
            let probe = t("10.0.0.1", 1000 + flow);
            let (outcome, _) = aiu.classify(&probe);
            if round == 0 {
                assert!(matches!(
                    outcome,
                    rp_classifier::aiu::ClassifyOutcome::CacheMiss(_)
                ));
            } else {
                assert!(matches!(
                    outcome,
                    rp_classifier::aiu::ClassifyOutcome::CacheHit(_)
                ));
            }
        }
    }
    let s = aiu.flow_stats();
    assert_eq!(s.misses, 10);
    assert_eq!(s.hits, 190);
    // Filter tables were consulted exactly 10 times per gate: 2 gates ×
    // 10 misses × 6 edge accesses... except gate tables shortcut when
    // edges run out; both tables here have full wildcard chains.
    let fs = aiu.filter_stats();
    assert_eq!(fs.dag_edges, 2 * 10 * 6);
}
