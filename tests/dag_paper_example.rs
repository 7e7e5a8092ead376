//! E1 — the paper's Table 1 / Figure 4 classification example, end to
//! end, plus DAG-vs-linear equivalence on that filter set.

use router_plugins::classifier::filter::paper_table1_filters;
use router_plugins::classifier::{BmpKind, DagTable, LinearTable};
use router_plugins::packet::{FlowKey, FlowTuple};
use std::net::IpAddr;

fn t(src: &str, dst: &str, proto: u8) -> FlowKey {
    FlowKey::of(&FlowTuple {
        src: src.parse::<IpAddr>().unwrap(),
        dst: dst.parse::<IpAddr>().unwrap(),
        proto,
        sport: 1234,
        dport: 80,
        rx_if: 0,
    })
}

#[test]
fn figure4_walkthrough_both_bmp_plugins() {
    for kind in [BmpKind::Patricia, BmpKind::Bspl] {
        let mut dag = DagTable::new(kind);
        let ids: Vec<_> = paper_table1_filters()
            .into_iter()
            .enumerate()
            .map(|(i, f)| dag.insert(f, i).unwrap())
            .collect();

        // Paper §5.1.1: "the triple <128.252.153.1, 128.252.154.7, UDP>"
        // — Table 1's filters give filter 4 for the .154 destination
        // (only the source-/24 + UDP filter matches).
        let got = dag
            .lookup(&t("128.252.153.1", "128.252.154.7", 17))
            .unwrap();
        assert_eq!(got.0, ids[3]);

        // With Table 1's own destination (128.252.153.7) the most
        // specific match is filter 2, "a proper subset of filter 4".
        let got = dag
            .lookup(&t("128.252.153.1", "128.252.153.7", 17))
            .unwrap();
        assert_eq!(got.0, ids[1]);

        // TCP between the same pair → filter 3.
        let got = dag.lookup(&t("128.252.153.1", "128.252.153.7", 6)).unwrap();
        assert_eq!(got.0, ids[2]);

        // 129.* to the named host over TCP → filter 1.
        let got = dag.lookup(&t("129.5.6.7", "192.94.233.10", 6)).unwrap();
        assert_eq!(got.0, ids[0]);

        // Filters 1 and 4 are disjoint: a packet matching filter 1's
        // source cannot match filter 4.
        assert!(dag.lookup(&t("129.5.6.7", "1.2.3.4", 17)).is_none());
    }
}

#[test]
fn dag_agrees_with_linear_scan_on_table1() {
    let mut dag = DagTable::new(BmpKind::Bspl);
    let mut lin = LinearTable::new();
    for (i, f) in paper_table1_filters().into_iter().enumerate() {
        dag.insert(f.clone(), i).unwrap();
        lin.insert(f, i);
    }
    let probes = [
        t("128.252.153.1", "128.252.153.7", 17),
        t("128.252.153.1", "128.252.153.7", 6),
        t("128.252.153.1", "128.252.154.7", 17),
        t("128.252.153.99", "128.252.153.7", 17),
        t("129.0.0.1", "192.94.233.10", 6),
        t("129.0.0.1", "192.94.233.10", 17),
        t("130.0.0.1", "192.94.233.10", 6),
        t("128.252.153.1", "128.252.153.7", 1),
    ];
    for p in probes {
        let d = dag.lookup(&p).map(|(_, v)| *v);
        let l = lin.lookup(&p).map(|(_, v)| *v);
        assert_eq!(d, l, "diverged on {p}");
    }
}

#[test]
fn lookup_cost_flat_in_filter_count() {
    // E1/E5 seam: the DAG's per-level accesses do not grow with filters.
    let mut small = DagTable::new(BmpKind::Bspl);
    for (i, f) in paper_table1_filters().into_iter().enumerate() {
        small.insert(f, i).unwrap();
    }
    let mut big = DagTable::new(BmpKind::Bspl);
    for (i, f) in paper_table1_filters().into_iter().enumerate() {
        big.insert(f, i).unwrap();
    }
    for i in 0..2000u32 {
        let f = format!(
            "172.{}.{}.0/24, 10.0.0.0/8, TCP, *, {}, *",
            i % 250,
            (i / 250) % 250,
            1000 + (i % 30000)
        );
        big.insert(f.parse().unwrap(), 10 + i as usize).unwrap();
    }
    let probe = t("128.252.153.1", "128.252.153.7", 17);
    let (_, s_small) = small.lookup_with_stats(probe);
    let (_, s_big) = big.lookup_with_stats(probe);
    assert_eq!(s_small.dag_edges, s_big.dag_edges);
    assert_eq!(s_small.port_probes, s_big.port_probes);
    // BSPL probes grow at most logarithmically with populated lengths,
    // bounded by the Table 2 worst case of 5+5 for IPv4.
    assert!(
        s_big.addr_probes <= 10,
        "addr probes = {}",
        s_big.addr_probes
    );
}
