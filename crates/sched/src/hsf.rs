//! Hierarchical Scheduling Framework (HSF) — the paper's §6 future work:
//! "allow different instances of packet scheduling plugins to be placed
//! at individual nodes in the scheduling hierarchy. For example, this
//! will allow us to combine both the H-FSC and the DRR scheduling
//! schemes, where DRR could be used to do fair queuing for all flows
//! ending in the same H-FSC leaf node" — fixing H-FSC's per-leaf FIFO
//! unfairness.
//!
//! Implementation: an outer [`HfscScheduler`] decides *which leaf class*
//! transmits next; each leaf may carry an inner scheduler (here: weighted
//! DRR over the flows mapped to that leaf) that decides *which flow's*
//! packet leaves. The outer scheduler sees one proxy flow id per leaf;
//! the inner one sees real flow ids.

use crate::drr::DrrScheduler;
use crate::hfsc::{ClassId, HfscScheduler, ServiceCurve};
use crate::link::{FlowId, SchedPacket, Scheduler};
use std::collections::HashMap;

/// H-FSC over leaves, DRR within each leaf.
///
/// Each leaf has its own [`DrrScheduler`], so the DRR memory bound
/// applies per leaf: (highest flow id the leaf has seen + 1) × 48 B,
/// ≤ 3.1 MB per leaf at the default 65 536-record flow table.
pub struct HsfScheduler {
    outer: HfscScheduler,
    /// Inner DRR per leaf class.
    inner: HashMap<ClassId, DrrScheduler>,
    /// flow → leaf class routing.
    flow_leaf: HashMap<FlowId, ClassId>,
    default_leaf: Option<ClassId>,
    quantum: u32,
    per_flow_limit: usize,
}

impl HsfScheduler {
    /// A framework over a link of `link_bps`; leaf-internal DRR uses
    /// `quantum` and `per_flow_limit`.
    pub fn new(link_bps: u64, quantum: u32, per_flow_limit: usize) -> Self {
        HsfScheduler {
            // The outer scheduler's own per-class limit is effectively
            // unbounded: admission happens at the inner DRR.
            outer: HfscScheduler::new(link_bps, usize::MAX / 2),
            inner: HashMap::new(),
            flow_leaf: HashMap::new(),
            default_leaf: None,
            quantum,
            per_flow_limit,
        }
    }

    /// The root of the outer hierarchy.
    pub fn root(&self) -> ClassId {
        self.outer.root()
    }

    /// Add an interior class (pure link-share node).
    pub fn add_interior(&mut self, parent: ClassId, ls_bps: u64) -> ClassId {
        self.outer.add_class(parent, ls_bps, None)
    }

    /// Add a leaf class with an inner DRR; optionally with a real-time
    /// curve.
    pub fn add_leaf(&mut self, parent: ClassId, ls_bps: u64, rt: Option<ServiceCurve>) -> ClassId {
        let id = self.outer.add_class(parent, ls_bps, rt);
        self.inner
            .insert(id, DrrScheduler::new(self.quantum, self.per_flow_limit));
        // The leaf's proxy flow in the outer scheduler is the class id.
        self.outer.bind_flow(id.0, id);
        id
    }

    /// Route a flow to a leaf.
    pub fn bind_flow(&mut self, flow: FlowId, leaf: ClassId) {
        assert!(self.inner.contains_key(&leaf), "not a leaf class");
        self.flow_leaf.insert(flow, leaf);
    }

    /// Leaf for unmapped flows.
    pub fn set_default_leaf(&mut self, leaf: ClassId) {
        assert!(self.inner.contains_key(&leaf), "not a leaf class");
        self.default_leaf = Some(leaf);
    }

    /// Set a flow's weight within its leaf's DRR.
    pub fn set_flow_weight(&mut self, flow: FlowId, weight: u32) {
        if let Some(leaf) = self.flow_leaf.get(&flow) {
            if let Some(drr) = self.inner.get_mut(leaf) {
                drr.set_weight(flow, weight);
            }
        }
    }

    /// Forget a flow (its classifier cache entry was evicted): a recycled
    /// id starts unbound, at weight 1 in its old leaf. Packets it still
    /// has queued are not purged but drain at their leaf's rate, because
    /// dropping them from the inner DRR would desynchronise the outer
    /// H-FSC, whose per-leaf byte accounting mirrors it exactly.
    pub fn release_flow(&mut self, flow: FlowId) {
        self.set_flow_weight(flow, 1);
        self.flow_leaf.remove(&flow);
    }
}

impl Scheduler for HsfScheduler {
    fn enqueue(&mut self, pkt: SchedPacket, now_ns: u64) -> bool {
        let Some(leaf) = self.flow_leaf.get(&pkt.flow).copied().or(self.default_leaf) else {
            return false;
        };
        let drr = self.inner.get_mut(&leaf).expect("leaf has inner DRR");
        if !drr.enqueue(pkt, now_ns) {
            return false;
        }
        // Mirror a proxy packet into the outer H-FSC so its curves and
        // virtual times account for the leaf's backlog byte-accurately.
        let accepted = self.outer.enqueue(
            SchedPacket {
                flow: leaf.0,
                len: pkt.len,
                arrival_ns: pkt.arrival_ns,
                cookie: 0,
            },
            now_ns,
        );
        debug_assert!(accepted, "outer proxy queue must not reject");
        accepted
    }

    fn dequeue(&mut self, now_ns: u64) -> Option<SchedPacket> {
        // Outer pick decides the leaf (its proxy packet's byte count may
        // differ from the inner head's; both drain the same totals, and
        // per-leaf byte accounting stays exact in the long run because
        // every enqueued byte is mirrored).
        let proxy = self.outer.dequeue(now_ns)?;
        let leaf = ClassId(proxy.flow);
        let drr = self.inner.get_mut(&leaf).expect("leaf has inner DRR");
        let pkt = drr
            .dequeue(now_ns)
            .expect("outer backlog implies inner backlog");
        Some(pkt)
    }

    fn backlog(&self) -> usize {
        self.inner.values().map(|d| d.backlog()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSim;

    const MBPS: u64 = 1_000_000;

    #[test]
    fn leaf_shares_and_intra_leaf_fairness() {
        // Two leaves 70/30; leaf A carries two flows that plain H-FSC
        // (FIFO within the leaf) would serve unfairly under asymmetric
        // load — the inner DRR splits A's share evenly.
        let mut hsf = HsfScheduler::new(10 * MBPS, 1500, 64);
        let root = hsf.root();
        let a = hsf.add_leaf(root, 7 * MBPS, None);
        let b = hsf.add_leaf(root, 3 * MBPS, None);
        hsf.bind_flow(1, a);
        hsf.bind_flow(2, a);
        hsf.bind_flow(3, b);
        let mut sim = LinkSim::new(hsf, 10 * MBPS);
        // Flow 1 sends big packets, flow 2 small: byte-fairness inside A
        // is exactly what leaf-FIFO cannot give.
        sim.run_backlogged(&[(1, 1500), (2, 300), (3, 1000)], 2_000_000_000);
        let total: f64 = [1, 2, 3].iter().map(|f| sim.stats(*f).bytes as f64).sum();
        let share = |f| sim.stats(f).bytes as f64 / total;
        assert!((share(1) - 0.35).abs() < 0.04, "A1 {}", share(1));
        assert!((share(2) - 0.35).abs() < 0.04, "A2 {}", share(2));
        assert!((share(3) - 0.30).abs() < 0.04, "B {}", share(3));
    }

    #[test]
    fn weighted_flows_within_leaf() {
        let mut hsf = HsfScheduler::new(10 * MBPS, 1500, 64);
        let root = hsf.root();
        let a = hsf.add_leaf(root, 10 * MBPS, None);
        hsf.bind_flow(1, a);
        hsf.bind_flow(2, a);
        hsf.set_flow_weight(1, 1);
        hsf.set_flow_weight(2, 3);
        let mut sim = LinkSim::new(hsf, 10 * MBPS);
        sim.run_backlogged(&[(1, 1000), (2, 1000)], 2_000_000_000);
        let ratio = sim.stats(2).bytes as f64 / sim.stats(1).bytes as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn unmapped_flow_needs_default() {
        let mut hsf = HsfScheduler::new(MBPS, 1500, 8);
        let root = hsf.root();
        let leaf = hsf.add_leaf(root, MBPS, None);
        let pkt = SchedPacket {
            flow: 99,
            len: 100,
            arrival_ns: 0,
            cookie: 1,
        };
        assert!(!hsf.enqueue(pkt, 0));
        hsf.set_default_leaf(leaf);
        assert!(hsf.enqueue(pkt, 0));
        assert_eq!(hsf.dequeue(0).unwrap().cookie, 1);
        assert_eq!(hsf.backlog(), 0);
    }

    #[test]
    fn inner_limit_enforced() {
        let mut hsf = HsfScheduler::new(MBPS, 1500, 2);
        let root = hsf.root();
        let leaf = hsf.add_leaf(root, MBPS, None);
        hsf.bind_flow(1, leaf);
        let pkt = |i| SchedPacket {
            flow: 1,
            len: 100,
            arrival_ns: i,
            cookie: i,
        };
        assert!(hsf.enqueue(pkt(0), 0));
        assert!(hsf.enqueue(pkt(1), 0));
        assert!(!hsf.enqueue(pkt(2), 0));
        assert_eq!(hsf.backlog(), 2);
    }
}
