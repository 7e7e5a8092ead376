//! Weighted Deficit Round Robin (Shreedhar & Varghese, SIGCOMM '95), as
//! extended by the paper's DRR plugin (§6.1): one queue **per flow** (the
//! AIU's flow table already does the classification, so the plugin can
//! afford per-flow state instead of ALTQ's fixed queue array), with
//! per-queue *weights* so reserved flows can be given larger shares.
//!
//! Each active flow holds a deficit counter; a round visits active flows
//! in order, adds `weight × quantum` to the deficit, and transmits packets
//! while the deficit covers them. O(1) per packet as long as the quantum
//! is at least the maximum packet size (the classic DRR requirement).

use crate::link::{FlowId, SchedPacket, Scheduler};
use std::collections::VecDeque;

struct FlowQueue {
    queue: VecDeque<SchedPacket>,
    deficit: u64,
    weight: u32,
    active: bool,
    /// Quantum already credited for the current round visit.
    visited: bool,
}

// The per-id cost of the slab, which `DrrScheduler::new` documents.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<FlowQueue>() <= 48);

impl FlowQueue {
    /// An idle flow: empty queue, zero deficit, not in the round.
    fn new(weight: u32) -> Self {
        FlowQueue {
            queue: VecDeque::new(),
            deficit: 0,
            weight,
            active: false,
            visited: false,
        }
    }
}

/// Weighted DRR over per-flow queues.
pub struct DrrScheduler {
    /// Per-flow state indexed by flow id (the flow table's FIX): a slab
    /// that grows to `id + 1` the first time an id is seen.
    flows: Vec<FlowQueue>,
    /// Round-robin list of active flows.
    active: VecDeque<FlowId>,
    quantum: u32,
    per_flow_limit: usize,
    default_weight: u32,
    backlog: usize,
    drops: u64,
}

/// The slot of `flow`, growing the slab the first time the id is seen.
fn slot(flows: &mut Vec<FlowQueue>, flow: FlowId, default_weight: u32) -> &mut FlowQueue {
    let i = flow as usize;
    if i >= flows.len() {
        grow(flows, i + 1, default_weight);
    }
    &mut flows[i]
}

#[cold]
fn grow(flows: &mut Vec<FlowQueue>, len: usize, default_weight: u32) {
    flows.resize_with(len, || FlowQueue::new(default_weight));
}

impl DrrScheduler {
    /// DRR with the given quantum (bytes credited per weight unit per
    /// round; should be ≥ the MTU) and per-flow queue limit in packets.
    ///
    /// Flow ids must be dense indices, as the flow table's FIX is: the
    /// per-flow state is a slab indexed by id, so it holds (highest id
    /// + 1) × 48 B — ≤ 3.1 MB at the default 65 536-record flow table.
    pub fn new(quantum: u32, per_flow_limit: usize) -> Self {
        assert!(quantum > 0);
        DrrScheduler {
            flows: Vec::new(),
            active: VecDeque::new(),
            quantum,
            per_flow_limit,
            default_weight: 1,
            backlog: 0,
            drops: 0,
        }
    }

    /// Set the weight for a flow (reserved flows get weights > 1, §6.1:
    /// "weights … dynamically recalculated for reserved flows"). Takes
    /// effect from the flow's next round.
    pub fn set_weight(&mut self, flow: FlowId, weight: u32) {
        assert!(weight > 0);
        slot(&mut self.flows, flow, self.default_weight).weight = weight;
    }

    /// Current weight of a flow.
    pub fn weight(&self, flow: FlowId) -> u32 {
        self.flows
            .get(flow as usize)
            .map_or(self.default_weight, |f| f.weight)
    }

    /// Packets dropped due to per-flow queue limits.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Remove a flow entirely (its classifier cache entry was evicted),
    /// returning any packets still queued so the caller can release them.
    /// The slot is reset in place, so a recycled id starts idle at the
    /// default weight.
    pub fn purge_flow(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        let Some(entry) = self.flows.get_mut(flow as usize) else {
            return Vec::new();
        };
        let fq = std::mem::replace(entry, FlowQueue::new(self.default_weight));
        if fq.active {
            self.active.retain(|f| *f != flow);
        }
        self.backlog -= fq.queue.len();
        fq.queue.into_iter().collect()
    }

    /// Number of flows with queued packets.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }
}

impl Scheduler for DrrScheduler {
    fn enqueue(&mut self, pkt: SchedPacket, _now_ns: u64) -> bool {
        let entry = slot(&mut self.flows, pkt.flow, self.default_weight);
        if entry.queue.len() >= self.per_flow_limit {
            self.drops += 1;
            return false;
        }
        entry.queue.push_back(pkt);
        self.backlog += 1;
        if !entry.active {
            entry.active = true;
            entry.deficit = 0;
            entry.visited = false;
            self.active.push_back(pkt.flow);
        }
        true
    }

    fn dequeue(&mut self, _now_ns: u64) -> Option<SchedPacket> {
        // Visit active flows round-robin. Each flow is credited its
        // quantum exactly once per visit (Shreedhar & Varghese); it then
        // transmits packets while the deficit lasts and rotates to the
        // tail when the head no longer fits. The loop terminates: every
        // full round credits the front flow ≥ quantum ≥ 1, so its head
        // packet eventually fits.
        loop {
            let flow = *self.active.front()?;
            let fq = &mut self.flows[flow as usize];
            if fq.queue.is_empty() {
                // Became empty after its last service: deactivate.
                fq.active = false;
                fq.deficit = 0;
                fq.visited = false;
                self.active.pop_front();
                continue;
            }
            if !fq.visited {
                fq.deficit += u64::from(self.quantum) * u64::from(fq.weight);
                fq.visited = true;
            }
            let head_len = u64::from(fq.queue.front().unwrap().len);
            if fq.deficit >= head_len {
                fq.deficit -= head_len;
                let pkt = fq.queue.pop_front().unwrap();
                self.backlog -= 1;
                if fq.queue.is_empty() {
                    // Deactivate; deficit resets (classic DRR: an emptied
                    // flow forfeits leftover deficit).
                    fq.active = false;
                    fq.deficit = 0;
                    fq.visited = false;
                    self.active.pop_front();
                }
                return Some(pkt);
            }
            // Head no longer fits in the remaining deficit: end of this
            // flow's turn; it keeps the residue for its next visit.
            fq.visited = false;
            self.active.rotate_left(1);
        }
    }

    fn backlog(&self) -> usize {
        self.backlog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSim;

    #[test]
    fn equal_weights_equal_service() {
        let mut sim = LinkSim::new(DrrScheduler::new(1500, 64), 10_000_000);
        sim.run_backlogged(&[(1, 1000), (2, 1000), (3, 1000)], 1_000_000_000);
        let totals: Vec<u64> = [1, 2, 3].iter().map(|f| sim.stats(*f).bytes).collect();
        let j = sim.jain_index(&[1, 2, 3], None);
        assert!(j > 0.999, "jain = {j}, totals = {totals:?}");
    }

    #[test]
    fn unequal_packet_sizes_still_fair_in_bytes() {
        // DRR's claim to fame over round-robin: fairness in *bytes* even
        // with different packet sizes.
        let mut sim = LinkSim::new(DrrScheduler::new(1500, 64), 10_000_000);
        sim.run_backlogged(&[(1, 1500), (2, 300)], 1_000_000_000);
        let b1 = sim.stats(1).bytes as f64;
        let b2 = sim.stats(2).bytes as f64;
        assert!((b1 / b2 - 1.0).abs() < 0.05, "b1={b1} b2={b2}");
    }

    #[test]
    fn weights_divide_bandwidth() {
        let mut drr = DrrScheduler::new(1500, 64);
        drr.set_weight(1, 1);
        drr.set_weight(2, 3);
        let mut sim = LinkSim::new(drr, 10_000_000);
        sim.run_backlogged(&[(1, 1000), (2, 1000)], 2_000_000_000);
        let b1 = sim.stats(1).bytes as f64;
        let b2 = sim.stats(2).bytes as f64;
        assert!((b2 / b1 - 3.0).abs() < 0.1, "ratio = {}", b2 / b1);
        // Weighted fairness index ≈ 1.
        let jw = sim.jain_index(&[1, 2], Some(&[1.0, 3.0]));
        assert!(jw > 0.999, "jw = {jw}");
    }

    #[test]
    fn idle_flow_restarts_clean() {
        // A flow that drains completely deactivates and re-registers
        // cleanly on its next packet (deficit forfeited, §SIGCOMM'95).
        let mut drr = DrrScheduler::new(1500, 64);
        for _ in 0..5 {
            drr.enqueue(
                SchedPacket {
                    flow: 1,
                    len: 1000,
                    arrival_ns: 0,
                    cookie: 0,
                },
                0,
            );
        }
        while drr.dequeue(0).is_some() {}
        assert_eq!(drr.active_flows(), 0);
        drr.enqueue(
            SchedPacket {
                flow: 1,
                len: 1000,
                arrival_ns: 0,
                cookie: 0,
            },
            0,
        );
        assert_eq!(drr.active_flows(), 1);
        assert_eq!(drr.dequeue(0).unwrap().flow, 1);
        assert!(drr.dequeue(0).is_none());
    }

    #[test]
    fn per_flow_limit_drops() {
        let mut drr = DrrScheduler::new(1500, 2);
        for i in 0..3 {
            let ok = drr.enqueue(
                SchedPacket {
                    flow: 7,
                    len: 100,
                    arrival_ns: i,
                    cookie: 0,
                },
                i,
            );
            assert_eq!(ok, i < 2);
        }
        assert_eq!(drr.drops(), 1);
        assert_eq!(drr.backlog(), 2);
        // Other flows unaffected by flow 7's limit.
        assert!(drr.enqueue(
            SchedPacket {
                flow: 8,
                len: 100,
                arrival_ns: 0,
                cookie: 0
            },
            0
        ));
    }

    #[test]
    fn oversized_packet_eventually_served() {
        // Packet bigger than quantum: needs several rounds of credit.
        let mut drr = DrrScheduler::new(500, 8);
        drr.enqueue(
            SchedPacket {
                flow: 1,
                len: 1400,
                arrival_ns: 0,
                cookie: 0,
            },
            0,
        );
        drr.enqueue(
            SchedPacket {
                flow: 2,
                len: 100,
                arrival_ns: 0,
                cookie: 0,
            },
            0,
        );
        let seq: Vec<u32> = std::iter::from_fn(|| drr.dequeue(0).map(|p| p.flow)).collect();
        assert_eq!(seq.len(), 2);
        assert!(seq.contains(&1) && seq.contains(&2));
    }

    #[test]
    fn purged_slot_comes_back_idle() {
        // The flow table hands a recycled FIX to the next flow, which
        // must not inherit the old flow's weight, deficit or queue.
        let mut drr = DrrScheduler::new(1500, 8);
        drr.set_weight(3, 5);
        for cookie in 0..3 {
            let pkt = SchedPacket {
                flow: 3,
                len: 1000,
                arrival_ns: 0,
                cookie,
            };
            assert!(drr.enqueue(pkt, 0));
        }
        assert_eq!(drr.dequeue(0).unwrap().cookie, 0);
        assert_eq!(drr.flows[3].deficit, 5 * 1500 - 1000);
        let left: Vec<u64> = drr.purge_flow(3).iter().map(|p| p.cookie).collect();
        assert_eq!(left, [1, 2]);
        let fq = &drr.flows[3];
        assert!(fq.queue.is_empty() && !fq.active && !fq.visited);
        assert_eq!((fq.weight, fq.deficit), (1, 0));
        assert_eq!(drr.weight(3), 1);
        assert_eq!((drr.backlog(), drr.active_flows()), (0, 0));
        assert!(drr.purge_flow(1_000).is_empty(), "an id never seen");
        assert_eq!(drr.flows.len(), 4, "purging never grows the slab");
    }

    #[test]
    fn many_flows_all_served() {
        let mut drr = DrrScheduler::new(1500, 16);
        for f in 0..100u32 {
            for _ in 0..3 {
                drr.enqueue(
                    SchedPacket {
                        flow: f,
                        len: 200 + f * 10,
                        arrival_ns: 0,
                        cookie: 0,
                    },
                    0,
                );
            }
        }
        let mut count = 0;
        while drr.dequeue(0).is_some() {
            count += 1;
        }
        assert_eq!(count, 300);
        assert_eq!(drr.backlog(), 0);
        assert_eq!(drr.active_flows(), 0);
    }
}
