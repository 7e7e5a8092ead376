//! Virtual Clock scheduling (Zhang, 1990; the paper's related-work space
//! also cites Leap Forward Virtual Clock \[28\]). Included as the
//! "third-party plugin" the paper predicts: "doubtless, additional
//! plugin types will be introduced by third parties once we have
//! released our code" — this one slots into the same `Scheduler`
//! interface and plugin wrapper as DRR/H-FSC without touching the
//! framework.
//!
//! Each flow has a configured rate; packet `k` of a flow is stamped
//! `VC = max(now, VC_prev) + len/rate` and packets transmit in stamp
//! order. Flows sending faster than their rate accumulate stamps in the
//! future and lose to conforming flows — rate policing by sorting.

use crate::link::{FlowId, SchedPacket, Scheduler};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

#[derive(Debug, Clone, Copy, PartialEq)]
struct Stamped {
    vc: f64,
    seq: u64,
    pkt: SchedPacket,
}

impl Eq for Stamped {}

impl Ord for Stamped {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.vc
            .partial_cmp(&other.vc)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Stamped {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-flow bookkeeping.
struct VcFlow {
    rate: f64,
    last_stamp: f64,
    queued: usize,
}

/// Virtual Clock scheduler.
pub struct VirtualClockScheduler {
    heap: BinaryHeap<Reverse<Stamped>>,
    flows: HashMap<FlowId, VcFlow>,
    default_rate: f64,
    /// Per-flow queue limit: a flow stamping far into the future must not
    /// starve other flows' buffer space (the usual VC deployment pairs the
    /// stamp discipline with per-flow accounting).
    per_flow_limit: usize,
    seq: u64,
    drops: u64,
}

impl VirtualClockScheduler {
    /// Scheduler with a default per-flow rate (bits/s) and a per-flow
    /// queue limit in packets.
    pub fn new(default_rate_bps: u64, per_flow_limit: usize) -> Self {
        assert!(default_rate_bps > 0);
        VirtualClockScheduler {
            heap: BinaryHeap::new(),
            flows: HashMap::new(),
            default_rate: default_rate_bps as f64 / 8.0,
            per_flow_limit,
            seq: 0,
            drops: 0,
        }
    }

    /// Configure a flow's rate (bits/s).
    pub fn set_rate(&mut self, flow: FlowId, rate_bps: u64) {
        assert!(rate_bps > 0);
        let default = self.default_rate;
        let e = self.flows.entry(flow).or_insert(VcFlow {
            rate: default,
            last_stamp: 0.0,
            queued: 0,
        });
        e.rate = rate_bps as f64 / 8.0;
    }

    /// Forget a flow (its classifier cache entry was evicted), so a
    /// recycled id starts at the default rate with a fresh virtual clock.
    /// Packets it still has queued stay counted against the id until
    /// they leave.
    pub fn release_flow(&mut self, flow: FlowId) {
        match self.flows.get_mut(&flow) {
            Some(f) if f.queued > 0 => {
                f.rate = self.default_rate;
                f.last_stamp = 0.0;
            }
            _ => {
                self.flows.remove(&flow);
            }
        }
    }

    /// Packets dropped at the limit.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

impl Scheduler for VirtualClockScheduler {
    fn enqueue(&mut self, pkt: SchedPacket, now_ns: u64) -> bool {
        let default = self.default_rate;
        let entry = self.flows.entry(pkt.flow).or_insert(VcFlow {
            rate: default,
            last_stamp: 0.0,
            queued: 0,
        });
        if entry.queued >= self.per_flow_limit {
            self.drops += 1;
            return false;
        }
        let now = now_ns as f64 / 1e9;
        let vc = entry.last_stamp.max(now) + f64::from(pkt.len) / entry.rate;
        entry.last_stamp = vc;
        entry.queued += 1;
        self.seq += 1;
        self.heap.push(Reverse(Stamped {
            vc,
            seq: self.seq,
            pkt,
        }));
        true
    }

    fn dequeue(&mut self, _now_ns: u64) -> Option<SchedPacket> {
        let Reverse(s) = self.heap.pop()?;
        if let Some(f) = self.flows.get_mut(&s.pkt.flow) {
            f.queued -= 1;
        }
        Some(s.pkt)
    }

    fn backlog(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSim;

    const MBPS: u64 = 1_000_000;

    #[test]
    fn stamps_order_transmissions() {
        let mut vc = VirtualClockScheduler::new(8 * MBPS, 64); // 1 MB/s
        vc.set_rate(1, 8 * MBPS);
        vc.set_rate(2, 2 * 8 * MBPS); // flow 2 at twice the rate
                                      // Same arrival time: flow 2's stamps advance half as fast, so in
                                      // 4 packets each, flow 2 gets service earlier on average.
        for _ in 0..4 {
            vc.enqueue(
                SchedPacket {
                    flow: 1,
                    len: 1000,
                    arrival_ns: 0,
                    cookie: 1,
                },
                0,
            );
            vc.enqueue(
                SchedPacket {
                    flow: 2,
                    len: 1000,
                    arrival_ns: 0,
                    cookie: 2,
                },
                0,
            );
        }
        let order: Vec<u32> = std::iter::from_fn(|| vc.dequeue(0).map(|p| p.flow)).collect();
        // First two: one of each (stamps 1ms vs 0.5ms → flow 2 first).
        assert_eq!(order[0], 2);
        // Flow 2's four packets all leave within the first six slots.
        let pos_last_f2 = order.iter().rposition(|f| *f == 2).unwrap();
        assert!(pos_last_f2 <= 5, "order = {order:?}");
    }

    #[test]
    fn rates_divide_bandwidth() {
        let mut vc = VirtualClockScheduler::new(MBPS, 1024);
        vc.set_rate(1, 2 * MBPS);
        vc.set_rate(2, 6 * MBPS);
        let mut sim = LinkSim::new(vc, 8 * MBPS);
        sim.run_backlogged(&[(1, 1000), (2, 1000)], 2_000_000_000);
        let ratio = sim.stats(2).bytes as f64 / sim.stats(1).bytes as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn tie_break_is_fifo() {
        let mut vc = VirtualClockScheduler::new(8 * MBPS, 16);
        for i in 0..3u64 {
            vc.enqueue(
                SchedPacket {
                    flow: i as u32 + 10,
                    len: 1000,
                    arrival_ns: 0,
                    cookie: i,
                },
                0,
            );
        }
        // Same rate, same length, same arrival → identical stamps →
        // FIFO by sequence.
        let cookies: Vec<u64> = std::iter::from_fn(|| vc.dequeue(0).map(|p| p.cookie)).collect();
        assert_eq!(cookies, vec![0, 1, 2]);
    }

    #[test]
    fn limit_and_drops() {
        // Per-flow limit of 2.
        let mut vc = VirtualClockScheduler::new(MBPS, 2);
        let pkt = |c| SchedPacket {
            flow: 1,
            len: 100,
            arrival_ns: 0,
            cookie: c,
        };
        assert!(vc.enqueue(pkt(1), 0));
        assert!(vc.enqueue(pkt(2), 0));
        assert!(!vc.enqueue(pkt(3), 0));
        assert_eq!(vc.drops(), 1);
        assert_eq!(vc.backlog(), 2);
    }
}
