//! The scheduler interface and a discrete-event output-link simulator.
//!
//! A [`Scheduler`] decides which queued packet leaves next on an output
//! interface. [`LinkSim`] drains a scheduler at a configured line rate on a
//! virtual clock and records per-flow service, which is how the
//! link-sharing experiments measure bandwidth shares without real NICs.

use std::collections::HashMap;

/// Flow (or leaf-class) identifier within a scheduler.
///
/// Ids must be dense indices, as the flow table's FIX is:
/// [`DrrScheduler`](crate::DrrScheduler) indexes its per-flow state by
/// id, so its memory grows with the highest id it has seen.
pub type FlowId = u32;

/// A packet as seen by a scheduler: its wire length and the flow it was
/// classified into. The actual bytes travel alongside in the router; the
/// scheduling decision needs only this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedPacket {
    /// Flow/class id assigned by the classifier.
    pub flow: FlowId,
    /// Length in bytes (what the link drains).
    pub len: u32,
    /// Arrival time in virtual nanoseconds (used by H-FSC deadlines).
    pub arrival_ns: u64,
    /// Opaque cookie for the owner (e.g. an index into a packet store).
    pub cookie: u64,
}

/// A work-conserving packet scheduler for one output link.
pub trait Scheduler {
    /// Offer a packet to the scheduler. Returns `false` (and drops) when
    /// the scheduler refuses it (queue limits, unknown flow policy, RED).
    fn enqueue(&mut self, pkt: SchedPacket, now_ns: u64) -> bool;

    /// Pick the next packet to transmit at virtual time `now_ns`.
    fn dequeue(&mut self, now_ns: u64) -> Option<SchedPacket>;

    /// Total queued packets.
    fn backlog(&self) -> usize;

    /// True when nothing is queued.
    fn is_empty(&self) -> bool {
        self.backlog() == 0
    }
}

/// Per-flow service statistics collected by the link simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowStats {
    /// Bytes transmitted.
    pub bytes: u64,
    /// Packets transmitted.
    pub packets: u64,
    /// Sum of per-packet queueing delays (ns), for mean-delay reporting.
    pub total_delay_ns: u64,
    /// Maximum queueing delay seen (ns).
    pub max_delay_ns: u64,
}

impl FlowStats {
    /// Mean queueing delay in nanoseconds.
    pub fn mean_delay_ns(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_delay_ns as f64 / self.packets as f64
        }
    }
}

/// Discrete-event simulation of one output link draining a scheduler.
pub struct LinkSim<S: Scheduler> {
    /// The scheduler under test.
    pub scheduler: S,
    rate_bps: u64,
    now_ns: u64,
    stats: HashMap<FlowId, FlowStats>,
    total_tx_bytes: u64,
}

impl<S: Scheduler> LinkSim<S> {
    /// A link of `rate_bps` bits per second.
    pub fn new(scheduler: S, rate_bps: u64) -> Self {
        assert!(rate_bps > 0);
        LinkSim {
            scheduler,
            rate_bps,
            now_ns: 0,
            stats: HashMap::new(),
            total_tx_bytes: 0,
        }
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Transmission time of `len` bytes at the link rate, in ns.
    pub fn tx_time_ns(&self, len: u32) -> u64 {
        (u64::from(len) * 8 * 1_000_000_000).div_ceil(self.rate_bps)
    }

    /// Offer a packet at the current virtual time.
    pub fn offer(&mut self, flow: FlowId, len: u32, cookie: u64) -> bool {
        let pkt = SchedPacket {
            flow,
            len,
            arrival_ns: self.now_ns,
            cookie,
        };
        self.scheduler.enqueue(pkt, self.now_ns)
    }

    /// Advance the clock without transmitting (e.g. while sources are
    /// idle).
    pub fn advance(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
    }

    /// Transmit one packet if any is queued; advances the clock by its
    /// transmission time. Returns the packet sent.
    pub fn transmit_one(&mut self) -> Option<SchedPacket> {
        let pkt = self.scheduler.dequeue(self.now_ns)?;
        let delay = self.now_ns.saturating_sub(pkt.arrival_ns);
        let tx = self.tx_time_ns(pkt.len);
        self.now_ns += tx;
        let s = self.stats.entry(pkt.flow).or_default();
        s.bytes += u64::from(pkt.len);
        s.packets += 1;
        s.total_delay_ns += delay;
        s.max_delay_ns = s.max_delay_ns.max(delay);
        self.total_tx_bytes += u64::from(pkt.len);
        Some(pkt)
    }

    /// Drain until the scheduler is empty.
    pub fn drain(&mut self) {
        while self.transmit_one().is_some() {}
    }

    /// Run a closed-loop experiment: `arrivals` yields `(flow, len)` pairs
    /// offered back-to-back whenever the corresponding flow's queue runs
    /// low, keeping every listed flow backlogged for `duration_ns`. This
    /// models the "all sources greedy" setup of fair-queueing evaluations.
    pub fn run_backlogged(&mut self, flows: &[(FlowId, u32)], duration_ns: u64) {
        let end = self.now_ns + duration_ns;
        // Prime each flow with a few packets.
        for &(f, len) in flows {
            for _ in 0..4 {
                self.offer(f, len, 0);
            }
        }
        let mut next_refill = vec![0u64; flows.len()];
        while self.now_ns < end {
            // Keep sources backlogged.
            for (i, &(f, len)) in flows.iter().enumerate() {
                if self.now_ns >= next_refill[i] {
                    self.offer(f, len, 0);
                    self.offer(f, len, 0);
                    next_refill[i] = self.now_ns + self.tx_time_ns(len) / 2;
                }
            }
            if self.transmit_one().is_none() {
                self.advance(1000);
            }
        }
    }

    /// Per-flow statistics.
    pub fn stats(&self, flow: FlowId) -> FlowStats {
        self.stats.get(&flow).copied().unwrap_or_default()
    }

    /// All flows with statistics.
    pub fn flows(&self) -> Vec<FlowId> {
        let mut v: Vec<FlowId> = self.stats.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Total bytes transmitted.
    pub fn total_tx_bytes(&self) -> u64 {
        self.total_tx_bytes
    }

    /// Jain's fairness index over the byte counts of the given flows,
    /// optionally weighted (`shares[i]` = configured share of flow i).
    /// 1.0 = perfectly (weighted-)fair.
    pub fn jain_index(&self, flows: &[FlowId], shares: Option<&[f64]>) -> f64 {
        let xs: Vec<f64> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let b = self.stats(*f).bytes as f64;
                match shares {
                    Some(s) => b / s[i],
                    None => b,
                }
            })
            .collect();
        let n = xs.len() as f64;
        let sum: f64 = xs.iter().sum();
        let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
        if sum_sq == 0.0 {
            return 0.0;
        }
        (sum * sum) / (n * sum_sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::FifoScheduler;

    #[test]
    fn tx_time_math() {
        let sim = LinkSim::new(FifoScheduler::new(1000), 8_000_000); // 8 Mb/s
                                                                     // 1000 bytes = 8000 bits at 8 Mb/s = 1 ms.
        assert_eq!(sim.tx_time_ns(1000), 1_000_000);
    }

    #[test]
    fn fifo_drain_counts() {
        let mut sim = LinkSim::new(FifoScheduler::new(100), 1_000_000_000);
        sim.offer(1, 500, 0);
        sim.offer(2, 500, 0);
        sim.offer(1, 500, 0);
        sim.drain();
        assert_eq!(sim.stats(1).packets, 2);
        assert_eq!(sim.stats(2).packets, 1);
        assert_eq!(sim.total_tx_bytes(), 1500);
        assert_eq!(sim.flows(), vec![1, 2]);
    }

    #[test]
    fn jain_index_perfect_and_skewed() {
        let mut sim = LinkSim::new(FifoScheduler::new(100), 1_000_000_000);
        for _ in 0..10 {
            sim.offer(1, 100, 0);
            sim.offer(2, 100, 0);
        }
        sim.drain();
        let j = sim.jain_index(&[1, 2], None);
        assert!((j - 1.0).abs() < 1e-9);
        // Weighted view with unequal shares is no longer perfectly fair.
        let jw = sim.jain_index(&[1, 2], Some(&[1.0, 3.0]));
        assert!(jw < 1.0);
    }

    #[test]
    fn delay_accounting() {
        let mut sim = LinkSim::new(FifoScheduler::new(100), 8_000_000);
        sim.offer(1, 1000, 0); // tx = 1 ms
        sim.offer(1, 1000, 0); // waits 1 ms behind the first
        sim.drain();
        let s = sim.stats(1);
        assert_eq!(s.max_delay_ns, 1_000_000);
        assert_eq!(s.total_delay_ns, 1_000_000);
    }
}
