//! In-memory loopback device pair, for deterministic tests.
//!
//! [`LoopbackDev::pair`] makes two cross-connected devices: what one
//! transmits the other receives, in order. Each direction is a bounded
//! queue plus a freelist of recycled buffers, so at steady state the
//! pair shuttles packets with **zero fresh allocations** — the same
//! closed-loop discipline as the router's own [`MbufPool`], which lets
//! the loopback ride under the `tests/fastpath_alloc.rs` gate.
//!
//! With [`LoopbackDev::pair_framed`] the wire carries Ethernet frames
//! (synthetic MACs): transmit attaches a header, receive strips it, and
//! undecodable frames injected via [`LoopbackHandle`] become device-rx
//! drops — the deterministic way to exercise the L2 error path.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::frame;
use crate::{NetDev, RxBatch};
use router_core::dataplane::control::DeviceStats;
use rp_packet::pool::MbufPool;
use rp_packet::Mbuf;

/// One direction of the wire: queued frames plus a buffer freelist.
#[derive(Debug)]
struct Wire {
    queue: VecDeque<Vec<u8>>,
    freelist: Vec<Vec<u8>>,
    capacity: usize,
}

impl Wire {
    fn new(capacity: usize) -> Wire {
        Wire {
            queue: VecDeque::with_capacity(capacity),
            freelist: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Queue the frame `fill` builds in place in a recycled buffer (the
    /// frame's one copy). False when the wire is full or `fill` refuses.
    fn push_with(&mut self, fill: impl FnOnce(&mut Vec<u8>) -> bool) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        let mut buf = self.freelist.pop().unwrap_or_default();
        if fill(&mut buf) {
            self.queue.push_back(buf);
            true
        } else {
            self.recycle(buf);
            false
        }
    }

    /// Queue a copy of `bytes`. False when full.
    fn push(&mut self, bytes: &[u8]) -> bool {
        self.push_with(|buf| {
            buf.extend_from_slice(bytes);
            true
        })
    }

    fn recycle(&mut self, mut buf: Vec<u8>) {
        if self.freelist.len() < self.capacity {
            buf.clear();
            self.freelist.push(buf);
        }
    }
}

type SharedWire = Arc<Mutex<Wire>>;

/// MAC address synthesised for loopback endpoint `a`.
pub const LOOPBACK_MAC_A: [u8; 6] = [0x02, 0, 0, 0, 0, 0x0a];
/// MAC address synthesised for loopback endpoint `b`.
pub const LOOPBACK_MAC_B: [u8; 6] = [0x02, 0, 0, 0, 0, 0x0b];

/// One endpoint of an in-memory wire (see module docs).
#[derive(Debug)]
pub struct LoopbackDev {
    name: String,
    rx: SharedWire,
    tx: SharedWire,
    framed: bool,
    mac_local: [u8; 6],
    mac_peer: [u8; 6],
    stats: DeviceStats,
}

impl LoopbackDev {
    /// Build a cross-connected pair carrying raw IP packets. `capacity`
    /// bounds each direction's in-flight queue.
    pub fn pair(name_a: &str, name_b: &str, capacity: usize) -> (LoopbackDev, LoopbackDev) {
        Self::build_pair(name_a, name_b, capacity, false)
    }

    /// Build a cross-connected pair carrying Ethernet frames.
    pub fn pair_framed(name_a: &str, name_b: &str, capacity: usize) -> (LoopbackDev, LoopbackDev) {
        Self::build_pair(name_a, name_b, capacity, true)
    }

    fn build_pair(
        name_a: &str,
        name_b: &str,
        capacity: usize,
        framed: bool,
    ) -> (LoopbackDev, LoopbackDev) {
        let a_to_b: SharedWire = Arc::new(Mutex::new(Wire::new(capacity)));
        let b_to_a: SharedWire = Arc::new(Mutex::new(Wire::new(capacity)));
        let a = LoopbackDev {
            name: name_a.to_string(),
            rx: Arc::clone(&b_to_a),
            tx: Arc::clone(&a_to_b),
            framed,
            mac_local: LOOPBACK_MAC_A,
            mac_peer: LOOPBACK_MAC_B,
            stats: DeviceStats::default(),
        };
        let b = LoopbackDev {
            name: name_b.to_string(),
            rx: a_to_b,
            tx: b_to_a,
            framed,
            mac_local: LOOPBACK_MAC_B,
            mac_peer: LOOPBACK_MAC_A,
            stats: DeviceStats::default(),
        };
        (a, b)
    }

    /// A raw handle onto this device's wires, letting tests inject
    /// arbitrary frames into the receive side and drain the transmit
    /// side without a peer device.
    pub fn handle(&self) -> LoopbackHandle {
        LoopbackHandle {
            rx: Arc::clone(&self.rx),
            tx: Arc::clone(&self.tx),
        }
    }
}

/// Test-side access to a [`LoopbackDev`]'s wires.
#[derive(Debug, Clone)]
pub struct LoopbackHandle {
    rx: SharedWire,
    tx: SharedWire,
}

impl LoopbackHandle {
    /// Inject raw wire bytes into the device's receive queue. Returns
    /// `false` when the queue is full.
    pub fn inject(&self, bytes: &[u8]) -> bool {
        self.rx.lock().unwrap().push(bytes)
    }

    /// Pop one transmitted wire frame, if any.
    pub fn drain_tx(&self) -> Option<Vec<u8>> {
        self.tx.lock().unwrap().queue.pop_front()
    }

    /// Frames currently queued toward the device.
    pub fn rx_pending(&self) -> usize {
        self.rx.lock().unwrap().queue.len()
    }
}

impl NetDev for LoopbackDev {
    fn name(&self) -> &str {
        &self.name
    }

    fn rx_batch(&mut self, max: usize, sink: &mut dyn FnMut(&[u8])) -> RxBatch {
        let mut batch = RxBatch::default();
        let mut wire = self.rx.lock().unwrap();
        while (batch.frames as usize) < max {
            let Some(buf) = wire.queue.pop_front() else {
                break;
            };
            batch.frames += 1;
            self.stats.rx_packets += 1;
            self.stats.rx_bytes += buf.len() as u64;
            if self.framed {
                match frame::strip_ethernet(&buf) {
                    Ok(p) => {
                        sink(p);
                        batch.delivered += 1;
                    }
                    Err(_) => {
                        batch.dropped += 1;
                        self.stats.rx_dropped += 1;
                    }
                }
            } else {
                sink(&buf);
                batch.delivered += 1;
            }
            wire.recycle(buf);
        }
        self.stats.rx_batch.observe(batch.frames);
        batch
    }

    fn tx_batch(&mut self, pkts: &mut Vec<Mbuf>, pool: &mut MbufPool) -> u64 {
        let mut written = 0;
        let mut wire = self.tx.lock().unwrap();
        let (dst, src) = (&self.mac_peer, &self.mac_local);
        for m in pkts.drain(..) {
            let ok = if self.framed {
                wire.push_with(|buf| frame::attach_ethernet(buf, dst, src, m.data()))
            } else {
                wire.push(m.data())
            };
            if ok {
                self.stats.tx_packets += 1;
                self.stats.tx_bytes += m.len() as u64;
                written += 1;
            } else {
                self.stats.tx_errors += 1;
            }
            pool.recycle(m);
        }
        self.stats.tx_batch.observe(written);
        written
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn tx_errors(&self) -> u64 {
        self.stats.tx_errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_pair_carries_packets_in_order() {
        let (mut a, mut b) = LoopbackDev::pair("a", "b", 8);
        let mut pool = MbufPool::new(8);
        let mut batch = vec![pool.mbuf_from(&[0x45, 1], 0), pool.mbuf_from(&[0x45, 2], 0)];
        assert_eq!(a.tx_batch(&mut batch, &mut pool), 2);
        let mut seen = Vec::new();
        let r = b.rx_batch(16, &mut |p| seen.push(p.to_vec()));
        assert_eq!((r.frames, r.delivered, r.dropped), (2, 2, 0));
        assert_eq!(seen, vec![vec![0x45, 1], vec![0x45, 2]]);
    }

    #[test]
    fn framed_pair_strips_and_drops_garbage() {
        let (mut a, mut b) = LoopbackDev::pair_framed("a", "b", 8);
        let mut pool = MbufPool::new(8);
        let mut batch = vec![pool.mbuf_from(&[0x60, 9], 0)];
        assert_eq!(a.tx_batch(&mut batch, &mut pool), 1);
        b.handle().inject(&[0xde, 0xad]); // truncated frame
        let mut seen = Vec::new();
        let r = b.rx_batch(16, &mut |p| seen.push(p.to_vec()));
        assert_eq!((r.frames, r.delivered, r.dropped), (2, 1, 1));
        assert_eq!(seen, vec![vec![0x60, 9]]);
        assert_eq!(b.stats().rx_dropped, 1);
    }

    #[test]
    fn full_queue_counts_tx_errors() {
        let (mut a, _b) = LoopbackDev::pair("a", "b", 1);
        let mut pool = MbufPool::new(8);
        let mut batch = vec![pool.mbuf_from(&[0x45, 1], 0), pool.mbuf_from(&[0x45, 2], 0)];
        assert_eq!(a.tx_batch(&mut batch, &mut pool), 1);
        assert_eq!(a.stats().tx_errors, 1);
        assert!(batch.is_empty());
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn steady_state_wire_reuses_buffers() {
        let (mut a, mut b) = LoopbackDev::pair("a", "b", 8);
        let mut pool = MbufPool::new(8);
        // Warm up one full cycle so the freelists are primed.
        for _ in 0..3 {
            let mut batch = vec![pool.mbuf_from(&[0x45, 0, 1, 2], 0)];
            a.tx_batch(&mut batch, &mut pool);
            b.rx_batch(16, &mut |_p| {});
        }
        let fresh_before = pool.stats().fresh;
        for _ in 0..100 {
            let mut batch = vec![pool.mbuf_from(&[0x45, 0, 1, 2], 0)];
            a.tx_batch(&mut batch, &mut pool);
            b.rx_batch(16, &mut |_p| {});
        }
        assert_eq!(pool.stats().fresh, fresh_before);
    }
}
