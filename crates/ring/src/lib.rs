//! # rp-ring — lock-free SPSC ring buffers for shard dispatch
//!
//! The parallel data plane's ingress path was built on a vendored
//! channel stand-in that pays a lock (and, on the receive side, a mutex
//! acquisition per message) for every hop. This crate replaces it with
//! the queue the DPDK/R2 lineage of packet routers uses between pipeline
//! stages: a bounded single-producer/single-consumer ring of
//! power-of-two capacity with free-running cursors, where a push is a
//! slot write plus one release-store and a pop is one acquire-load plus
//! a slot read.
//!
//! Design points:
//!
//! * **Cache-line-padded cursors.** The producer cursor (`tail`) and the
//!   consumer cursor (`head`) live on their own 64-byte lines
//!   (`CachePadded`), so the two sides never false-share: each side
//!   writes only its own line and reads the other's at a cadence
//!   governed by cursor caching (below).
//! * **Cursor caching.** The producer keeps a local copy of the last
//!   `head` it observed and only re-loads the shared cursor when the
//!   ring *appears* full; the consumer mirrors that with `tail`. At
//!   steady state each side touches the other's line once per wrap, not
//!   once per item.
//! * **Batched publication.** [`Producer::stage`] writes slots without
//!   publishing; one [`Producer::publish`] makes the whole run visible
//!   with a single release-store. [`Consumer::pop_batch`] consumes a run
//!   with one acquire-load of `tail` up front and one release-store of
//!   `head` at the end — one cursor write per *batch*, not per packet.
//! * **Doorbell parking.** The consumer side is designed for busy-poll
//!   with adaptive fallback: spin briefly, yield a few times, then park
//!   on a condvar doorbell ([`Consumer::wait_nonempty`]). The producer
//!   rings the doorbell only when the parked flag is set, so at steady
//!   state a push performs **no** syscall and no lock — the wake cost
//!   exists only at the idle edge. The flag handshake is the classic
//!   Dekker store/fence/load pattern (see [`Doorbell`]), so a wakeup can
//!   never be lost.
//!
//! # Memory-ordering argument
//!
//! Correctness rests on two release/acquire edges:
//!
//! 1. The producer initializes slot `i` and then stores `tail = i + 1`
//!    with `Release`. The consumer loads `tail` with `Acquire` before
//!    reading slot `i`, so the slot write *happens-before* the slot
//!    read.
//! 2. The consumer moves the value out of slot `i` and then stores
//!    `head = i + 1` with `Release`. The producer loads `head` with
//!    `Acquire` before re-using slot `i` (it only writes slots in
//!    `[tail, head + capacity)`), so the read happens-before the
//!    overwrite.
//!
//! Cursors are free-running `u64`s (never masked until indexing), so
//! full (`tail - head == capacity`) and empty (`tail == head`) are
//! unambiguous without a separate count, and wrap-around of the index
//! mask is invisible to the protocol. Each cursor has exactly one
//! writer, so no read-modify-write atomics are needed anywhere on the
//! data path.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Pads and aligns a value to 64 bytes so two [`CachePadded`] fields
/// never share a cache line (the producer and consumer cursors must not
/// false-share).
#[repr(align(64))]
struct CachePadded<T>(T);

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value comes back to the caller.
    Full(T),
    /// The consumer is gone; the value comes back to the caller.
    Disconnected(T),
}

impl<T> PushError<T> {
    /// The value that could not be pushed.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Disconnected(v) => v,
        }
    }
}

/// Why a pop returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The ring is currently empty (producer still connected).
    Empty,
    /// The ring is empty and the producer is gone.
    Disconnected,
}

/// Outcome of a blocking wait for data ([`Consumer::wait_nonempty`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// At least one item is visible.
    Ready,
    /// The ring is empty and the producer is gone.
    Disconnected,
    /// The park timeout elapsed with no data (callers re-check their own
    /// shutdown conditions and wait again).
    TimedOut,
}

/// A parking doorbell between one waiter and the threads that make it
/// runnable: the ring's consumer parks on one and its producer rings it;
/// the data plane's dispatcher parks on another in `flush` and its shards
/// ring that. The ringer's fast path is one fence and one relaxed flag
/// load; the mutex is touched only around an actual park or an actual
/// wake.
///
/// Lost-wakeup freedom (Dekker handshake): the waiter stores
/// `parked = true`, issues a `SeqCst` fence, then re-checks its condition
/// before sleeping; the ringer publishes the condition (for the ring,
/// `tail`), issues a `SeqCst` fence, then loads `parked`. Whatever the
/// interleaving, either the waiter's re-check sees the publication, or
/// the ringer's load sees `parked == true` and rings. The flag is cleared
/// under the same mutex the sleeper holds, so a stale `true` costs at
/// most one spurious notify.
pub struct Doorbell {
    parked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Default for Doorbell {
    fn default() -> Doorbell {
        Doorbell {
            parked: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

impl Doorbell {
    /// Ringer side: wake the waiter if (and only if) it is parked. Call
    /// *after* publishing what the waiter's `ready` reads (the internal
    /// fence pairs with the waiter's in [`Doorbell::park`]). The flag is
    /// cleared here, under the lock, so a burst of rings landing while the
    /// woken waiter is still being scheduled costs one notify, not one per
    /// ring.
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) {
            self.notify();
        }
    }

    /// Wake the waiter whether or not its flag is visible yet (a closing
    /// producer's last word). Taking the lock orders the notify after the
    /// sleeper's re-check-then-wait, closing the remaining window.
    fn notify(&self) {
        let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        self.parked.store(false, Ordering::Relaxed);
        self.cv.notify_all();
    }

    /// Waiter side: sleep until rung or `timeout`, unless `ready` already
    /// holds once the parked flag is visible.
    pub fn park(&self, ready: impl Fn() -> bool, timeout: Duration) {
        let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        self.parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if ready() {
            self.parked.store(false, Ordering::Relaxed);
            return;
        }
        let (guard, _) = self
            .cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|p| p.into_inner());
        self.parked.store(false, Ordering::Relaxed);
        drop(guard);
    }
}

/// The storage both handles share.
struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: u64,
    /// Producer cursor: next slot to write. Written only by the producer.
    tail: CachePadded<AtomicU64>,
    /// Consumer cursor: next slot to read. Written only by the consumer.
    head: CachePadded<AtomicU64>,
    producer_alive: AtomicBool,
    consumer_alive: AtomicBool,
    doorbell: Doorbell,
}

// SAFETY: the SPSC protocol partitions slot access — the producer only
// writes slots in [tail, head+cap) and the consumer only reads slots in
// [head, tail), with release/acquire cursor edges ordering the handoff
// (see the module docs). T itself crosses threads, hence T: Send.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone, so the cursors are quiescent; drop
        // whatever was pushed but never popped.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = (i & self.mask) as usize;
            // SAFETY: slots in [head, tail) hold initialized values the
            // consumer never read; we have exclusive access in drop.
            unsafe { (*self.buf[slot].get()).assume_init_drop() };
        }
    }
}

/// Create a bounded SPSC ring holding at most `capacity` items
/// (rounded up to a power of two, minimum 1). The two halves are the
/// only handles; dropping either closes the ring.
pub fn spsc<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(1).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: (cap - 1) as u64,
        tail: CachePadded(AtomicU64::new(0)),
        head: CachePadded(AtomicU64::new(0)),
        producer_alive: AtomicBool::new(true),
        consumer_alive: AtomicBool::new(true),
        doorbell: Doorbell::default(),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            published: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

/// The producing half. `!Sync` by construction (one producer thread at a
/// time); move it or guard it externally to hand it around.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Local write cursor, including staged-but-unpublished slots.
    tail: u64,
    /// The value of `tail` last made visible to the consumer.
    published: u64,
    /// Last observed consumer cursor (refreshed only when full).
    head_cache: u64,
}

impl<T: Send> Producer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Items staged but not yet visible to the consumer.
    pub fn staged(&self) -> usize {
        (self.tail - self.published) as usize
    }

    /// Whether the consumer handle still exists.
    pub fn is_connected(&self) -> bool {
        self.shared.consumer_alive.load(Ordering::Acquire)
    }

    /// Write one item into the ring *without* publishing it. Returns
    /// `Full` when no free slot exists (counting already-staged items) —
    /// staged items are still unpublished then; call
    /// [`publish`](Producer::publish) to flush them before retrying.
    pub fn stage(&mut self, value: T) -> Result<(), PushError<T>> {
        if !self.is_connected() {
            return Err(PushError::Disconnected(value));
        }
        let cap = self.shared.buf.len() as u64;
        if self.tail - self.head_cache == cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail - self.head_cache == cap {
                return Err(PushError::Full(value));
            }
        }
        let slot = (self.tail & self.shared.mask) as usize;
        // SAFETY: `slot` is in the producer's exclusive window
        // [tail, head+cap): the fullness check above proved
        // tail - head < cap, and the consumer never reads past the
        // published cursor (which is ≤ tail).
        unsafe { (*self.shared.buf[slot].get()).write(value) };
        self.tail += 1;
        Ok(())
    }

    /// Make every staged item visible with one release-store, and ring
    /// the doorbell if the consumer is parked.
    pub fn publish(&mut self) {
        if self.tail != self.published {
            self.shared.tail.0.store(self.tail, Ordering::Release);
            self.published = self.tail;
            self.shared.doorbell.ring();
        }
    }

    /// Stage-and-publish one item (the drop-in replacement for a channel
    /// `try_send`).
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        self.stage(value)?;
        self.publish();
        Ok(())
    }

    /// Free slots right now, from the producer's (cached-cursor) view.
    pub fn free_slots(&mut self) -> usize {
        self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        (self.shared.buf.len() as u64 - (self.tail - self.head_cache)) as usize
    }

    /// Items currently in the ring (staged items included), from the
    /// producer's view: one acquire-load of the consumer cursor. This is
    /// the queue-depth signal load-aware dispatch reads — a point-in-time
    /// gauge, monotone-safe (`tail ≥ head` always), never an estimate
    /// below zero.
    pub fn occupancy(&mut self) -> usize {
        self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        (self.tail - self.head_cache) as usize
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        // Publish any staged tail so the consumer can drain everything
        // written, then close and wake it.
        if self.tail != self.published {
            self.shared.tail.0.store(self.tail, Ordering::Release);
        }
        self.shared.producer_alive.store(false, Ordering::Release);
        fence(Ordering::SeqCst);
        self.shared.doorbell.notify();
    }
}

/// The consuming half.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Local read cursor.
    head: u64,
    /// Last observed producer cursor (refreshed only when empty).
    tail_cache: u64,
}

/// On batch pops the consumer cursor is published through this guard, so
/// a panic inside the caller's closure still publishes the items already
/// moved out (no double-drop from `Shared::drop`).
struct HeadGuard<'a, T> {
    shared: &'a Shared<T>,
    head: &'a mut u64,
}

impl<T> Drop for HeadGuard<'_, T> {
    fn drop(&mut self) {
        self.shared.head.0.store(*self.head, Ordering::Release);
    }
}

impl<T: Send> Consumer<T> {
    /// Ring capacity in items.
    pub fn capacity(&self) -> usize {
        self.shared.buf.len()
    }

    /// Whether the producer handle still exists. Data may still be
    /// buffered after disconnection; pops drain it first.
    pub fn is_connected(&self) -> bool {
        self.shared.producer_alive.load(Ordering::Acquire)
    }

    /// Items visible right now, from the consumer's view: one
    /// acquire-load of the producer cursor. The consumer-side counterpart
    /// of [`Producer::occupancy`] (staged-but-unpublished items are not
    /// visible here until the producer publishes).
    pub fn occupancy(&mut self) -> usize {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        (self.tail_cache - self.head) as usize
    }

    /// Items visible right now (refreshes the cached producer cursor
    /// only when the cache says empty).
    fn available(&mut self) -> u64 {
        if self.tail_cache == self.head {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.tail_cache - self.head
    }

    /// Pop one item.
    pub fn try_pop(&mut self) -> Result<T, PopError> {
        if self.available() == 0 {
            // Order matters: check aliveness *then* re-check the cursor,
            // so a producer that pushes and exits is never misread as
            // empty-and-dead while its last items are still in the ring.
            if !self.is_connected() {
                self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
                if self.tail_cache == self.head {
                    return Err(PopError::Disconnected);
                }
            } else {
                return Err(PopError::Empty);
            }
        }
        let slot = (self.head & self.shared.mask) as usize;
        // SAFETY: head < tail (checked above), so this slot holds an
        // initialized value published by the producer; the acquire load
        // of `tail` ordered its initialization before this read.
        let value = unsafe { (*self.shared.buf[slot].get()).assume_init_read() };
        self.head += 1;
        self.shared.head.0.store(self.head, Ordering::Release);
        Ok(value)
    }

    /// Consume up to `max` items in one run: one acquire-load of the
    /// producer cursor up front, one release-store of the consumer
    /// cursor at the end (published even if `f` panics). Returns the
    /// number consumed.
    pub fn pop_batch(&mut self, max: usize, f: &mut dyn FnMut(T)) -> usize {
        let avail = self.available().min(max as u64);
        if avail == 0 {
            return 0;
        }
        let guard = HeadGuard {
            shared: &self.shared,
            head: &mut self.head,
        };
        for _ in 0..avail {
            let slot = (*guard.head & self.shared.mask) as usize;
            // SAFETY: as in `try_pop`; the guard keeps the published
            // cursor in sync with the slots actually moved out.
            let value = unsafe { (*self.shared.buf[slot].get()).assume_init_read() };
            *guard.head += 1;
            f(value);
        }
        drop(guard);
        avail as usize
    }

    /// Adaptive wait for data: spin `spins` times, yield `yields` times,
    /// then park on the doorbell for at most `park_timeout`. Designed
    /// for the shard loop: on a loaded multi-core host the spin phase
    /// catches back-to-back batches without a syscall; on an
    /// oversubscribed single-core host the yield phase hands the CPU
    /// straight to the producer instead of livelocking; a truly idle
    /// consumer parks, making the producer's doorbell check the only
    /// cost of waking it.
    pub fn wait_nonempty(
        &mut self,
        spins: u32,
        yields: u32,
        park_timeout: Duration,
    ) -> WaitOutcome {
        for _ in 0..spins {
            if self.available() > 0 {
                return WaitOutcome::Ready;
            }
            std::hint::spin_loop();
        }
        for _ in 0..yields {
            if self.available() > 0 {
                return WaitOutcome::Ready;
            }
            if !self.is_connected() {
                return self.drained_outcome();
            }
            std::thread::yield_now();
        }
        if self.available() > 0 {
            return WaitOutcome::Ready;
        }
        if !self.is_connected() {
            return self.drained_outcome();
        }
        let shared = &self.shared;
        let head = self.head;
        shared.doorbell.park(
            || {
                shared.tail.0.load(Ordering::Acquire) != head
                    || !shared.producer_alive.load(Ordering::Acquire)
            },
            park_timeout,
        );
        if self.available() > 0 {
            WaitOutcome::Ready
        } else if !self.is_connected() {
            self.drained_outcome()
        } else {
            WaitOutcome::TimedOut
        }
    }

    /// Producer is gone: `Ready` if parting items remain, else
    /// `Disconnected`.
    fn drained_outcome(&mut self) -> WaitOutcome {
        self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        if self.tail_cache != self.head {
            WaitOutcome::Ready
        } else {
            WaitOutcome::Disconnected
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        assert_eq!(rx.try_pop(), Err(PopError::Empty));
        tx.try_push(7).unwrap();
        tx.try_push(8).unwrap();
        assert_eq!(rx.try_pop(), Ok(7));
        assert_eq!(rx.try_pop(), Ok(8));
        assert_eq!(rx.try_pop(), Err(PopError::Empty));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(3);
        assert_eq!(tx.capacity(), 4);
        let (tx, _rx) = spsc::<u8>(0);
        assert_eq!(tx.capacity(), 1);
        let (tx, _rx) = spsc::<u8>(1024);
        assert_eq!(tx.capacity(), 1024);
    }

    #[test]
    fn full_boundary_at_capacity_one_and_two() {
        for cap in [1usize, 2] {
            let (mut tx, mut rx) = spsc::<usize>(cap);
            for i in 0..cap {
                tx.try_push(i).unwrap();
            }
            assert_eq!(tx.try_push(99), Err(PushError::Full(99)), "cap {cap}");
            assert_eq!(rx.try_pop(), Ok(0));
            // Space opens exactly one slot at a time.
            tx.try_push(99).unwrap();
            assert_eq!(tx.try_push(100), Err(PushError::Full(100)));
        }
    }

    #[test]
    fn wraparound_preserves_fifo() {
        let (mut tx, mut rx) = spsc::<u64>(4);
        // Push/pop far past several index wraps.
        for i in 0..1000u64 {
            tx.try_push(i).unwrap();
            if i % 2 == 1 {
                assert_eq!(rx.try_pop(), Ok(i - 1));
                assert_eq!(rx.try_pop(), Ok(i));
            }
        }
    }

    #[test]
    fn staged_items_invisible_until_publish() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        tx.stage(1).unwrap();
        tx.stage(2).unwrap();
        tx.stage(3).unwrap();
        assert_eq!(tx.staged(), 3);
        assert_eq!(rx.try_pop(), Err(PopError::Empty), "staged must be hidden");
        tx.publish();
        assert_eq!(tx.staged(), 0);
        assert_eq!(rx.try_pop(), Ok(1));
        assert_eq!(rx.try_pop(), Ok(2));
        assert_eq!(rx.try_pop(), Ok(3));
    }

    #[test]
    fn pop_batch_consumes_a_run_and_frees_space() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        for i in 0..4 {
            tx.try_push(i).unwrap();
        }
        assert_eq!(tx.try_push(9), Err(PushError::Full(9)));
        let mut got = Vec::new();
        assert_eq!(rx.pop_batch(16, &mut |v| got.push(v)), 4);
        assert_eq!(got, vec![0, 1, 2, 3]);
        // The single batched cursor publication freed all four slots.
        assert_eq!(tx.free_slots(), 4);
        assert_eq!(rx.pop_batch(16, &mut |_| {}), 0);
    }

    #[test]
    fn pop_batch_respects_max() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        for i in 0..6 {
            tx.try_push(i).unwrap();
        }
        let mut got = Vec::new();
        assert_eq!(rx.pop_batch(2, &mut |v| got.push(v)), 2);
        assert_eq!(rx.pop_batch(100, &mut |v| got.push(v)), 4);
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn producer_drop_publishes_staged_and_disconnects() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        tx.try_push(1).unwrap();
        tx.stage(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(1));
        assert_eq!(rx.try_pop(), Ok(2), "staged item published by drop");
        assert_eq!(rx.try_pop(), Err(PopError::Disconnected));
        assert_eq!(
            rx.wait_nonempty(4, 1, Duration::from_millis(1)),
            WaitOutcome::Disconnected
        );
    }

    #[test]
    fn consumer_drop_disconnects_producer() {
        let (mut tx, rx) = spsc::<u32>(8);
        tx.try_push(1).unwrap();
        drop(rx);
        assert_eq!(tx.try_push(2), Err(PushError::Disconnected(2)));
        assert!(!tx.is_connected());
    }

    #[test]
    fn dropping_ring_with_items_drops_them() {
        let arc = Arc::new(());
        {
            let (mut tx, rx) = spsc::<Arc<()>>(8);
            for _ in 0..5 {
                tx.try_push(Arc::clone(&arc)).unwrap();
            }
            let mut first = None;
            rx_take(&rx, &mut first); // no-op helper keeps rx alive here
            drop(tx);
            drop(rx);
        }
        assert_eq!(Arc::strong_count(&arc), 1, "in-flight items leaked");
    }

    fn rx_take<T>(_rx: &Consumer<T>, _out: &mut Option<T>) {}

    #[test]
    fn occupancy_tracks_both_ends() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        assert_eq!(tx.occupancy(), 0);
        assert_eq!(rx.occupancy(), 0);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        tx.stage(3).unwrap(); // staged counts on the producer side only
        assert_eq!(tx.occupancy(), 3);
        assert_eq!(rx.occupancy(), 2);
        tx.publish();
        assert_eq!(rx.occupancy(), 3);
        assert_eq!(rx.try_pop(), Ok(1));
        assert_eq!(tx.occupancy(), 2);
        assert_eq!(rx.occupancy(), 2);
        rx.pop_batch(8, &mut |_| {});
        assert_eq!(tx.occupancy(), 0);
        assert_eq!(rx.occupancy(), 0);
        assert_eq!(tx.free_slots(), 8);
    }

    #[test]
    fn parked_consumer_is_woken_by_push() {
        let (mut tx, mut rx) = spsc::<u32>(8);
        let waiter = std::thread::spawn(move || {
            // Long park timeout: the test only passes quickly if the
            // doorbell actually wakes us.
            let r = rx.wait_nonempty(0, 0, Duration::from_secs(30));
            (r, rx.try_pop())
        });
        std::thread::sleep(Duration::from_millis(50));
        tx.try_push(42).unwrap();
        let (outcome, v) = waiter.join().unwrap();
        assert_eq!(outcome, WaitOutcome::Ready);
        assert_eq!(v, Ok(42));
    }

    #[test]
    fn parked_consumer_is_woken_by_producer_drop() {
        let (tx, mut rx) = spsc::<u32>(8);
        let waiter = std::thread::spawn(move || rx.wait_nonempty(0, 0, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(50));
        drop(tx);
        assert_eq!(waiter.join().unwrap(), WaitOutcome::Disconnected);
    }
    // The doorbell on its own: the waiter-side twins of the three tests
    // above, for waiters that are not a ring's consumer.

    #[test]
    fn parked_waiter_is_woken_by_a_ring_from_another_thread() {
        let shared = Arc::new((Doorbell::default(), AtomicBool::new(false)));
        let waiter = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let (bell, ready) = &*shared;
                let t0 = std::time::Instant::now();
                // Long timeout: this only returns quickly if rung.
                bell.park(|| ready.load(Ordering::Acquire), Duration::from_secs(30));
                (ready.load(Ordering::Acquire), t0.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        shared.1.store(true, Ordering::Release);
        shared.0.ring();
        let (ready, waited) = waiter.join().unwrap();
        assert!(ready);
        assert!(waited < Duration::from_secs(10), "not woken: {waited:?}");
    }

    #[test]
    fn ring_with_nobody_parked_touches_no_lock() {
        let bell = Arc::new(Doorbell::default());
        // Hold the doorbell's mutex: a ring that notified (or so much as
        // locked) would block behind it.
        let held = bell.lock.lock().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let ringer = {
            let (bell, done) = (Arc::clone(&bell), Arc::clone(&done));
            std::thread::spawn(move || {
                bell.ring();
                done.store(true, Ordering::Release);
            })
        };
        let t0 = std::time::Instant::now();
        while !done.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let rung = done.load(Ordering::Acquire);
        drop(held);
        ringer.join().unwrap();
        assert!(rung, "ring() took the lock with nobody parked");
        assert!(!bell.parked.load(Ordering::Relaxed));
    }

    #[test]
    fn a_ring_between_the_flag_store_and_the_sleep_is_not_lost() {
        // 10 000 hand-offs between two threads, each a park on one
        // doorbell answered by a ring of the other. Every one of them
        // races the ringer against the waiter's flag-store → re-check →
        // sleep sequence; a lost wakeup sleeps a full `LONG`.
        const ROUNDS: u64 = 10_000;
        const LONG: Duration = Duration::from_secs(20);
        type Side = (Doorbell, AtomicU64);
        fn post(side: &Side, n: u64) {
            side.1.store(n, Ordering::Release);
            side.0.ring();
        }
        fn wait(side: &Side, n: u64) {
            while side.1.load(Ordering::Acquire) < n {
                side.0.park(|| side.1.load(Ordering::Acquire) >= n, LONG);
            }
        }
        let ping: Arc<Side> = Arc::default();
        let pong: Arc<Side> = Arc::default();
        let t0 = std::time::Instant::now();
        let echo = {
            let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
            std::thread::spawn(move || {
                for n in 1..=ROUNDS {
                    wait(&ping, n);
                    post(&pong, n);
                }
            })
        };
        for n in 1..=ROUNDS {
            post(&ping, n);
            wait(&pong, n);
        }
        echo.join().unwrap();
        assert!(t0.elapsed() < LONG, "a wakeup was lost: {:?}", t0.elapsed());
    }
}
