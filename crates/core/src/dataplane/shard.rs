//! The worker side of the parallel data plane: one OS thread per shard,
//! each owning a complete single-threaded [`Router`].
//!
//! A shard's mailbox is a bounded FIFO carrying both packets and control
//! commands, so per-shard ordering between the two is exactly the order
//! the dispatcher issued them in — a filter installed before a packet was
//! dispatched is guaranteed visible to that packet, just as it would be
//! on the single-threaded router.
//!
//! Shard threads are supervised: the loop runs under `catch_unwind`
//! (a panic escaping a control closure kills the *shard*, not the
//! process), writes a heartbeat the dispatcher's watchdog reads, and —
//! on any exit path, including abandonment after a stall — returns a
//! final `ShardFinal` accounting report so no counter is silently
//! lost with the thread.

use super::DataPlane;
use crate::obs::{MetricsSnapshot, TraceCategory};
use crate::router::Router;
use crate::supervisor::run_isolated;
use rp_packet::mbuf::IfIndex;
use rp_packet::Mbuf;
use rp_ring::{Consumer, Producer, PushError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A control command executed on the shard thread with full access to the
/// shard's state. Results travel back through whatever ring the closure
/// captured.
pub type ControlFn = Box<dyn FnOnce(&mut ShardCtx) + Send>;

/// Everything a shard thread owns.
pub struct ShardCtx {
    /// This shard's index in the dispatch function.
    pub index: usize,
    /// The shard's complete single-threaded router: its own AIU, flow
    /// table, gates, scheduler queues, and plugin instances.
    pub router: Router,
    /// Nanoseconds this shard has spent processing packets: wall time
    /// measured around each batch's packet loop (the batch's two clock
    /// reads, the egress drain excluded). With one core per shard this is
    /// the shard's busy time; a benchmark divides packet count by it to
    /// get the rate one shard sustains.
    pub busy_ns: u64,
    /// Packets this shard has processed.
    pub packets: u64,
}

/// Messages a shard consumes, in strict FIFO order.
pub enum ShardMsg {
    /// Packets of this shard's flows (one or many), dispatched in one
    /// ring push — the only way a packet reaches a shard. Processed
    /// front-to-back, so per-flow order is dispatch order; the emptied
    /// carrier `Vec` goes back to the dispatcher holding the batch's
    /// egress.
    Batch(Vec<Mbuf>),
    /// A control command (fan-out from the single control plane).
    Control(ControlFn),
}

/// Messages the consumer pulls into its local run per cursor
/// publication: bounds the latency of the abandoned-flag check while
/// amortizing the release-store over a run of messages.
const RECV_RUN: usize = 64;

/// Consumer wait tuning (see [`rp_ring::Consumer::wait_nonempty`]):
/// spin briefly for back-to-back batches, yield a few times as a cheap
/// off-ramp, then park on the doorbell. The park timeout bounds how long
/// an abandoned-but-not-disconnected worker waits before rechecking its
/// flag.
const RECV_SPINS: u32 = 64;
const RECV_YIELDS: u32 = 4;
const RECV_PARK: Duration = Duration::from_millis(2);

/// On a host with a single hardware thread the producer cannot make
/// progress while a consumer busy-polls — every spin or yield burns a
/// timeslice the dispatcher needed — so empty consumers go straight to
/// the doorbell. Probed once; spinning is only worth it with real
/// parallelism.
fn recv_wait_profile() -> (u32, u32) {
    static PROFILE: OnceLock<(u32, u32)> = OnceLock::new();
    *PROFILE.get_or_init(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores > 1 {
            (RECV_SPINS, RECV_YIELDS)
        } else {
            (0, 0)
        }
    })
}

/// The dispatcher's sending half of one shard's ingress FIFO: an SPSC
/// ring ([`rp_ring`]) with a doorbell for idle parking — no lock and no
/// syscall on the steady-state packet path. Each push follows a drain of
/// the shard's return ring, which bounds that ring ([`shard_fifo`]).
pub(crate) struct ShardSender(Producer<ShardMsg>);

impl ShardSender {
    pub(crate) fn try_send(&mut self, msg: ShardMsg) -> Result<(), PushError<ShardMsg>> {
        self.0.try_push(msg)
    }

    /// A sender whose peer is already gone: replacing a slot's sender
    /// with this disconnects the worker's receive loop (the abandonment
    /// path).
    pub(crate) fn dead() -> ShardSender {
        let (p, _) = rp_ring::spsc(1);
        ShardSender(p)
    }
}

/// The worker's end, paired with [`ShardSender`]. Drains the ingress ring
/// in runs of [`RECV_RUN`] into a local deque (one consumer-cursor
/// release-store per run), waits with spin→yield→doorbell-park
/// adaptivity, and pushes each message's egress carrier on the return
/// ring.
pub(crate) struct ShardReceiver {
    rx: Consumer<ShardMsg>,
    pending: VecDeque<ShardMsg>,
    back: Producer<Vec<Mbuf>>,
}

/// One shard's rings: ingress `depth` messages deep, and the return ring
/// for its egress carriers, which never fills. The dispatcher empties it
/// before each push to the ingress ring; until the next push the shard
/// can send back one carrier per message in its ingress ring (at most the
/// ingress capacity, the one just pushed included), in its local run (at
/// most [`RECV_RUN`]) and in its hand, plus the exit drain's: ingress
/// capacity + `RECV_RUN` + 2.
pub(crate) fn shard_fifo(depth: usize) -> (ShardSender, ShardReceiver, Consumer<Vec<Mbuf>>) {
    let (p, rx) = rp_ring::spsc(depth);
    let (back, returns) = rp_ring::spsc(rx.capacity() + RECV_RUN + 2);
    let pending = VecDeque::new();
    (ShardSender(p), ShardReceiver { rx, pending, back }, returns)
}

impl ShardReceiver {
    /// Next message, blocking until one arrives or the FIFO disconnects
    /// (`None`). Also returns `None` once `shared` is flagged abandoned —
    /// messages left in the ring or the local run are accounted by the
    /// dispatcher's sent/processed gap.
    fn recv(&mut self, shared: &ShardShared) -> Option<ShardMsg> {
        loop {
            if let Some(m) = self.pending.pop_front() {
                return Some(m);
            }
            let pending = &mut self.pending;
            if self.rx.pop_batch(RECV_RUN, &mut |m| pending.push_back(m)) > 0 {
                continue;
            }
            if shared.is_abandoned() {
                return None;
            }
            let (spins, yields) = recv_wait_profile();
            match self.rx.wait_nonempty(spins, yields, RECV_PARK) {
                rp_ring::WaitOutcome::Disconnected => return None,
                rp_ring::WaitOutcome::Ready | rp_ring::WaitOutcome::TimedOut => {}
            }
        }
    }

    /// Move everything the router transmitted into `carrier` and push it
    /// on the return ring: one ring operation per message, however many
    /// interfaces transmitted. Each packet carries its egress interface
    /// and a flow leaves through one interface in emission order, so the
    /// dispatcher's stable partition by `tx_if` restores per-flow order.
    /// The ring is sized so this push never finds it full ([`shard_fifo`]);
    /// it finds it disconnected only once the plane is dropped.
    fn send_egress(&mut self, router: &mut Router, mut carrier: Vec<Mbuf>) {
        for i in 0..router.interface_count() {
            router.take_tx_into(i as IfIndex, &mut carrier);
        }
        let full = matches!(self.back.try_push(carrier), Err(PushError::Full(_)));
        debug_assert!(!full, "return ring full");
    }
}

/// Per-shard work snapshot. The shard router's counters are its
/// [`Router::metrics_snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Packets processed.
    pub packets: u64,
    /// Busy time in nanoseconds (see [`ShardCtx::busy_ns`]).
    pub busy_ns: u64,
}

/// The final accounting a shard thread returns on any exit path. The
/// dispatcher folds it into its "retired" totals so a restarted shard's
/// history survives the restart (soft flow-cache state does not — that
/// is rebuilt by first-packet classification, as the paper intends).
pub(crate) struct ShardFinal {
    /// The closing metrics registry.
    pub(crate) metrics: MetricsSnapshot,
    /// Packets the router had counted `forwarded` into scheduler queues
    /// that never reached the wire because the shard exited. The
    /// dispatcher re-accounts them as `ShardDown` drops.
    pub(crate) stranded: u64,
    /// The panic message, when the loop died to an escaped panic.
    pub(crate) panic: Option<String>,
}

/// The fault the watchdog below exists to catch, on demand: `chaos
/// mode=wedge` parks its thread inside `handle_packet` until this epoch
/// moves. It is the one piece of plugin-visible state another thread must
/// reach — a wedged shard answers no control message — so it lives here
/// with the rest of the cross-thread shard state, not in the instance.
pub(crate) mod wedge {
    use std::sync::atomic::{AtomicU64, Ordering};

    static EPOCH: AtomicU64 = AtomicU64::new(0);

    /// A wedged call captures this at entry and sleeps until it changes.
    pub(crate) fn epoch() -> u64 {
        EPOCH.load(Ordering::SeqCst)
    }

    /// Release every thread wedged so far.
    pub(crate) fn release() {
        EPOCH.fetch_add(1, Ordering::SeqCst);
    }
}

/// State shared between a shard thread and the dispatcher: a heartbeat
/// (busy flag + timestamp), a processed-packet counter, `flush`'s completion
/// cursor, and the flag that tells a stalled thread it has been replaced.
pub(crate) struct ShardShared {
    /// `(coarse_now_ns() at message start << 1) | busy`. The shard sets
    /// `busy` before touching a message and clears it after, so a stale
    /// busy bit means the thread is stuck *inside* a message (wedged
    /// plugin, hot loop).
    state: AtomicU64,
    /// Packets fully processed, published once per batch (short by the one
    /// in flight if the worker dies; loss is read off its final report).
    processed: AtomicU64,
    /// Messages fully handled — the completion cursor. Stored `Release`
    /// after the message's egress carrier (and a control command's reply)
    /// was pushed, read `Acquire` by `flush` and the fan-out: caught up
    /// means that egress is on the return ring.
    completed: AtomicU64,
    /// The dispatcher's doorbell, rung after every cursor move (a fence
    /// and a flag load unless the dispatcher is parked in `flush` or a
    /// fan-out).
    bell: Arc<rp_ring::Doorbell>,
    /// Set by the dispatcher when it gives up on this incarnation; the
    /// loop exits at the next message boundary instead of racing its
    /// replacement.
    abandoned: AtomicBool,
}

impl ShardShared {
    pub(crate) fn new(bell: Arc<rp_ring::Doorbell>) -> Self {
        ShardShared {
            state: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            bell,
            abandoned: AtomicBool::new(false),
        }
    }

    /// Heartbeat: busy inside a message since `now_ns`.
    fn beat_busy(&self, now_ns: u64) {
        self.state.store((now_ns << 1) | 1, Ordering::Relaxed);
    }

    /// Heartbeat: between messages.
    fn beat_idle(&self) {
        self.state.store(0, Ordering::Relaxed);
    }

    /// Nanoseconds the shard has been continuously busy inside one
    /// message as of `now_ns`, or `None` when it is between messages
    /// (idle or draining its FIFO promptly).
    pub(crate) fn busy_for(&self, now_ns: u64) -> Option<u64> {
        let s = self.state.load(Ordering::Relaxed);
        (s & 1 == 1).then(|| now_ns.saturating_sub(s >> 1))
    }

    /// Packets fully processed by this incarnation (see the field).
    pub(crate) fn processed(&self) -> u64 {
        self.processed.load(Ordering::Relaxed)
    }

    /// Messages this incarnation has fully handled (see the field).
    pub(crate) fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    pub(crate) fn mark_abandoned(&self) {
        self.abandoned.store(true, Ordering::Relaxed);
    }

    fn is_abandoned(&self) -> bool {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// Trace a batch's packets as they reach the shard (one category check
/// per batch when tracing is off).
fn trace_batch(ctx: &mut ShardCtx, pkts: &[Mbuf]) {
    if !ctx.router.tracer().wants(TraceCategory::Shard) {
        return;
    }
    let now = ctx.router.now_ns();
    for pkt in pkts {
        let detail = format!("shard {} rx_if={} len={}", ctx.index, pkt.rx_if, pkt.len());
        ctx.router
            .tracer_mut()
            .record(now, TraceCategory::Shard, detail);
    }
}

/// The message loop proper. Runs under `catch_unwind` in [`run_shard`];
/// a panic that escapes here (control closures run unprotected — packet
/// gates are already isolated per-call by the plugin supervisor) kills
/// only this shard.
fn shard_loop(ctx: &mut ShardCtx, rx: &mut ShardReceiver, shared: &ShardShared) {
    let mut completed = 0u64;
    loop {
        if shared.is_abandoned() {
            return;
        }
        // While blocked here the heartbeat shows idle, which is never a
        // stall; abandonment unblocks it because the dispatcher drops the
        // old sender when it replaces the shard (and the bounded doorbell
        // park re-checks the abandoned flag).
        let Some(msg) = rx.recv(shared) else { return };
        // The message's one clock reading: heartbeat, ingress sojourn and
        // the start of the busy span.
        let wall = rp_packet::coarse_now_ns();
        shared.beat_busy(wall);
        if shared.is_abandoned() {
            // A replacement already owns this shard index; drop the
            // message (the dispatcher's sent/processed gap accounts it).
            return;
        }
        match msg {
            ShardMsg::Batch(mut pkts) => {
                // One heartbeat-busy window covers the whole batch; the
                // watchdog's stall timeouts are tens of milliseconds,
                // far above any sane batch's processing time. The busy
                // span likewise runs from that one reading to a second
                // after the packet loop: sojourn is a coarse end-to-end
                // measure and busy time a sum, neither a per-packet
                // stopwatch.
                trace_batch(ctx, &pkts);
                ctx.packets += pkts.len() as u64;
                ctx.router.receive_burst(&mut pkts, wall);
                ctx.busy_ns += rp_packet::coarse_now_ns().saturating_sub(wall);
                shared.processed.store(ctx.packets, Ordering::Relaxed);
                // The emptied carrier goes back holding the batch's
                // egress: one pass over the tx logs per batch.
                rx.send_egress(&mut ctx.router, pkts);
            }
            ShardMsg::Control(f) => {
                f(ctx);
                // Control actions can emit too (force-unload drains
                // scheduler backlogs to the wire), in a carrier of their
                // own.
                rx.send_egress(&mut ctx.router, Vec::new());
            }
        }
        completed += 1;
        shared.completed.store(completed, Ordering::Release);
        shared.bell.ring();
        shared.beat_idle();
    }
}

/// The shard thread's entry point: run the loop under panic isolation and
/// always return a final accounting report, whatever the exit path.
pub(crate) fn run_shard(
    mut ctx: ShardCtx,
    mut rx: ShardReceiver,
    shared: Arc<ShardShared>,
) -> ShardFinal {
    let panic = run_isolated(|| shard_loop(&mut ctx, &mut rx, &shared)).err();
    shared.beat_idle();
    // Flush whatever already reached the tx logs, then snapshot. Both run
    // isolated too: after a panic the router may be torn mid-call and a
    // second panic here must not take down the final accounting.
    let _ = run_isolated(|| rx.send_egress(&mut ctx.router, Vec::new()));
    let (metrics, stranded) = run_isolated(|| {
        let m = ctx.router.metrics_snapshot();
        let stranded: u64 = m.queue_depth.iter().sum();
        (m, stranded)
    })
    .unwrap_or((MetricsSnapshot::default(), 0));
    ShardFinal {
        metrics,
        stranded,
        panic,
    }
}

impl ShardCtx {
    /// Statistics snapshot (taken on the shard thread, via
    /// `control_map`).
    pub fn report(&self) -> ShardReport {
        ShardReport {
            shard: self.index,
            packets: self.packets,
            busy_ns: self.busy_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_tracks_busy_windows() {
        let hb = ShardShared::new(Arc::default());
        assert_eq!(hb.busy_for(5_000), None);
        hb.beat_busy(5_000);
        assert_eq!(hb.busy_for(20_005_000), Some(20_000_000));
        // A watchdog reading taken just before the beat is not a stall.
        assert_eq!(hb.busy_for(4_000), Some(0));
        hb.beat_idle();
        assert_eq!(hb.busy_for(20_005_000), None);
    }
}
