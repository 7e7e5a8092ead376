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
//! final [`ShardFinal`] accounting report so no counter is silently
//! lost with the thread.

use crate::obs::{MetricsSnapshot, TraceCategory};
use crate::router::Router;
use crate::supervisor::run_isolated;
use crossbeam_channel::{Receiver, Sender, TrySendError};
use rp_packet::mbuf::IfIndex;
use rp_packet::Mbuf;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A control command executed on the shard thread with full access to the
/// shard's state. Results travel back through whatever channel the
/// closure captured.
pub type ControlFn = Box<dyn FnOnce(&mut ShardCtx) + Send>;

/// Everything a shard thread owns.
pub struct ShardCtx {
    /// This shard's index in the dispatch function.
    pub index: usize,
    /// The shard's complete single-threaded router: its own AIU, flow
    /// table, gates, scheduler queues, and plugin instances.
    pub router: Router,
    /// Nanoseconds this shard has spent processing packets, i.e. its CPU
    /// demand: wall time measured around each batch's packet loop (the
    /// batch's two clock reads, the egress drain excluded). With one core
    /// per shard this is the shard's wall-clock busy time; the scaling
    /// bench divides packet count by the *maximum* shard busy time to get
    /// the aggregate rate the array sustains.
    pub busy_ns: u64,
    /// Packets this shard has processed.
    pub packets: u64,
    /// Times the per-thread CPU clock could not be read (`/proc` parse
    /// failure). Surfaced in [`ShardReport`] so a zero `cpu_ns` is never
    /// silent.
    pub cpu_clock_errors: u64,
}

/// Messages a shard consumes, in strict FIFO order.
pub enum ShardMsg {
    /// Packets of this shard's flows (one or many), dispatched in one
    /// ring push — the only way a packet reaches a shard. Processed
    /// front-to-back, so per-flow order is dispatch order; the emptied
    /// carrier `Vec` is returned to the dispatcher on the scrap channel
    /// for reuse.
    Batch(Vec<Mbuf>),
    /// A control command (fan-out from the single control plane).
    Control(ControlFn),
    /// Drain and exit.
    Shutdown,
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
    static PROFILE: std::sync::OnceLock<(u32, u32)> = std::sync::OnceLock::new();
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
/// syscall on the steady-state packet path.
pub(crate) struct ShardSender(rp_ring::Producer<ShardMsg>);

impl ShardSender {
    pub(crate) fn try_send(&mut self, msg: ShardMsg) -> Result<(), TrySendError<ShardMsg>> {
        self.0.try_push(msg).map_err(|e| match e {
            rp_ring::PushError::Full(m) => TrySendError::Full(m),
            rp_ring::PushError::Disconnected(m) => TrySendError::Disconnected(m),
        })
    }

    /// A sender whose peer is already gone: replacing a slot's sender
    /// with this disconnects the worker's receive loop (the abandonment
    /// path).
    pub(crate) fn dead() -> ShardSender {
        let (p, _) = rp_ring::spsc(1);
        ShardSender(p)
    }
}

/// The worker's receiving half, paired with [`ShardSender`]. Drains the
/// ring in runs of [`RECV_RUN`] into a local deque (one consumer-cursor
/// release-store per run) and waits with spin→yield→doorbell-park
/// adaptivity.
pub(crate) struct ShardReceiver {
    rx: rp_ring::Consumer<ShardMsg>,
    pending: VecDeque<ShardMsg>,
}

/// One shard's ingress FIFO, `depth` messages deep.
pub(crate) fn shard_fifo(depth: usize) -> (ShardSender, ShardReceiver) {
    let (p, rx) = rp_ring::spsc(depth);
    let pending = VecDeque::new();
    (ShardSender(p), ShardReceiver { rx, pending })
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
}

/// Where a shard pushes transmitted packets: one carrier `Vec` per
/// interface that transmitted in an egress drain, sent in one channel
/// operation and appended whole to that interface's bucket by the
/// dispatcher; emptied carriers come back on a scrap channel so the
/// steady state allocates nothing.
pub(crate) struct EgressSink {
    pub(crate) tx: Sender<(IfIndex, Vec<Mbuf>)>,
    /// Emptied carriers returned by the dispatcher; shared by all
    /// shards (one `try_recv` per carrier sent, not per packet).
    pub(crate) scrap: Receiver<Vec<Mbuf>>,
    /// The next carrier, filled straight from a tx log.
    pub(crate) carrier: Vec<Mbuf>,
}

impl EgressSink {
    /// Push everything the shard's router transmitted onto the collector.
    /// A flow leaves one shard through one interface in processing order,
    /// and a carrier preserves its fill order, so per-flow order on the
    /// collector is the router's emission order.
    fn drain(&mut self, router: &mut Router) {
        for i in 0..router.interface_count() {
            let ifx = i as IfIndex;
            router.take_tx_into(ifx, &mut self.carrier);
            if self.carrier.is_empty() {
                continue;
            }
            let next = self.scrap.try_recv().unwrap_or_default();
            let full = std::mem::replace(&mut self.carrier, next);
            // A dropped collector means the dispatcher is gone; the
            // shard is about to shut down anyway.
            let _ = self.tx.send((ifx, full));
        }
    }
}

/// Per-shard work snapshot (scaling bench). The shard router's counters
/// are its [`Router::metrics_snapshot`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Packets processed.
    pub packets: u64,
    /// Busy time in nanoseconds (see [`ShardCtx::busy_ns`]).
    pub busy_ns: u64,
    /// Cumulative CPU time of the shard thread in nanoseconds (0 when the
    /// platform doesn't expose it — see `cpu_clock_errors`). Unlike
    /// `busy_ns` (wall time inside the packet path) this is immune to
    /// preemption inflation when more shards than cores share the
    /// measurement host, at ~10 ms kernel accounting granularity —
    /// benches prefer it over long runs.
    pub cpu_ns: u64,
    /// Times the CPU clock read failed; a non-zero count flags that
    /// `cpu_ns` under-reports instead of letting 0 pass silently.
    pub cpu_clock_errors: u64,
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
    /// after the message's egress carriers were sent, read `Acquire` by
    /// `flush`: caught up means that egress is on the collector.
    completed: AtomicU64,
    /// The dispatcher's doorbell, rung after every cursor move (a fence
    /// and a flag load unless the dispatcher is parked in `flush`).
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

/// Clock ticks per second for `/proc` utime/stime fields, from
/// `getconf CLK_TCK` (the no-`unsafe` stand-in for
/// `sysconf(_SC_CLK_TCK)`), probed once per process. Falls back to 100:
/// Linux fixes `USER_HZ` at 100 for the userspace ABI regardless of the
/// kernel's internal HZ, so the fallback is the documented value, not a
/// guess.
fn user_hz() -> u64 {
    static USER_HZ: OnceLock<u64> = OnceLock::new();
    *USER_HZ.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<u64>().ok())
            .filter(|hz| (1..=1_000_000).contains(hz))
            .unwrap_or(100)
    })
}

/// Cumulative CPU time (user + system) of the *calling* thread, from
/// `/proc/thread-self/stat`. `None` off Linux or on parse failure.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The comm field may contain spaces; everything after the closing
    // paren is fixed-position. utime/stime are the 12th/13th tokens after
    // it, in `USER_HZ` ticks (see [`user_hz`]).
    let (_, rest) = stat.rsplit_once(')')?;
    let toks: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = toks.get(11)?.parse().ok()?;
    let stime: u64 = toks.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / user_hz()))
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
fn shard_loop(
    ctx: &mut ShardCtx,
    rx: &mut ShardReceiver,
    egress: &mut EgressSink,
    scrap: &Sender<Vec<Mbuf>>,
    shared: &ShardShared,
) {
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
                ctx.packets += ctx.router.receive_burst(&mut pkts, wall);
                ctx.busy_ns += rp_packet::coarse_now_ns().saturating_sub(wall);
                shared.processed.store(ctx.packets, Ordering::Relaxed);
                // Egress drain is the amortized part: one pass over the
                // tx logs per batch instead of per packet.
                egress.drain(&mut ctx.router);
                // Hand the emptied carrier back for reuse. A dropped
                // scrap receiver just means the dispatcher stopped
                // recycling; the Vec is freed here instead.
                let _ = scrap.send(pkts);
            }
            ShardMsg::Control(f) => {
                f(ctx);
                // Control actions can emit too (force-unload drains
                // scheduler backlogs to the wire).
                egress.drain(&mut ctx.router);
            }
            ShardMsg::Shutdown => {
                shared.beat_idle();
                return;
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
    mut egress: EgressSink,
    scrap: Sender<Vec<Mbuf>>,
    shared: Arc<ShardShared>,
) -> ShardFinal {
    let panic = run_isolated(|| shard_loop(&mut ctx, &mut rx, &mut egress, &scrap, &shared)).err();
    shared.beat_idle();
    // Flush whatever already reached the tx logs, then snapshot. Both run
    // isolated too: after a panic the router may be torn mid-call and a
    // second panic here must not take down the final accounting.
    let _ = run_isolated(|| egress.drain(&mut ctx.router));
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
    /// Statistics snapshot. Meant to run *on the shard thread* (i.e. via
    /// `control_map`), so `cpu_ns` reads that thread's CPU clock; a
    /// failed read is counted, not silently reported as 0.
    pub fn report(&mut self) -> ShardReport {
        let cpu_ns = match thread_cpu_ns() {
            Some(ns) => ns,
            None => {
                self.cpu_clock_errors += 1;
                0
            }
        };
        ShardReport {
            shard: self.index,
            packets: self.packets,
            busy_ns: self.busy_ns,
            cpu_ns,
            cpu_clock_errors: self.cpu_clock_errors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_hz_is_sane() {
        let hz = user_hz();
        assert!((1..=1_000_000).contains(&hz), "USER_HZ {hz}");
    }

    #[test]
    fn thread_cpu_clock_reads_on_linux() {
        if cfg!(target_os = "linux") {
            // Parse must succeed; the value itself can legitimately be 0
            // on a freshly spawned thread (10 ms accounting granularity).
            assert!(thread_cpu_ns().is_some());
        }
    }

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
