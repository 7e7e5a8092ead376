//! Sharded parallel data plane: flow-affine worker shards behind the
//! paper's single-router model.
//!
//! The paper's router is deliberately single-threaded: gates, the AIU
//! flow table, and plugin soft state are all manipulated without locks,
//! which is exactly what makes the fast path fast. [`ParallelRouter`]
//! scales that design out instead of up: it runs N complete
//! single-threaded [`Router`]s — each with its own AIU, flow table,
//! gates, and plugin instances — on N worker threads, and steers every
//! packet to the shard owning its flow (`flow_hash(five-tuple) % N`,
//! see [`dispatch`]). No data-path state is ever shared, so no data-path
//! lock exists; per-flow packet order is preserved because one flow
//! always lives on one shard.
//!
//! The control plane stays single. Every `pmgr` command fans out to all
//! shards through the same per-shard FIFO as the packets (so
//! command/packet ordering per shard matches issue order) and the
//! replies are merged back into one answer ([`control`]). Shards apply
//! identical command sequences, so per-shard PCU instance ids and AIU
//! filter ids stay in lockstep and an operator-visible id means the same
//! logical object everywhere.
//!
//! Egress is re-serialized: shards push one carrier of transmitted
//! packets per output interface onto one shared collector channel and the
//! dispatcher appends each to that interface's bucket. Since a flow is
//! pinned to one shard and each shard emits in processing order, per-flow
//! order on the wire matches the single-threaded router exactly.
//!
//! # Shard supervision
//!
//! The shard workers are supervised with the same
//! Healthy→Degraded→Quarantined machine the plugin supervisor applies to
//! instances, one level up:
//!
//! * **Containment** — the shard loop runs under `catch_unwind`
//!   (`shard::run_shard`); a panic escaping a control closure kills
//!   only that shard. The dispatcher detects dead or disconnected
//!   workers and quarantines them.
//! * **Liveness** — each worker writes a heartbeat (busy flag +
//!   timestamp); the dispatcher's watchdog classifies a worker stuck
//!   inside one message longer than
//!   [`ParallelRouterConfig::stall_timeout`] as stalled, abandons that
//!   incarnation, and every control fan-out / flush wait carries a
//!   timeout with per-shard partial replies (`[shard i] unresponsive`)
//!   instead of blocking forever.
//! * **Rebuild** — every state-mutating control command is recorded in a
//!   [`CommandJournal`]; a quarantined shard is restarted (the same
//!   [`Backoff`] the router's [`FaultPolicy`](crate::supervisor::FaultPolicy) gives plugin instances,
//!   due on `coarse_now_ns()` instead of the simulated clock) by replaying
//!   the journal into a fresh [`Router`], which returns its instance and
//!   filter ids to lockstep with the survivors. Flow-cache soft state is
//!   *not* restored: the next packet of each flow re-classifies, exactly
//!   the paper's first-packet path.
//! * **Overload** — dispatch to a full or unhealthy shard is
//!   policy-driven: bounded wait ([`ParallelRouterConfig::overload_wait`])
//!   then a counted drop ([`DropReason::ShardOverload`] /
//!   [`DropReason::ShardDown`]). Packets lost inside a fault window
//!   (queued on a dead shard, stranded in its scheduler queues) are
//!   re-accounted as `ShardDown` when the incarnation's final report is
//!   harvested, so the merged counters never lose a packet silently.

pub mod control;
pub mod dispatch;
pub mod journal;
pub mod shard;

pub use control::{
    ControlCmd, ControlPlane, CounterRow, ShardAnswer, ShardHealthReport, ShardStatus,
    ShardTraceEvent,
};
pub use dispatch::{shard_for_packet, shard_for_tuple};
pub use journal::CommandJournal;
pub use shard::{ShardCtx, ShardMsg, ShardReport};

use crate::ip_core::{DataPathStats, DropReason};
use crate::loader::PluginLoader;
use crate::message::PluginReply;
use crate::obs::{drop_reason_index, MetricsRegistry, MetricsSnapshot, MAX_INTERFACES};
use crate::plugin::PluginError;
use crate::router::{Router, RouterConfig};
use crate::supervisor::{duration_ns, Backoff, HealthState};
use control::merge_replies;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use rp_classifier::flow_table::FlowTableStats;
use rp_packet::mbuf::IfIndex;
use rp_packet::{coarse_now_ns, Mbuf, MbufPool, PoolStats};
use shard::{run_shard, shard_fifo, ControlFn, EgressSink, ShardFinal, ShardSender, ShardShared};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

// The whole design depends on Router moving into worker threads; fail at
// compile time (not deep inside thread::spawn) if a !Send field sneaks in.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Router>();
};

/// Check one shard's health every this many dispatched packets, round
/// robin, so stalls are detected even when all traffic flows to other
/// shards (one atomic load + one clock read per stride — off the per-
/// packet hot path).
const WATCHDOG_STRIDE: u64 = 64;

/// Granularity of the timed waits in `flush`/fan-out collection: long
/// enough to stay off the scheduler's back, short enough that stall
/// detection latency is dominated by `stall_timeout`, not the slice.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// Configuration for a [`ParallelRouter`].
#[derive(Debug, Clone)]
pub struct ParallelRouterConfig {
    /// Number of worker shards (each a complete single-threaded router).
    pub shards: usize,
    /// Per-shard router configuration (interfaces, gates, flow table…).
    /// Its [`FaultPolicy`](crate::supervisor::FaultPolicy) also governs
    /// shard restarts (`restart`, `max_restarts`, the backoff): plugin
    /// restarts fall due on the router's simulated `now_ns`, shard and
    /// device restarts on `coarse_now_ns()` — same unit, same [`Backoff`].
    pub router: RouterConfig,
    /// Depth of each shard's ingress FIFO (an `rp_ring` SPSC ring).
    pub ingress_depth: usize,
    /// How long one message may keep a worker continuously busy before
    /// the watchdog classifies the shard as stalled and abandons it.
    pub stall_timeout: Duration,
    /// How long dispatch waits on a full ingress FIFO before shedding
    /// the packets as [`DropReason::ShardOverload`]. The bounded wait
    /// preserves the back-pressure behaviour under transient bursts
    /// while keeping the ingress thread live under sustained overload.
    pub overload_wait: Duration,
}

impl Default for ParallelRouterConfig {
    fn default() -> Self {
        ParallelRouterConfig {
            shards: 4,
            router: RouterConfig::default(),
            ingress_depth: 1024,
            stall_timeout: Duration::from_millis(500),
            overload_wait: Duration::from_millis(2),
        }
    }
}

/// The dispatcher's handle to one shard worker plus its supervision
/// state. All fields live on the dispatcher side (or in the shared
/// heartbeat block), so health decisions never require the worker thread
/// to cooperate.
struct ShardSlot {
    tx: ShardSender,
    join: Option<JoinHandle<ShardFinal>>,
    shared: Arc<ShardShared>,
    health: HealthState,
    /// Completed restarts of this shard index.
    restarts: u32,
    /// Restart delays of this shard index (carried across incarnations).
    backoff: Backoff,
    /// When the pending restart becomes due ([`coarse_now_ns`]).
    restart_at: Option<u64>,
    /// Out of restart budget (or policy forbids restarts): permanently
    /// quarantined, traffic shed as `ShardDown`.
    gave_up: bool,
    last_fault: Option<String>,
    /// Packets dispatched to the *current* incarnation.
    sent: u64,
    /// Messages the current incarnation's FIFO accepted (`flush` waits
    /// for the worker's completion cursor to reach this).
    accepted: u64,
    shed_overload: u64,
    shed_down: u64,
}

impl ShardSlot {
    /// Serving = accepts packets and control (Healthy, or Degraded after
    /// a restart). Quarantined shards are bypassed with counted sheds.
    fn serving(&self) -> bool {
        matches!(self.health, HealthState::Healthy | HealthState::Degraded)
    }

    /// `flush` must wait: serving, with an accepted message not yet handled.
    fn lagging(&self) -> bool {
        self.serving() && self.shared.completed() < self.accepted
    }
}

/// An abandoned incarnation whose thread hasn't exited yet (stalled, or
/// still draining). Harvested for its final accounting report when it
/// does; `sent` is the packet count dispatched to it, against which
/// queue loss is computed.
struct Zombie {
    shard: usize,
    join: JoinHandle<ShardFinal>,
    sent: u64,
}

/// N flow-affine router shards behind the single-router interface.
///
/// Packets enter through [`receive`](ParallelRouter::receive), control
/// through [`ControlPlane`] (or [`control_map`](ParallelRouter::control_map)
/// directly), and egress leaves through
/// [`take_tx`](ParallelRouter::take_tx) after a
/// [`flush`](ParallelRouter::flush).
pub struct ParallelRouter {
    cfg: ParallelRouterConfig,
    /// `cfg.stall_timeout` / `cfg.overload_wait` in nanoseconds.
    stall_timeout_ns: u64,
    overload_wait_ns: u64,
    /// The shared plugin factory registry rebuilds draw from (the
    /// paper's single on-disk module set).
    template: PluginLoader,
    slots: Vec<ShardSlot>,
    zombies: Vec<Zombie>,
    /// Replayable record of every state-mutating control command.
    journal: CommandJournal,
    interfaces: usize,
    /// Egress collector: shards send whole carrier `Vec`s of transmitted
    /// packets (one channel operation per interface per egress drain, not
    /// one per packet) and the dispatcher returns the emptied carriers on
    /// the scrap side, so the steady state allocates nothing. The `tx`
    /// half is kept so the collector never disconnects while shards are
    /// live (they hold clones), and as the source for rebuilt shards'
    /// senders.
    egress_batch_tx: Sender<(IfIndex, Vec<Mbuf>)>,
    egress_batch_rx: Receiver<(IfIndex, Vec<Mbuf>)>,
    egress_scrap_tx: Sender<Vec<Mbuf>>,
    egress_scrap_rx: Receiver<Vec<Mbuf>>,
    /// Where `flush` parks while a shard's completion cursor lags; every
    /// shard rings it after moving its cursor.
    flush_bell: Arc<rp_ring::Doorbell>,
    /// Return path for emptied batch carrier `Vec`s: shards send the
    /// drained vector back here after processing a [`ShardMsg::Batch`],
    /// and the dispatcher reuses it for a later batch — steady-state
    /// batched dispatch allocates no carriers.
    scrap_tx: Sender<Vec<Mbuf>>,
    scrap_rx: Receiver<Vec<Mbuf>>,
    /// Emptied carriers ready for reuse (fed from `scrap_rx` plus the
    /// caller-supplied input vectors of past `receive_batch` calls).
    spare_batches: Vec<Vec<Mbuf>>,
    /// One bucket per shard, reused across `receive_batch` calls to
    /// group a mixed batch by destination shard without allocating.
    group_scratch: Vec<Vec<Mbuf>>,
    /// Dispatcher-side buffer pool: sources ingress mbufs
    /// ([`mbuf_with`](ParallelRouter::mbuf_with)) and reabsorbs shed
    /// packets and transmitted packets the driver hands back
    /// ([`recycle_mbuf`](ParallelRouter::recycle_mbuf)).
    pool: MbufPool,
    /// Per-interface egress buckets, filled from the collector.
    pending: Vec<Vec<Mbuf>>,
    /// Dispatcher-side counters: sheds, device drops, plus the absorbed
    /// history of exited shard incarnations (their final snapshots), so
    /// restarting a shard never erases its packets from the merged totals.
    local_metrics: MetricsRegistry,
    watchdog_tick: u64,
}

impl ParallelRouter {
    /// Build the shard array. Each shard's router is constructed here on
    /// the caller thread — sharing the plugin factory table of
    /// `template` (the paper's single on-disk module set) — and then
    /// moved onto its worker thread.
    pub fn new(cfg: ParallelRouterConfig, template: &PluginLoader) -> Self {
        let shards = cfg.shards.max(1);
        let (egress_batch_tx, egress_batch_rx) = unbounded();
        let (egress_scrap_tx, egress_scrap_rx) = unbounded();
        let (scrap_tx, scrap_rx) = unbounded();
        let interfaces = cfg.router.interfaces;
        let mut pr = ParallelRouter {
            stall_timeout_ns: duration_ns(cfg.stall_timeout),
            overload_wait_ns: duration_ns(cfg.overload_wait),
            template: template.share_factories(),
            slots: Vec::with_capacity(shards),
            zombies: Vec::new(),
            journal: CommandJournal::default(),
            interfaces,
            egress_batch_tx,
            egress_batch_rx,
            egress_scrap_tx,
            egress_scrap_rx,
            flush_bell: Arc::default(),
            scrap_tx,
            scrap_rx,
            spare_batches: Vec::new(),
            group_scratch: (0..shards).map(|_| Vec::new()).collect(),
            pool: MbufPool::default(),
            pending: (0..interfaces).map(|_| Vec::new()).collect(),
            local_metrics: MetricsRegistry::default(),
            watchdog_tick: 0,
            cfg,
        };
        for index in 0..shards {
            let slot = pr.spawn_slot(index);
            pr.slots.push(slot);
        }
        pr
    }

    /// Construct and launch one shard worker (initial spawn and rebuild
    /// share this). The router replays the journal before the thread
    /// starts, so the worker joins the array already in lockstep.
    fn spawn_slot(&mut self, index: usize) -> ShardSlot {
        let mut router = Router::new(self.cfg.router.clone());
        router.loader = self.template.share_factories();
        let replay_errors = self.journal.replay(&mut router);
        // Replay runs against empty queues and must not emit; clear the
        // tx logs so a rebuilt shard cannot replay phantom transmissions.
        for i in 0..router.interface_count() {
            let _ = router.take_tx(i as IfIndex);
        }
        let ctx = ShardCtx {
            index,
            router,
            busy_ns: 0,
            packets: 0,
        };
        let (tx, rx) = shard_fifo(self.cfg.ingress_depth.max(1));
        let egress = EgressSink {
            tx: self.egress_batch_tx.clone(),
            scrap: self.egress_scrap_rx.clone(),
            carrier: Vec::new(),
        };
        let shared = Arc::new(ShardShared::new(Arc::clone(&self.flush_bell)));
        let scrap = self.scrap_tx.clone();
        let worker_shared = Arc::clone(&shared);
        let join = std::thread::Builder::new()
            .name(format!("rp-shard-{index}"))
            .spawn(move || run_shard(ctx, rx, egress, scrap, worker_shared))
            .ok();
        let policy = &self.cfg.router.fault_policy;
        let spawn_failed = join.is_none();
        let mut last_fault = None;
        if spawn_failed {
            last_fault = Some("worker thread spawn failed".to_string());
        } else if replay_errors > 0 {
            // Expected to mirror the original per-shard outcomes (see
            // the journal docs); noted for the operator, not a fault.
            last_fault = Some(format!(
                "journal replay reported {replay_errors} command errors"
            ));
        }
        ShardSlot {
            tx,
            join,
            shared,
            health: if spawn_failed {
                HealthState::Quarantined
            } else {
                HealthState::Healthy
            },
            restarts: 0,
            backoff: Backoff::new(
                policy.restart_backoff_ns.max(1),
                policy.restart_backoff_cap_ns,
            ),
            restart_at: None,
            gave_up: spawn_failed,
            last_fault,
            sent: 0,
            accepted: 0,
            shed_overload: 0,
            shed_down: 0,
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard `mbuf` is dispatched to: [`shard_for_packet`] over this
    /// plane's shard count, the one placement decision there is.
    pub fn shard_of(&self, mbuf: &Mbuf) -> usize {
        shard_for_packet(mbuf, self.slots.len())
    }

    /// State-mutating control commands recorded for shard rebuilds.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    // ---- supervision machinery ------------------------------------

    /// Fold an exited incarnation's final snapshot into the dispatcher's
    /// retained history, re-accounting every packet that entered the
    /// shard but never reached the wire as a `ShardDown` drop:
    /// `lost_queue` (dispatched, never processed) and `stranded`
    /// (counted forwarded into a scheduler queue that died with the
    /// worker).
    fn absorb_final(&mut self, shard: usize, sent: u64, f: ShardFinal) {
        let mut m = f.metrics;
        let lost_queue = sent.saturating_sub(m.received);
        let lost = lost_queue + f.stranded;
        // Only the counters carry forward: the gauges describe queues, a
        // flow table and a FIB that died with the worker (the queues'
        // content is re-accounted as stranded), so the merged gauges
        // always reflect state that actually exists.
        m.queue_depth = [0; MAX_INTERFACES];
        m.flows.live = 0;
        m.flows.allocated = 0;
        m.fib_compiled = 0;
        m.fib_tbl8_groups = 0;
        m.fib_next_hops = 0;
        m.fib_mem_bytes = 0;
        m.fib_repaints = 0;
        m.received += lost_queue;
        m.forwarded = m.forwarded.saturating_sub(f.stranded);
        m.drops[drop_reason_index(DropReason::ShardDown)] += lost;
        self.local_metrics.absorb(&m);
        if let Some(slot) = self.slots.get_mut(shard) {
            slot.shed_down += lost;
        }
    }

    /// Collect final reports from abandoned incarnations whose threads
    /// have since exited (e.g. a wedge that released).
    fn harvest_zombies(&mut self) {
        let mut i = 0;
        while i < self.zombies.len() {
            if self.zombies[i].join.is_finished() {
                let z = self.zombies.swap_remove(i);
                if let Ok(f) = z.join.join() {
                    self.absorb_final(z.shard, z.sent, f);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Record a shard fault and schedule (or refuse) its restart per the
    /// fault policy's capped exponential backoff.
    fn note_fault(&mut self, shard: usize, why: String, now: u64) {
        let policy = &self.cfg.router.fault_policy;
        let slot = &mut self.slots[shard];
        slot.health = HealthState::Quarantined;
        slot.last_fault = Some(why);
        if !policy.restart || slot.restarts >= policy.max_restarts {
            slot.gave_up = true;
            slot.restart_at = None;
        } else {
            slot.restart_at = Some(slot.backoff.arm(now));
        }
    }

    /// Give up on the current incarnation without waiting for its thread:
    /// flag it abandoned (so it exits at the next message boundary),
    /// disconnect its FIFO, and park the join handle for later harvest.
    fn abandon(&mut self, shard: usize, why: String, now: u64) {
        self.slots[shard].shared.mark_abandoned();
        // Replacing (and dropping) our sender disconnects the worker's
        // recv — the producer's drop also rings the doorbell — so an
        // *idle* abandoned worker exits immediately; a wedged one exits
        // when whatever wedged it returns.
        self.slots[shard].tx = ShardSender::dead();
        if let Some(join) = self.slots[shard].join.take() {
            self.zombies.push(Zombie {
                shard,
                join,
                sent: self.slots[shard].sent,
            });
        }
        self.slots[shard].sent = 0;
        self.note_fault(shard, why, now);
    }

    /// One watchdog pass over one shard: harvest it if dead, abandon it
    /// if stalled, rebuild it if its restart is due.
    fn check_shard(&mut self, shard: usize, now: u64) {
        self.harvest_zombies();
        if self.slots[shard]
            .join
            .as_ref()
            .is_some_and(|j| j.is_finished())
        {
            // The worker exited on its own: a panic escaped into the
            // shard loop (or the loop ended unexpectedly).
            let sent = self.slots[shard].sent;
            self.slots[shard].sent = 0;
            let why = match self.slots[shard].join.take() {
                Some(join) => match join.join() {
                    Ok(f) => {
                        let why = match &f.panic {
                            Some(msg) => format!("worker panicked: {msg}"),
                            None => "worker exited unexpectedly".to_string(),
                        };
                        self.absorb_final(shard, sent, f);
                        why
                    }
                    Err(_) => "worker thread aborted".to_string(),
                },
                None => return,
            };
            self.note_fault(shard, why, now);
            return;
        }
        if self.slots[shard].serving() {
            if let Some(busy_ns) = self.slots[shard].shared.busy_for(now) {
                if busy_ns >= self.stall_timeout_ns {
                    self.abandon(
                        shard,
                        format!("stalled: busy {}ms inside one message", busy_ns / 1_000_000),
                        now,
                    );
                    return;
                }
            }
        }
        if self.slots[shard].restart_at.is_some_and(|t| now >= t) {
            self.rebuild_shard(shard, now);
        }
    }

    /// Watchdog pass over every shard (harvest dead, abandon stalled,
    /// fire due restarts). Runs opportunistically at every control
    /// fan-out, flush, and status read, plus round-robin from the packet
    /// path — there is no background thread.
    pub fn poll_shard_health(&mut self) {
        self.check_shards(coarse_now_ns());
    }

    fn check_shards(&mut self, now: u64) {
        for s in 0..self.slots.len() {
            self.check_shard(s, now);
        }
    }

    /// Replace a quarantined shard with a fresh incarnation rebuilt from
    /// the command journal.
    fn rebuild_shard(&mut self, shard: usize, now: u64) {
        // Make sure the previous incarnation can't race the replacement.
        self.slots[shard].shared.mark_abandoned();
        if let Some(join) = self.slots[shard].join.take() {
            self.zombies.push(Zombie {
                shard,
                join,
                sent: self.slots[shard].sent,
            });
        }
        let prior = &self.slots[shard];
        let (restarts, backoff, last_fault) =
            (prior.restarts, prior.backoff, prior.last_fault.clone());
        let mut fresh = self.spawn_slot(shard);
        if fresh.gave_up {
            // Spawn failure: keep the fault record, re-arm the backoff.
            self.slots[shard] = fresh;
            self.slots[shard].restarts = restarts;
            self.note_fault(shard, "worker thread spawn failed".to_string(), now);
            return;
        }
        fresh.health = HealthState::Degraded;
        fresh.restarts = restarts + 1;
        fresh.backoff = backoff;
        if fresh.last_fault.is_none() {
            fresh.last_fault = last_fault;
        }
        self.slots[shard] = fresh;
    }

    /// Count `n` shed packets at the dispatcher (the packets are dropped
    /// here, so the dispatcher also counts them received — the merged
    /// `received == forwarded + dropped + in-flight` invariant holds).
    fn shed_n(&mut self, shard: usize, reason: DropReason, n: u64) {
        self.local_metrics.received += n;
        self.local_metrics.drops[drop_reason_index(reason)] += n;
        match reason {
            DropReason::ShardOverload => self.slots[shard].shed_overload += n,
            _ => self.slots[shard].shed_down += n,
        }
    }

    /// Put one message — packets or control — on shard `s`'s FIFO; the
    /// one send loop of the plane. A full FIFO back-pressures
    /// for at most `patience_ns` ([`ParallelRouterConfig::overload_wait`]
    /// for packets; twice the stall timeout for control, which takes its
    /// FIFO place behind packets but must never wedge the dispatcher
    /// behind a stalled worker), with a watchdog look on every retry.
    /// Returns false when the shard was not serving, died, or stayed full
    /// past `patience_ns`; the `packets` the message carried are then
    /// recycled and counted shed ([`DropReason::ShardDown`] /
    /// [`DropReason::ShardOverload`]).
    fn send(&mut self, s: usize, mut msg: ShardMsg, packets: u64, patience_ns: u64) -> bool {
        if !self.slots[s].serving() {
            // A due restart can bring it back right now.
            self.check_shard(s, coarse_now_ns());
        }
        let mut deadline: Option<u64> = None;
        let reason = loop {
            if !self.slots[s].serving() {
                break DropReason::ShardDown;
            }
            match self.slots[s].tx.try_send(msg) {
                Ok(()) => {
                    self.slots[s].sent += packets;
                    self.slots[s].accepted += 1;
                    return true;
                }
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    let now = coarse_now_ns();
                    let dl = *deadline.get_or_insert(now.saturating_add(patience_ns));
                    // A persistently full FIFO may mean a wedged worker;
                    // give the watchdog a look before deciding.
                    self.check_shard(s, now);
                    if self.slots[s].serving() {
                        if now >= dl {
                            break DropReason::ShardOverload;
                        }
                        std::thread::yield_now();
                    }
                }
                Err(TrySendError::Disconnected(m)) => {
                    msg = m;
                    self.check_shard(s, coarse_now_ns());
                    break DropReason::ShardDown;
                }
            }
        };
        if let ShardMsg::Batch(mut batch) = msg {
            for pkt in batch.drain(..) {
                self.pool.recycle(pkt);
            }
            self.spare_batches.push(batch);
        }
        self.shed_n(s, reason, packets);
        false
    }

    /// Patience for control messages (see [`send`](ParallelRouter::send))
    /// and for `flush`'s settle phase.
    fn control_patience_ns(&self) -> u64 {
        self.stall_timeout_ns.saturating_add(self.stall_timeout_ns)
    }

    /// Advance the watchdog by `n` dispatched packets: one shard checked
    /// per [`WATCHDOG_STRIDE`] packets, at most once per call.
    fn watchdog(&mut self, n: u64) {
        let prev = self.watchdog_tick;
        self.watchdog_tick = prev.wrapping_add(n);
        if prev / WATCHDOG_STRIDE != self.watchdog_tick / WATCHDOG_STRIDE && !self.slots.is_empty()
        {
            let t = ((self.watchdog_tick / WATCHDOG_STRIDE) as usize) % self.slots.len();
            self.check_shard(t, coarse_now_ns());
        }
    }

    // ---- data path ------------------------------------------------

    /// Dispatch one ingress packet to its flow's shard — a one-packet
    /// [`receive_batch`](ParallelRouter::receive_batch) on a recycled
    /// carrier. Returns the shard index. A full FIFO back-pressures for
    /// at most [`ParallelRouterConfig::overload_wait`], then the packet
    /// is shed as a counted [`DropReason::ShardOverload`]; a dead,
    /// stalled, or quarantined shard sheds immediately as
    /// [`DropReason::ShardDown`].
    pub fn receive(&mut self, mbuf: Mbuf) -> usize {
        let s = self.shard_of(&mbuf);
        self.watchdog(1);
        let mut carrier = self.batch_carrier();
        carrier.push(mbuf);
        self.dispatch_batch(s, carrier);
        s
    }

    /// Dispatch a whole batch of ingress packets, grouping them by their
    /// flows' shards and sending **one** [`ShardMsg::Batch`] per shard
    /// touched — the ring push (and, on the worker side, the egress
    /// drain) is amortized over the batch while per-flow order is
    /// untouched (grouping is a stable partition and a flow maps to
    /// exactly one shard). Overload and health semantics per shard group
    /// match [`receive`](ParallelRouter::receive), with every packet of
    /// a failed group counted shed. Consumes the carrier `Vec`; get a
    /// recycled one from [`batch_carrier`](ParallelRouter::batch_carrier)
    /// to keep the steady state allocation-free. Returns the number of
    /// packets handed to shards (the rest were shed).
    pub fn receive_batch(&mut self, mut pkts: Vec<Mbuf>) -> usize {
        if pkts.is_empty() {
            self.spare_batches.push(pkts);
            return 0;
        }
        self.watchdog(pkts.len() as u64);
        self.reclaim_scrap();
        let n = self.slots.len();
        if n == 1 {
            // Single shard: the input carrier is already the batch.
            return self.dispatch_batch(0, pkts);
        }
        for pkt in pkts.drain(..) {
            let s = shard_for_packet(&pkt, n);
            self.group_scratch[s].push(pkt);
        }
        self.spare_batches.push(pkts);
        let mut accepted = 0;
        for s in 0..n {
            if self.group_scratch[s].is_empty() {
                continue;
            }
            let spare = self.spare_batches.pop().unwrap_or_default();
            let group = std::mem::replace(&mut self.group_scratch[s], spare);
            accepted += self.dispatch_batch(s, group);
        }
        accepted
    }

    /// Send one shard's (non-empty) batch. Returns the packets accepted;
    /// a failed batch is recycled and every packet in it is counted shed.
    fn dispatch_batch(&mut self, s: usize, batch: Vec<Mbuf>) -> usize {
        let len = batch.len();
        if self.send(s, ShardMsg::Batch(batch), len as u64, self.overload_wait_ns) {
            len
        } else {
            0
        }
    }

    /// Pull emptied carriers the shards have returned into the spare
    /// stack.
    fn reclaim_scrap(&mut self) {
        self.spare_batches.extend(self.scrap_rx.try_iter());
    }

    /// A carrier `Vec` for the next [`receive_batch`](Self::receive_batch) — recycled from a
    /// previously dispatched batch when one has come back, fresh
    /// otherwise.
    pub fn batch_carrier(&mut self) -> Vec<Mbuf> {
        self.reclaim_scrap();
        self.spare_batches.pop().unwrap_or_default()
    }

    /// Build an ingress mbuf backed by a buffer from the dispatcher's
    /// pool (the parallel-plane counterpart of [`Router::mbuf_with`]).
    /// No ingress stamp, as there: the I/O plane stamps each received
    /// batch with its own single clock reading.
    pub fn mbuf_with(&mut self, bytes: &[u8], rx_if: IfIndex) -> Mbuf {
        self.pool.mbuf_from(bytes, rx_if)
    }

    /// Return a finished packet's backing buffer to the dispatcher pool
    /// (drivers call this after transmitting what `take_tx` returned).
    pub fn recycle_mbuf(&mut self, mbuf: Mbuf) {
        self.pool.recycle(mbuf);
    }

    /// The dispatcher pool's counters (shard routers' pools are reported
    /// through the merged metrics instead).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Quiesce: block until every *live* shard has fully processed
    /// everything sent before this call, then settle any fault window
    /// the flush uncovered, then drain the egress collector. A shard
    /// that dies or stalls mid-flush is quarantined by the watchdog and
    /// skipped instead of blocking the control plane forever.
    ///
    /// "Fully processed" is read off each shard's completion cursor: a
    /// shard that has caught up with the messages its FIFO accepted costs
    /// one `Acquire` load (no message, no wake, no allocation), and since
    /// it sent each message's egress carriers before moving the cursor,
    /// they are on the collector. While a cursor lags the dispatcher
    /// parks on the doorbell the shards ring, in `WAIT_SLICE` slices
    /// with a watchdog look at the laggards between them.
    ///
    /// The settle phase makes `flush()` followed by
    /// [`stats`](ParallelRouter::stats) a conserving read: a worker that
    /// died during the window is harvested (its final accounting
    /// absorbed into the dispatcher totals) and a due restart completes
    /// before this returns. The wait is bounded by twice the stall
    /// timeout — a thread still wedged inside a plugin cannot be joined,
    /// and its counters stay deferred until it finally exits.
    pub fn flush(&mut self) {
        self.poll_shard_health();
        while self.slots.iter().any(ShardSlot::lagging) {
            let slots = &self.slots;
            self.flush_bell
                .park(|| !slots.iter().any(ShardSlot::lagging), WAIT_SLICE);
            // Keep waiting for live shards (they may simply have deep
            // FIFOs); the ones the watchdog takes out stop lagging.
            let now = coarse_now_ns();
            for s in 0..self.slots.len() {
                if self.slots[s].lagging() {
                    self.check_shard(s, now);
                }
            }
        }
        let mut now = coarse_now_ns();
        let deadline = now.saturating_add(self.control_patience_ns());
        loop {
            self.check_shards(now);
            let unresolved = !self.zombies.is_empty()
                || self.slots.iter().any(|s| {
                    s.restart_at.is_some() || s.join.as_ref().is_some_and(|j| j.is_finished())
                });
            if !unresolved || now >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
            now = coarse_now_ns();
        }
        self.drain_egress();
    }

    /// Move everything on the shared egress collector into the
    /// per-interface buckets. Carriers are appended whole and handed back
    /// to the shards for reuse.
    fn drain_egress(&mut self) {
        while let Ok((iface, mut carrier)) = self.egress_batch_rx.try_recv() {
            if let Some(bucket) = self.pending.get_mut(iface as usize) {
                bucket.append(&mut carrier);
            }
            carrier.clear();
            let _ = self.egress_scrap_tx.send(carrier);
        }
    }

    /// Take the packets transmitted on `iface` since the last call.
    /// Call [`flush`](ParallelRouter::flush) first for a complete view of
    /// in-flight traffic.
    pub fn take_tx(&mut self, iface: IfIndex) -> Vec<Mbuf> {
        self.drain_egress();
        match self.pending.get_mut(iface as usize) {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Drain `iface`'s transmitted packets into `out`, preserving both
    /// the pending bucket's and `out`'s allocated capacity — the
    /// zero-allocation counterpart of [`take_tx`](ParallelRouter::take_tx)
    /// (mirrors [`Router::take_tx_into`]).
    pub fn take_tx_into(&mut self, iface: IfIndex, out: &mut Vec<Mbuf>) {
        self.drain_egress();
        if let Some(v) = self.pending.get_mut(iface as usize) {
            out.append(v);
        }
    }

    /// The dispatcher's buffer pool, for device drivers that acquire and
    /// recycle backing buffers directly (mirrors [`Router::pool_mut`]).
    pub fn pool_mut(&mut self) -> &mut rp_packet::pool::MbufPool {
        &mut self.pool
    }

    /// Account `n` frames a device's receive side dropped before they
    /// became IP packets. Counted dispatcher-side exactly like an
    /// overload shed (`shed_n`): received and
    /// dropped in the same breath, so the merged
    /// `received == forwarded + Σdrops` invariant extends to the wire.
    pub fn note_device_rx_drops(&mut self, n: u64) {
        self.local_metrics.received += n;
        self.local_metrics.drops[drop_reason_index(DropReason::DeviceRx)] += n;
    }

    /// Re-account `n` already-forwarded packets whose egress device
    /// refused to transmit them: they land in the device-tx drop slot,
    /// which the [`stats`](ParallelRouter::stats) view takes back out of
    /// the merged `forwarded`.
    pub fn note_device_tx_drops(&mut self, n: u64) {
        self.local_metrics.drops[drop_reason_index(DropReason::DeviceTx)] += n;
    }

    // ---- control fan-out ------------------------------------------

    /// Run `f` on every serving shard (on the shard's own thread, in
    /// FIFO order with that shard's packets) and collect per-shard
    /// answers. Replies are awaited with a watchdog-supervised timeout:
    /// a shard that dies or stalls mid-command yields `Down` /
    /// `Unresponsive` instead of wedging the control plane.
    fn fanout<R, F>(&mut self, f: F) -> Vec<(usize, ShardAnswer<R>)>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        // Fire due restarts first so a rebuilt shard receives this
        // command through the fan-out (it is not yet in the journal).
        self.poll_shard_health();
        let f = Arc::new(f);
        let (tx, rx) = unbounded::<(usize, R)>();
        let patience_ns = self.control_patience_ns();
        let n = self.slots.len();
        let mut answers: Vec<Option<ShardAnswer<R>>> = (0..n).map(|_| None).collect();
        let mut outstanding: Vec<usize> = Vec::new();
        for (s, answer) in answers.iter_mut().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            let cmd: ControlFn = Box::new(move |ctx: &mut ShardCtx| {
                let index = ctx.index;
                let r = f(ctx);
                let _ = tx.send((index, r));
            });
            if self.send(s, ShardMsg::Control(cmd), 0, patience_ns) {
                outstanding.push(s);
            } else {
                *answer = Some(ShardAnswer::Down);
            }
        }
        drop(tx);
        while !outstanding.is_empty() {
            match rx.recv_timeout(WAIT_SLICE) {
                Ok((i, r)) => {
                    answers[i] = Some(ShardAnswer::Ok(r));
                    outstanding.retain(|&x| x != i);
                }
                Err(RecvTimeoutError::Timeout) => {
                    let now = coarse_now_ns();
                    for s in outstanding.clone() {
                        self.check_shard(s, now);
                        if !self.slots[s].serving() {
                            answers[s] = Some(ShardAnswer::Unresponsive);
                            outstanding.retain(|&x| x != s);
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    let now = coarse_now_ns();
                    for s in outstanding.drain(..) {
                        self.check_shard(s, now);
                        answers[s] = Some(ShardAnswer::Down);
                    }
                }
            }
        }
        answers
            .into_iter()
            .enumerate()
            .map(|(i, a)| (i, a.unwrap_or(ShardAnswer::Down)))
            .collect()
    }

    /// Run `f` on every serving shard and collect the successful results
    /// in shard-index order (unresponsive shards are skipped).
    pub fn control_map<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut ShardCtx) -> R + Send + Sync + 'static,
    {
        self.fanout(f)
            .into_iter()
            .filter_map(|(_, a)| a.ok())
            .collect()
    }

    /// Advance the logical clock on every shard (paper: timeouts and
    /// idle-flow reclamation run off the router clock). Only the
    /// high-water mark is kept for shard rebuilds.
    pub fn set_time_ns(&mut self, now_ns: u64) {
        self.journal.note_time(now_ns);
        self.control_map(move |ctx| ctx.router.set_time_ns(now_ns));
    }

    /// Reclaim idle flows on every shard; returns the total reclaimed.
    /// Not journaled: the flow cache is soft state a rebuilt shard
    /// regenerates from first packets.
    pub fn expire_idle_flows(&mut self, max_idle_ns: u64) -> usize {
        self.control_map(move |ctx| ctx.router.expire_idle_flows(max_idle_ns))
            .into_iter()
            .sum()
    }

    /// Merged data-path counters: the view of the
    /// [`metrics_snapshot`](ParallelRouter::metrics_snapshot) total.
    pub fn stats(&mut self) -> DataPathStats {
        self.metrics_snapshot().data_path()
    }

    /// Merged flow-cache counters across all shards (live + retired).
    pub fn flow_stats(&mut self) -> FlowTableStats {
        self.metrics_snapshot().flows
    }

    /// Merged metrics registry across all shards (live + retired + the
    /// dispatcher's own counters): the total row of
    /// [`cp_counter_rows`](ControlPlane::cp_counter_rows).
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.cp_counter_rows().swap_remove(0).metrics
    }

    /// Per-shard work snapshots (packets, busy and CPU time) from the
    /// shards that answered.
    pub fn shard_reports(&mut self) -> Vec<ShardReport> {
        self.control_map(|ctx| ctx.report())
    }

    /// Number of interfaces (identical on every shard).
    pub fn interface_count(&self) -> usize {
        self.interfaces
    }
}

impl Drop for ParallelRouter {
    fn drop(&mut self) {
        let mut joins: Vec<JoinHandle<ShardFinal>> = Vec::new();
        for slot in &mut self.slots {
            let _ = slot.tx.try_send(ShardMsg::Shutdown);
            // In case the FIFO was full or the worker is wedged: the
            // abandoned flag plus the sender drop still end the loop at
            // its next message boundary.
            slot.shared.mark_abandoned();
            slot.tx = ShardSender::dead();
            if let Some(j) = slot.join.take() {
                joins.push(j);
            }
        }
        // Join what exits promptly; a thread still wedged in a plugin
        // after the 2 s grace period is detached rather than hanging the
        // caller forever.
        let deadline = coarse_now_ns() + 2_000_000_000;
        for j in joins {
            loop {
                if j.is_finished() {
                    let _ = j.join();
                    break;
                }
                if coarse_now_ns() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl ControlPlane for ParallelRouter {
    /// Fan the command out to every serving shard, merge the replies,
    /// then journal it — in that order: a shard rebuilt by the fan-out's
    /// own watchdog pass replays a journal that does not hold the command
    /// yet and receives it through the fan-out, never twice.
    fn cp_apply(&mut self, cmd: ControlCmd) -> Result<PluginReply, PluginError> {
        let applied = cmd.clone();
        let reply = merge_replies(self.fanout(move |ctx| applied.apply(&mut ctx.router)));
        self.journal.record(cmd);
        reply
    }
    fn cp_query<R, F>(&mut self, f: F) -> Vec<(Option<usize>, ShardAnswer<R>)>
    where
        R: Send + 'static,
        F: Fn(&Router) -> R + Send + Sync + 'static,
    {
        self.fanout(move |ctx| f(&ctx.router))
            .into_iter()
            .map(|(shard, answer)| (Some(shard), answer))
            .collect()
    }
    fn cp_local_totals(&mut self) -> MetricsSnapshot {
        let mut metrics = self.local_metrics;
        // The dispatcher's own pool traffic (shard pools arrive through
        // the per-shard snapshots).
        let p = self.pool.stats();
        metrics.mbuf_acquired += p.acquired;
        metrics.mbuf_recycled += p.recycled;
        metrics.mbuf_fresh += p.fresh;
        metrics
    }
    fn cp_shard_status(&mut self) -> Vec<ShardStatus> {
        self.poll_shard_health();
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| ShardStatus {
                shard: i,
                health: slot.health,
                restarts: slot.restarts,
                sent: slot.sent,
                processed: slot.shared.processed(),
                shed_overload: slot.shed_overload,
                shed_down: slot.shed_down,
                restart_pending: slot.restart_at.is_some(),
                last_fault: slot.last_fault.clone(),
            })
            .collect()
    }
    fn cp_shard_restart(&mut self, shard: usize) -> Result<String, PluginError> {
        if shard >= self.slots.len() {
            return Err(PluginError::BadConfig(format!("no shard {shard}")));
        }
        let now = coarse_now_ns();
        self.check_shard(shard, now);
        if self.slots[shard].join.is_some() {
            self.abandon(shard, "operator restart".to_string(), now);
        }
        // Operator intervention overrides an exhausted restart budget and
        // skips the backoff wait.
        self.slots[shard].gave_up = false;
        self.slots[shard].backoff.reset();
        self.rebuild_shard(shard, now);
        if self.slots[shard].serving() {
            Ok(format!(
                "shard {shard} restarted ({} journal commands replayed)",
                self.journal.len()
            ))
        } else {
            Err(PluginError::Busy(format!(
                "shard {shard} restart failed: {}",
                self.slots[shard]
                    .last_fault
                    .clone()
                    .unwrap_or_else(|| "unknown".to_string())
            )))
        }
    }
    fn cp_shard_kill(&mut self, shard: usize) -> Result<String, PluginError> {
        if shard >= self.slots.len() {
            return Err(PluginError::BadConfig(format!("no shard {shard}")));
        }
        if !self.slots[shard].serving() {
            return Err(PluginError::Busy(format!("shard {shard} is not serving")));
        }
        let cmd: ControlFn = Box::new(move |ctx: &mut ShardCtx| {
            panic!("injected kill (pmgr shard kill {})", ctx.index);
        });
        if self.send(shard, ShardMsg::Control(cmd), 0, self.control_patience_ns()) {
            Ok(format!("kill injected into shard {shard}"))
        } else {
            Err(PluginError::Busy(format!(
                "shard {shard} did not accept the kill"
            )))
        }
    }
}
