//! The single control plane over N data-plane shards.
//!
//! The paper's control path (pmgr → Router Plugin Library → PCU) stays
//! one logical entity: every command fans out to all shards in per-shard
//! FIFO order with the data path, and the replies are aggregated back
//! into the one answer a single-router operator would see. Because every
//! shard applies the identical command sequence, instance and filter ids
//! assigned by the per-shard PCU/AIU stay in lockstep — an id returned by
//! `create` names the same logical instance on every shard.
//!
//! [`ControlPlane`] is the trait `pmgr` drives; it is implemented by the
//! single-threaded [`Router`] (trivially) and by
//! [`ParallelRouter`](super::ParallelRouter) (fan-out + aggregation).

use crate::gate::Gate;
use crate::ip_core::DataPathStats;
use crate::message::{PluginMsg, PluginReply};
use crate::obs::{MetricsSnapshot, TraceEvent};
use crate::plugin::{InstanceId, PluginError};
use crate::router::Router;
use crate::supervisor::{HealthReport, HealthState};
use rp_packet::mbuf::IfIndex;
use std::net::IpAddr;

/// A supervision report with its origin: `None` on a single router,
/// `Some(shard)` on a parallel data plane.
#[derive(Debug, Clone)]
pub struct ShardHealthReport {
    /// Which shard the report came from (None = unsharded router).
    pub shard: Option<usize>,
    /// The instance's supervision snapshot.
    pub report: HealthReport,
}

/// One row of the `stats`, `faults`, `info` and `metrics` reports: a
/// label ("total", "shard 0", …) plus the registry snapshot behind it.
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Row label.
    pub label: String,
    /// The registry snapshot (flow-table counters in `metrics.flows`).
    pub metrics: MetricsSnapshot,
}

impl CounterRow {
    /// The row's Table 3 counters ([`crate::obs::MetricsRegistry::data_path`]).
    pub fn data(&self) -> DataPathStats {
        self.metrics.data_path()
    }
}

/// One row of the pmgr `shards` report: a shard worker's supervision
/// state as the dispatcher sees it. Built from dispatcher-side state and
/// the shared heartbeat only, so it stays readable even when the shard
/// thread itself is wedged.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Supervision state: `Healthy` (never faulted), `Degraded`
    /// (restarted at least once, serving), `Quarantined` (not serving:
    /// awaiting its restart backoff, or out of restart budget).
    pub health: HealthState,
    /// Completed restarts of this shard.
    pub restarts: u32,
    /// Packets dispatched to the current incarnation.
    pub sent: u64,
    /// Packets the current incarnation finished processing (from the
    /// shared heartbeat — readable even mid-stall). Moves once per batch: a
    /// shard killed mid-batch shows it short by that batch (loss accounting
    /// reads the worker's final report, never this).
    pub processed: u64,
    /// Packets shed at the dispatcher because this shard's FIFO stayed
    /// full past the bounded-wait budget.
    pub shed_overload: u64,
    /// Packets shed (or lost in a fault window and re-accounted) because
    /// this shard was dead, stalled, or awaiting restart.
    pub shed_down: u64,
    /// Whether a restart is scheduled and not yet due/completed.
    pub restart_pending: bool,
    /// The most recent fault, human-readable.
    pub last_fault: Option<String>,
}

/// Per-device I/O counters, maintained by each `NetDev` backend and
/// surfaced through the pmgr `devices` command. Plain data so the
/// control plane can render rows without knowing the backend type.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeviceStats {
    /// Frames read from the device (including ones dropped at decap).
    pub rx_packets: u64,
    /// Bytes read from the device (L2 frame bytes as received).
    pub rx_bytes: u64,
    /// Receive-side I/O errors (failed reads; not per-frame drops).
    pub rx_errors: u64,
    /// Frames dropped at the device's receive side before becoming IP
    /// packets (truncated / non-IP L2 frames) — the device-local view of
    /// [`DropReason::DeviceRx`](crate::ip_core::DropReason::DeviceRx).
    pub rx_dropped: u64,
    /// Packets successfully written to the device.
    pub tx_packets: u64,
    /// Bytes written to the device (after L2 framing).
    pub tx_bytes: u64,
    /// Packets lost to transmit-side I/O errors (the write itself
    /// failed) — a device-local contribution to
    /// [`DropReason::DeviceTx`](crate::ip_core::DropReason::DeviceTx).
    pub tx_errors: u64,
    /// Packets dropped after bounded backpressure retries (the device's
    /// transmit queue stayed full, e.g. `WouldBlock` on a socket buffer)
    /// — the other device-local contribution to
    /// [`DropReason::DeviceTx`](crate::ip_core::DropReason::DeviceTx),
    /// kept separate so the ledger names the real cause.
    pub tx_dropped: u64,
    /// Sizes of the receive batches the device delivered (frames per
    /// `rx_batch` call that returned at least one frame).
    pub rx_batch: crate::obs::Histogram,
    /// Sizes of the transmit batches handed to the device.
    pub tx_batch: crate::obs::Histogram,
}

impl DeviceStats {
    /// Fold another device's counters into this one (the "total" row of
    /// the `devices` report).
    pub fn absorb(&mut self, other: &DeviceStats) {
        self.rx_packets += other.rx_packets;
        self.rx_bytes += other.rx_bytes;
        self.rx_errors += other.rx_errors;
        self.rx_dropped += other.rx_dropped;
        self.tx_packets += other.tx_packets;
        self.tx_bytes += other.tx_bytes;
        self.tx_errors += other.tx_errors;
        self.tx_dropped += other.tx_dropped;
        self.rx_batch.absorb(&other.rx_batch);
        self.tx_batch.absorb(&other.tx_batch);
    }
}

/// One row of the pmgr `devices` report: a bound network device and its
/// counters.
#[derive(Debug, Clone)]
pub struct DeviceRow {
    /// Device name (backend-chosen, e.g. `udp0`, `tap0`, `pcap:replay`).
    pub name: String,
    /// The router interface the device is bound to.
    pub iface: IfIndex,
    /// The device's I/O counters.
    pub stats: DeviceStats,
    /// Supervision health — the third tier of the
    /// Healthy→Degraded→Quarantined architecture (plugins, shards,
    /// devices); `None` (rendered `unsupervised`) when the I/O plane runs
    /// without a device supervisor.
    pub health: Option<HealthState>,
    /// Times the device was quarantined.
    pub quarantines: u64,
    /// Successful quarantine→reopen cycles.
    pub reopens: u64,
}

/// A trace event with its origin: `None` on a single router, `Some(shard)`
/// on a parallel data plane.
#[derive(Debug, Clone)]
pub struct ShardTraceEvent {
    /// Which shard recorded the event (None = unsharded router).
    pub shard: Option<usize>,
    /// The event.
    pub event: TraceEvent,
}

/// One state-mutating control command, shard-agnostic: the value `pmgr`
/// issues, the shard fan-out carries, and the [`CommandJournal`] records
/// and replays. A new command is one variant here, one arm in
/// [`ControlCmd::apply`] and one provided `cp_*` method on
/// [`ControlPlane`] — nothing else.
///
/// [`CommandJournal`]: super::CommandJournal
#[derive(Debug, Clone)]
pub enum ControlCmd {
    /// `modload` — plugin registration with the loader.
    LoadPlugin(String),
    /// `modunload`.
    UnloadPlugin(String),
    /// Forced `modunload` (frees live instances and bindings first).
    ForceUnloadPlugin(String),
    /// Any plugin message: instance create/free, filter (de)registration,
    /// bindings, custom messages. These are the id-allocating commands.
    Message {
        /// Target plugin name.
        plugin: String,
        /// The message (cloned per shard on fan-out and on replay).
        msg: PluginMsg,
    },
    /// Core routing table insert.
    AddRoute {
        /// Destination network.
        addr: IpAddr,
        /// Prefix length.
        prefix_len: u8,
        /// Egress interface.
        tx_if: IfIndex,
    },
    /// Core routing table removal.
    RemoveRoute {
        /// Destination network.
        addr: IpAddr,
        /// Prefix length.
        prefix_len: u8,
    },
    /// FIB compile ([`Router::optimize_routes`]). Journaled so a rebuilt
    /// shard forwards from the compiled table like its siblings, and in
    /// sequence so it costs one trie walk, not a repaint per later route.
    OptimizeRoutes,
    /// Gate enable/disable.
    SetGateEnabled {
        /// The gate.
        gate: Gate,
        /// New state.
        enabled: bool,
    },
    /// Default egress scheduler attachment.
    SetDefaultScheduler {
        /// Interface.
        iface: IfIndex,
        /// Scheduler plugin name.
        plugin: String,
        /// Scheduler instance id.
        id: InstanceId,
    },
    /// Interface address assignment.
    SetInterfaceAddr {
        /// Interface.
        iface: IfIndex,
        /// Address.
        addr: IpAddr,
    },
    /// Tracer on/off (all categories).
    TraceEnable(bool),
}

impl ControlCmd {
    /// Run the command against one router. The single place a command
    /// meets a [`Router`]: the unsharded control plane, every shard of a
    /// fan-out and journal replay all come through here, so they cannot
    /// disagree about what a command does.
    pub fn apply(&self, router: &mut Router) -> Result<PluginReply, PluginError> {
        match self {
            ControlCmd::LoadPlugin(name) => router.load_plugin(name)?,
            ControlCmd::UnloadPlugin(name) => router.unload_plugin(name)?,
            ControlCmd::ForceUnloadPlugin(name) => router.force_unload_plugin(name)?,
            ControlCmd::Message { plugin, msg } => {
                return router.send_message(plugin, msg.clone());
            }
            ControlCmd::AddRoute {
                addr,
                prefix_len,
                tx_if,
            } => router.add_route(*addr, *prefix_len, *tx_if),
            ControlCmd::RemoveRoute { addr, prefix_len } => {
                if !router.remove_route(*addr, *prefix_len) {
                    return Err(PluginError::BadConfig(format!(
                        "no route {addr}/{prefix_len}"
                    )));
                }
            }
            ControlCmd::OptimizeRoutes => router.optimize_routes(),
            ControlCmd::SetGateEnabled { gate, enabled } => {
                router.set_gate_enabled(*gate, *enabled)
            }
            ControlCmd::SetDefaultScheduler { iface, plugin, id } => {
                router.set_default_scheduler(*iface, plugin, *id)?
            }
            ControlCmd::SetInterfaceAddr { iface, addr } => {
                router.set_interface_addr(*iface, *addr)
            }
            ControlCmd::TraceEnable(on) => router.tracer_mut().set_enabled(*on),
        }
        Ok(PluginReply::Done)
    }
}

/// The control-plane surface `pmgr` (and the daemons) drive, identical
/// over every data-plane shape. An implementation supplies three things:
/// how a [`ControlCmd`] reaches its router(s), how a read-only question
/// does, and what it counts itself. Everything `pmgr` calls is a
/// one-line provided method over those.
pub trait ControlPlane {
    /// Apply one state-mutating command to every router of the plane and
    /// return the single merged reply.
    fn cp_apply(&mut self, cmd: ControlCmd) -> Result<PluginReply, PluginError>;
    /// Ask every router of the plane a read-only question. One answer per
    /// router, labelled `None` on a single router and `Some(shard)` on a
    /// parallel plane, in shard order; a shard that could not answer is
    /// there as [`ShardAnswer::Down`] / [`ShardAnswer::Unresponsive`].
    fn cp_query<R, F>(&mut self, f: F) -> Vec<(Option<usize>, ShardAnswer<R>)>
    where
        R: Send + 'static,
        F: Fn(&Router) -> R + Send + Sync + 'static;
    /// What the plane counts outside its routers: the parallel
    /// dispatcher's sheds, device drops, its own mbuf pool and the
    /// absorbed history of exited shard incarnations. Empty on a single
    /// router. The "total" row is this plus every router's snapshot.
    fn cp_local_totals(&mut self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// `modload <name>`.
    fn cp_load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.cp_apply(ControlCmd::LoadPlugin(name.to_string()))
            .map(drop)
    }
    /// `modunload <name>`.
    fn cp_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.cp_apply(ControlCmd::UnloadPlugin(name.to_string()))
            .map(drop)
    }
    /// Forced `modunload`: free live instances and their bindings first.
    fn cp_force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.cp_apply(ControlCmd::ForceUnloadPlugin(name.to_string()))
            .map(drop)
    }
    /// Standardized / plugin-specific message dispatch.
    fn cp_send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        let plugin = plugin.to_string();
        self.cp_apply(ControlCmd::Message { plugin, msg })
    }
    /// Add a core route.
    fn cp_add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        let _ = self.cp_apply(ControlCmd::AddRoute {
            addr,
            prefix_len,
            tx_if,
        });
    }
    /// Remove a core route; false when there was none.
    fn cp_remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        self.cp_apply(ControlCmd::RemoveRoute { addr, prefix_len })
            .is_ok()
    }
    /// Compile the IPv4 routes into the direct-index FIB (on every shard);
    /// call after bulk route loading.
    fn cp_optimize_routes(&mut self) {
        let _ = self.cp_apply(ControlCmd::OptimizeRoutes);
    }
    /// Enable/disable a gate.
    fn cp_set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        let _ = self.cp_apply(ControlCmd::SetGateEnabled { gate, enabled });
    }
    /// Attach a default egress scheduler to an interface.
    fn cp_set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        let plugin = plugin.to_string();
        self.cp_apply(ControlCmd::SetDefaultScheduler { iface, plugin, id })
            .map(drop)
    }
    /// Assign the router's own address on an interface.
    fn cp_set_interface_addr(&mut self, iface: IfIndex, addr: IpAddr) {
        let _ = self.cp_apply(ControlCmd::SetInterfaceAddr { iface, addr });
    }
    /// Turn the event tracer on or off (all categories) without stopping
    /// the data path.
    fn cp_trace_enable(&mut self, on: bool) {
        let _ = self.cp_apply(ControlCmd::TraceEnable(on));
    }

    /// Installed filters at a gate, human-readable. Filter tables are in
    /// lockstep across shards; any answering shard's view is the logical
    /// router's view.
    fn cp_describe_filters(&mut self, gate: Gate) -> Vec<String> {
        first_answer(self.cp_query(move |r| r.describe_filters(gate)))
    }
    /// Live instances, human-readable.
    fn cp_describe_instances(&mut self) -> Vec<String> {
        first_answer(self.cp_query(|r| r.describe_instances()))
    }
    /// Loaded plugin names.
    fn cp_loaded_plugins(&mut self) -> Vec<String> {
        first_answer(self.cp_query(|r| r.loader.loaded()))
    }
    /// Supervision state, labelled by shard where applicable.
    fn cp_health_reports(&mut self) -> Vec<ShardHealthReport> {
        each_answer(self.cp_query(|r| r.health_reports()))
            .map(|(shard, report)| ShardHealthReport { shard, report })
            .collect()
    }
    /// The last `n` trace events (per shard on a parallel data plane),
    /// labelled by origin, oldest first within each origin.
    fn cp_trace_dump(&mut self, n: usize) -> Vec<ShardTraceEvent> {
        each_answer(self.cp_query(move |r| r.tracer().dump(n)))
            .map(|(shard, event)| ShardTraceEvent { shard, event })
            .collect()
    }
    /// Counter rows: the merged total first, then one row per shard (a
    /// shard that could not answer keeps its row, labelled so, with zero
    /// counters). The one fan-out behind `stats`, `faults`, `info` and
    /// `metrics`, and the one merge: [`MetricsRegistry::absorb`].
    ///
    /// [`MetricsRegistry::absorb`]: crate::obs::MetricsRegistry::absorb
    fn cp_counter_rows(&mut self) -> Vec<CounterRow> {
        let mut total = CounterRow {
            label: "total".to_string(),
            metrics: self.cp_local_totals(),
        };
        let mut rows = Vec::new();
        for (shard, answer) in self.cp_query(|r| r.metrics_snapshot()) {
            let label = shard.map(|i| row_label(i, &answer));
            let metrics = answer.ok().unwrap_or_default();
            total.metrics.absorb(&metrics);
            rows.extend(label.map(|label| CounterRow { label, metrics }));
        }
        rows.insert(0, total);
        rows
    }

    /// Per-shard supervision state (`pmgr shards`). Empty on a single
    /// (unsharded) router. Reading status is also the watchdog's
    /// opportunity to harvest dead shards and fire due restarts.
    fn cp_shard_status(&mut self) -> Vec<ShardStatus> {
        Vec::new()
    }
    /// Operator-forced restart of one shard (`pmgr shard restart <i>`):
    /// quarantine the current incarnation immediately and rebuild it from
    /// the command journal, skipping the backoff wait.
    fn cp_shard_restart(&mut self, _shard: usize) -> Result<String, PluginError> {
        Err(PluginError::Busy("no data-plane shards".to_string()))
    }
    /// Deterministic fault injection (`pmgr shard kill <i>`): panic the
    /// shard's worker thread at its next message, exercising the whole
    /// containment → quarantine → journal-rebuild path.
    fn cp_shard_kill(&mut self, _shard: usize) -> Result<String, PluginError> {
        Err(PluginError::Busy("no data-plane shards".to_string()))
    }
    /// Bound network devices (`pmgr devices`): one row per device, in
    /// binding order. Empty unless the plane runs under an `IoPlane`
    /// (the bare routers have no devices).
    fn cp_device_rows(&mut self) -> Vec<DeviceRow> {
        Vec::new()
    }
}

/// The answer to a question about lockstep state: the first router that
/// gave one speaks for all.
fn first_answer<R: Default>(answers: Vec<(Option<usize>, ShardAnswer<R>)>) -> R {
    answers
        .into_iter()
        .find_map(|(_, a)| a.ok())
        .unwrap_or_default()
}

/// Flatten per-router lists into one, each item labelled by its origin.
fn each_answer<T>(
    answers: Vec<(Option<usize>, ShardAnswer<Vec<T>>)>,
) -> impl Iterator<Item = (Option<usize>, T)> {
    answers.into_iter().flat_map(|(shard, a)| {
        a.ok()
            .unwrap_or_default()
            .into_iter()
            .map(move |t| (shard, t))
    })
}

/// `shard 2`, or `shard 2 (down)` for a shard that gave no answer.
fn row_label<R>(shard: usize, answer: &ShardAnswer<R>) -> String {
    match answer {
        ShardAnswer::Ok(_) => format!("shard {shard}"),
        missing => format!("shard {shard} ({})", missing.label()),
    }
}

impl ControlPlane for Router {
    fn cp_apply(&mut self, cmd: ControlCmd) -> Result<PluginReply, PluginError> {
        cmd.apply(self)
    }
    fn cp_query<R, F>(&mut self, f: F) -> Vec<(Option<usize>, ShardAnswer<R>)>
    where
        F: Fn(&Router) -> R,
    {
        vec![(None, ShardAnswer::Ok(f(self)))]
    }
}

/// One shard's answer to a control fan-out. `Down` and `Unresponsive`
/// are the partial-reply cases: the command could not be delivered
/// (shard dead/quarantined) or its reply never came back within the
/// fan-out timeout (shard wedged mid-message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardAnswer<R> {
    /// The shard ran the command and replied.
    Ok(R),
    /// The shard was not serving — the command was never delivered. The
    /// journal rebuild replays it when the shard returns.
    Down,
    /// Delivered but no reply within the timeout (stalled shard).
    Unresponsive,
}

impl<R> ShardAnswer<R> {
    /// The reply, if there was one.
    pub fn ok(self) -> Option<R> {
        match self {
            ShardAnswer::Ok(r) => Some(r),
            _ => None,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            ShardAnswer::Ok(_) => "ok",
            ShardAnswer::Down => "down",
            ShardAnswer::Unresponsive => "unresponsive",
        }
    }
}

/// Aggregate per-shard replies into the single reply the operator sees.
/// The first failure on a *responsive* shard is the reported one;
/// down/unresponsive shards don't veto — the command is in the journal and
/// the rebuild replays it — but an all-missing fan-out is an error.
///
/// Shards execute identical command sequences, so structured replies
/// (instance ids, filter ids, `Done`) are expected to agree — any
/// divergence is surfaced as an error rather than silently picking one
/// shard's answer.
/// Plugin-specific `Text` replies may legitimately differ per shard
/// (e.g. per-shard packet counters); those are joined with a shard label
/// per line, and shards that could not answer contribute a
/// `[shard i] unresponsive` / `[shard i] down` row instead of wedging
/// the whole reply.
pub(crate) fn merge_replies(
    answers: Vec<(usize, ShardAnswer<Result<PluginReply, PluginError>>)>,
) -> Result<PluginReply, PluginError> {
    let mut oks: Vec<(usize, PluginReply)> = Vec::with_capacity(answers.len());
    let mut missing: Vec<(usize, &'static str)> = Vec::new();
    for (i, a) in answers {
        match a {
            ShardAnswer::Ok(r) => oks.push((i, r?)),
            other => missing.push((i, other.label())),
        }
    }
    let Some((_, first)) = oks.first().cloned() else {
        return Err(PluginError::Busy(
            "no responsive data-plane shards".to_string(),
        ));
    };
    let all_equal = oks.iter().all(|(_, r)| *r == first);
    if all_equal && missing.is_empty() {
        return Ok(first);
    }
    if oks.iter().all(|(_, r)| matches!(r, PluginReply::Text(_))) {
        let mut rows: Vec<(usize, String)> = oks
            .iter()
            .map(|(i, r)| match r {
                PluginReply::Text(t) => (*i, format!("[shard {i}] {t}")),
                _ => unreachable!("checked all-Text above"),
            })
            .collect();
        rows.extend(
            missing
                .iter()
                .map(|(i, why)| (*i, format!("[shard {i}] {why}"))),
        );
        rows.sort_by_key(|(i, _)| *i);
        let joined = rows
            .into_iter()
            .map(|(_, row)| row)
            .collect::<Vec<_>>()
            .join("\n");
        return Ok(PluginReply::Text(joined));
    }
    if all_equal {
        // Structured replies agree on every responsive shard; the missing
        // shards will be rebuilt from the journal to the same answer.
        return Ok(first);
    }
    Err(PluginError::Busy(format!(
        "control fan-out diverged across shards: {oks:?}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok<R>(i: usize, r: R) -> (usize, ShardAnswer<Result<R, PluginError>>) {
        (i, ShardAnswer::Ok(Ok(r)))
    }

    #[test]
    fn unit_first_error_wins() {
        let done = PluginReply::Done;
        assert_eq!(
            merge_replies(vec![ok(0, done.clone()), ok(1, done.clone())]),
            Ok(done.clone())
        );
        let e = merge_replies(vec![
            ok(0, done),
            (1, ShardAnswer::Ok(Err(PluginError::Busy("x".into())))),
            (2, ShardAnswer::Ok(Err(PluginError::Busy("y".into())))),
        ])
        .unwrap_err();
        assert_eq!(e, PluginError::Busy("x".into()));
    }

    #[test]
    fn unit_missing_shards_do_not_veto() {
        let done = PluginReply::Done;
        assert_eq!(
            merge_replies(vec![ok(0, done.clone()), (1, ShardAnswer::Down)]),
            Ok(done)
        );
        assert!(
            merge_replies(vec![(0, ShardAnswer::Down), (1, ShardAnswer::Unresponsive)]).is_err()
        );
    }

    #[test]
    fn equal_replies_collapse() {
        let r = merge_replies(vec![
            ok(0, PluginReply::InstanceCreated(InstanceId(3))),
            ok(1, PluginReply::InstanceCreated(InstanceId(3))),
        ])
        .unwrap();
        assert_eq!(r, PluginReply::InstanceCreated(InstanceId(3)));
    }

    #[test]
    fn equal_replies_collapse_past_a_down_shard() {
        let r = merge_replies(vec![
            ok(0, PluginReply::InstanceCreated(InstanceId(3))),
            (1, ShardAnswer::Down),
            ok(2, PluginReply::InstanceCreated(InstanceId(3))),
        ])
        .unwrap();
        assert_eq!(r, PluginReply::InstanceCreated(InstanceId(3)));
    }

    #[test]
    fn divergent_texts_join_with_shard_labels() {
        let r = merge_replies(vec![
            ok(0, PluginReply::Text("pkts=1".into())),
            ok(1, PluginReply::Text("pkts=2".into())),
        ])
        .unwrap();
        assert_eq!(
            r,
            PluginReply::Text("[shard 0] pkts=1\n[shard 1] pkts=2".into())
        );
    }

    #[test]
    fn unresponsive_shard_becomes_a_labelled_row() {
        let r = merge_replies(vec![
            ok(0, PluginReply::Text("pkts=1".into())),
            (1, ShardAnswer::Unresponsive),
            (2, ShardAnswer::Down),
        ])
        .unwrap();
        assert_eq!(
            r,
            PluginReply::Text("[shard 0] pkts=1\n[shard 1] unresponsive\n[shard 2] down".into())
        );
    }

    #[test]
    fn divergent_ids_are_an_error() {
        let r = merge_replies(vec![
            ok(0, PluginReply::InstanceCreated(InstanceId(1))),
            ok(1, PluginReply::InstanceCreated(InstanceId(2))),
        ]);
        assert!(matches!(r, Err(PluginError::Busy(_))));
    }

    #[test]
    fn empty_shard_set_is_an_error() {
        assert!(merge_replies(vec![]).is_err());
    }
}
