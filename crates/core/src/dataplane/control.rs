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
//! single-threaded [`Router`](crate::router::Router) (trivially) and by
//! [`ParallelRouter`](super::ParallelRouter) (fan-out + aggregation).

use crate::gate::Gate;
use crate::ip_core::DataPathStats;
use crate::message::{PluginMsg, PluginReply};
use crate::obs::{MetricsSnapshot, TraceEvent};
use crate::plugin::{InstanceId, PluginError};
use crate::router::Router;
use crate::supervisor::{HealthReport, HealthState};
use rp_classifier::flow_table::FlowTableStats;
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

/// One row of a `stats` report: a label ("total", "shard 0", …) plus the
/// data-path and flow-cache counters behind it.
#[derive(Debug, Clone)]
pub struct StatsRow {
    /// Row label.
    pub label: String,
    /// Data-path counters.
    pub data: DataPathStats,
    /// Flow-cache counters.
    pub flows: FlowTableStats,
}

/// One row of a `metrics` report: a label ("total", "shard 0", …) plus
/// the metrics snapshot behind it.
#[derive(Debug, Clone)]
pub struct MetricsRow {
    /// Row label.
    pub label: String,
    /// The registry snapshot.
    pub metrics: MetricsSnapshot,
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
    /// shared heartbeat — readable even mid-stall).
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

/// Supervision state of a bound network device — the third tier of the
/// Healthy→Degraded→Quarantined architecture (plugins, shards, devices).
/// Lives here so the control plane can render it without knowing the
/// supervising I/O plane's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceHealth {
    /// The I/O plane runs without device supervision (the default).
    #[default]
    Unsupervised,
    /// Serving, no concerning error/stall pattern.
    Healthy,
    /// Serving, but its error window or rx-stall streak crossed the
    /// degradation threshold (or it is on post-reopen probation).
    Degraded,
    /// Taken off the wire: ingress skipped, egress counted as device-tx
    /// drops, awaiting a `reopen()` attempt under capped backoff.
    Quarantined,
}

impl std::fmt::Display for DeviceHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DeviceHealth::Unsupervised => "unsupervised",
            DeviceHealth::Healthy => "healthy",
            DeviceHealth::Degraded => "degraded",
            DeviceHealth::Quarantined => "quarantined",
        })
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
    /// Supervision health ([`DeviceHealth::Unsupervised`] when the I/O
    /// plane runs without a device supervisor).
    pub health: DeviceHealth,
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

/// The control-plane surface `pmgr` (and the daemons) drive. One
/// implementation per data-plane shape; the command language is identical
/// over both.
pub trait ControlPlane {
    /// `modload <name>`.
    fn cp_load_plugin(&mut self, name: &str) -> Result<(), PluginError>;
    /// `modunload <name>`.
    fn cp_unload_plugin(&mut self, name: &str) -> Result<(), PluginError>;
    /// Forced `modunload`: free live instances and their bindings first.
    fn cp_force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError>;
    /// Standardized / plugin-specific message dispatch.
    fn cp_send_message(&mut self, plugin: &str, msg: PluginMsg)
        -> Result<PluginReply, PluginError>;
    /// Add a core route.
    fn cp_add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex);
    /// Remove a core route.
    fn cp_remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool;
    /// Compile the IPv4 routes into the direct-index FIB (on every shard);
    /// call after bulk route loading.
    fn cp_optimize_routes(&mut self);
    /// Enable/disable a gate.
    fn cp_set_gate_enabled(&mut self, gate: Gate, enabled: bool);
    /// Attach a default egress scheduler to an interface.
    fn cp_set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError>;
    /// Installed filters at a gate, human-readable.
    fn cp_describe_filters(&self, gate: Gate) -> Vec<String>;
    /// Live instances, human-readable.
    fn cp_describe_instances(&self) -> Vec<String>;
    /// Supervision state, labelled by shard where applicable.
    fn cp_health_reports(&self) -> Vec<ShardHealthReport>;
    /// Loaded plugin names.
    fn cp_loaded_plugins(&self) -> Vec<String>;
    /// Statistics rows: the merged total first, then any per-shard
    /// breakdown.
    fn cp_stats_rows(&self) -> Vec<StatsRow>;
    /// Metrics rows: the merged registry snapshot first, then any
    /// per-shard breakdown.
    fn cp_metrics_rows(&self) -> Vec<MetricsRow>;
    /// Turn the event tracer on or off (all categories) without stopping
    /// the data path.
    fn cp_trace_enable(&mut self, on: bool);
    /// The last `n` trace events (per shard on a parallel data plane),
    /// labelled by origin, oldest first within each origin.
    fn cp_trace_dump(&self, n: usize) -> Vec<ShardTraceEvent>;
    /// Per-shard supervision state (`pmgr shards`). Empty on a single
    /// (unsharded) router. Takes `&mut self` because reading status is
    /// also the watchdog's opportunity to harvest dead shards and fire
    /// due restarts.
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
    fn cp_device_rows(&self) -> Vec<DeviceRow> {
        Vec::new()
    }
}

impl ControlPlane for Router {
    fn cp_load_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.load_plugin(name)
    }
    fn cp_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.unload_plugin(name)
    }
    fn cp_force_unload_plugin(&mut self, name: &str) -> Result<(), PluginError> {
        self.force_unload_plugin(name)
    }
    fn cp_send_message(
        &mut self,
        plugin: &str,
        msg: PluginMsg,
    ) -> Result<PluginReply, PluginError> {
        self.send_message(plugin, msg)
    }
    fn cp_add_route(&mut self, addr: IpAddr, prefix_len: u8, tx_if: IfIndex) {
        self.add_route(addr, prefix_len, tx_if)
    }
    fn cp_remove_route(&mut self, addr: IpAddr, prefix_len: u8) -> bool {
        self.remove_route(addr, prefix_len)
    }
    fn cp_optimize_routes(&mut self) {
        self.optimize_routes()
    }
    fn cp_set_gate_enabled(&mut self, gate: Gate, enabled: bool) {
        self.set_gate_enabled(gate, enabled)
    }
    fn cp_set_default_scheduler(
        &mut self,
        iface: IfIndex,
        plugin: &str,
        id: InstanceId,
    ) -> Result<(), PluginError> {
        self.set_default_scheduler(iface, plugin, id)
    }
    fn cp_describe_filters(&self, gate: Gate) -> Vec<String> {
        self.describe_filters(gate)
    }
    fn cp_describe_instances(&self) -> Vec<String> {
        self.describe_instances()
    }
    fn cp_health_reports(&self) -> Vec<ShardHealthReport> {
        self.health_reports()
            .into_iter()
            .map(|report| ShardHealthReport {
                shard: None,
                report,
            })
            .collect()
    }
    fn cp_loaded_plugins(&self) -> Vec<String> {
        self.loader.loaded()
    }
    fn cp_stats_rows(&self) -> Vec<StatsRow> {
        vec![StatsRow {
            label: "total".to_string(),
            data: self.stats(),
            flows: self.flow_stats(),
        }]
    }
    fn cp_metrics_rows(&self) -> Vec<MetricsRow> {
        vec![MetricsRow {
            label: "total".to_string(),
            metrics: self.metrics_snapshot(),
        }]
    }
    fn cp_trace_enable(&mut self, on: bool) {
        self.tracer_mut().set_enabled(on);
    }
    fn cp_trace_dump(&self, n: usize) -> Vec<ShardTraceEvent> {
        self.tracer()
            .dump(n)
            .into_iter()
            .map(|event| ShardTraceEvent { shard: None, event })
            .collect()
    }
}

/// One shard's answer to a control fan-out, by shard index. `Down` and
/// `Unresponsive` are the partial-reply cases: the command could not be
/// delivered (shard dead/quarantined) or its reply never came back
/// within the fan-out timeout (shard wedged mid-message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ShardAnswer<R> {
    /// The shard ran the command and replied.
    Ok(R),
    /// The shard was not serving — the command was never delivered. The
    /// journal rebuild replays it when the shard returns.
    Down,
    /// Delivered but no reply within the timeout (stalled shard).
    Unresponsive,
}

impl<R> ShardAnswer<R> {
    fn label(&self) -> &'static str {
        match self {
            ShardAnswer::Ok(_) => "ok",
            ShardAnswer::Down => "down",
            ShardAnswer::Unresponsive => "unresponsive",
        }
    }
}

/// Aggregate per-shard unit results: the logical operation succeeded iff
/// it succeeded on every *responsive* shard; the first failure is the
/// reported one. Down/unresponsive shards don't veto — the command is in
/// the journal and the rebuild replays it — but an all-missing fan-out is
/// an error.
pub(crate) fn merge_unit(
    answers: Vec<(usize, ShardAnswer<Result<(), PluginError>>)>,
) -> Result<(), PluginError> {
    let mut any_ok = false;
    for (_, a) in answers {
        if let ShardAnswer::Ok(r) = a {
            r?;
            any_ok = true;
        }
    }
    if any_ok {
        Ok(())
    } else {
        Err(PluginError::Busy(
            "no responsive data-plane shards".to_string(),
        ))
    }
}

/// Aggregate per-shard replies into the single reply the operator sees.
///
/// Shards execute identical command sequences, so structured replies
/// (instance ids, filter ids) are expected to agree — any divergence is
/// surfaced as an error rather than silently picking one shard's answer.
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
        assert!(merge_unit(vec![ok(0, ()), ok(1, ())]).is_ok());
        let e = merge_unit(vec![
            ok(0, ()),
            (1, ShardAnswer::Ok(Err(PluginError::Busy("x".into())))),
            (2, ShardAnswer::Ok(Err(PluginError::Busy("y".into())))),
        ])
        .unwrap_err();
        assert_eq!(e, PluginError::Busy("x".into()));
    }

    #[test]
    fn unit_missing_shards_do_not_veto() {
        assert!(merge_unit(vec![ok(0, ()), (1, ShardAnswer::Down)]).is_ok());
        assert!(merge_unit(vec![(0, ShardAnswer::Down), (1, ShardAnswer::Unresponsive)]).is_err());
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
        assert!(merge_unit(vec![]).is_err());
    }
}
