//! Packet-scheduling plugins: weighted DRR (the paper's own plugin, §6.1),
//! H-FSC (the CMU port, §6), FIFO (best-effort baseline) and RED (the
//! "envisioned" congestion-control plugin).
//!
//! A scheduling instance *consumes* packets at the Scheduling gate (the
//! gate returns [`PluginAction::Consumed`]) and the interface driver
//! drains it through [`SchedulerInstance::dequeue`]. Per-flow queues in
//! the DRR plugin are keyed by the packet's flow index — exactly the
//! paper's trick of using the AIU's flow table as the scheduler's flow
//! state ("it was straightforward to add a queue per flow").

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
    SchedulerInstance,
};
use crate::plugins::{config_map, config_num, target};
use rp_classifier::FilterId;
use rp_packet::{FlowTuple, Mbuf};
use rp_sched::hfsc::ClassId;
use rp_sched::link::{SchedPacket, Scheduler};
use rp_sched::{
    DrrScheduler, FifoScheduler, HfscScheduler, HsfScheduler, RedQueue, ServiceCurve,
    VirtualClockScheduler,
};
use std::any::Any;
use std::collections::HashMap;

/// The packets a scheduler holds, in a slab: the cookie a [`SchedPacket`]
/// carries is the slot. Every cookie is taken exactly once — on dequeue,
/// purge or refused enqueue — which puts the slot on the free list.
#[derive(Default)]
struct PacketStore {
    slots: Vec<Option<Mbuf>>,
    free: Vec<u32>,
}

impl PacketStore {
    fn put(&mut self, mbuf: Mbuf) -> u64 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(mbuf);
                u64::from(slot)
            }
            None => {
                self.slots.push(Some(mbuf));
                (self.slots.len() - 1) as u64
            }
        }
    }

    fn take(&mut self, cookie: u64) -> Option<Mbuf> {
        let mbuf = self.slots.get_mut(cookie as usize)?.take()?;
        self.free.push(cookie as u32);
        Some(mbuf)
    }
}

/// The gate side of every scheduler: move the packet out of the gate's
/// `&mut Mbuf` into `store` and offer it to `sched` as flow `flow`.
fn enqueue(
    sched: &mut impl Scheduler,
    store: &mut PacketStore,
    mbuf: &mut Mbuf,
    flow: u32,
    now_ns: u64,
) -> PluginAction {
    let rx = mbuf.rx_if;
    let owned = std::mem::replace(mbuf, Mbuf::new(Vec::new(), rx));
    let len = owned.len() as u32;
    let cookie = store.put(owned);
    let pkt = SchedPacket {
        flow,
        len,
        arrival_ns: now_ns,
        cookie,
    };
    if sched.enqueue(pkt, now_ns) {
        PluginAction::Consumed
    } else {
        store.take(cookie);
        PluginAction::Drop
    }
}

/// The driver side: the scheduler picks, the store hands the packet back.
fn dequeue(sched: &mut impl Scheduler, store: &mut PacketStore, now_ns: u64) -> Option<Mbuf> {
    let pkt = sched.dequeue(now_ns)?;
    store.take(pkt.cookie)
}

// ---------------------------------------------------------------------
// DRR
// ---------------------------------------------------------------------

/// A weighted-DRR instance (one per interface, per the paper).
pub struct DrrInstance {
    drr: DrrScheduler,
    store: PacketStore,
    /// Weight per installed filter (the plugin's per-filter hard state).
    filter_weights: HashMap<FilterId, u32>,
}

impl PluginInstance for DrrInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let flow = ctx.fix.0;
        if let Some(w) = ctx.filter.and_then(|f| self.filter_weights.get(&f)) {
            self.drr.set_weight(flow, *w);
        }
        // Remember the flow id in soft state so eviction can purge.
        ctx.soft_state.get_or_insert_with(|| Box::new(flow));
        enqueue(&mut self.drr, &mut self.store, mbuf, flow, ctx.now_ns)
    }

    fn flow_unbound(&mut self, _key: &FlowTuple, soft_state: Option<Box<dyn Any + Send>>) {
        if let Some(flow) = soft_state.and_then(|b| b.downcast::<u32>().ok()) {
            for pkt in self.drr.purge_flow(*flow) {
                self.store.take(pkt.cookie);
            }
        }
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.drr.backlog()
    }

    fn describe(&self) -> String {
        format!(
            "drr: backlog={} active_flows={} drops={}",
            self.drr.backlog(),
            self.drr.active_flows(),
            self.drr.drops()
        )
    }
}

impl SchedulerInstance for DrrInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.drr, &mut self.store, now_ns)
    }
}

/// The DRR plugin module.
#[derive(Default)]
pub struct DrrPlugin {
    _priv: (),
}

impl Plugin for DrrPlugin {
    fn name(&self) -> &str {
        "drr"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::PACKET_SCHED, 1)
    }

    /// Config: `quantum=<bytes> limit=<pkts-per-flow>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let quantum: u32 = config_num(&map, "quantum", 9180)?;
        let limit: usize = config_num(&map, "limit", 128)?;
        if quantum == 0 {
            return Err(PluginError::BadConfig("quantum must be > 0".into()));
        }
        Ok(Box::new(DrrInstance {
            drr: DrrScheduler::new(quantum, limit),
            store: PacketStore::default(),
            filter_weights: HashMap::new(),
        }))
    }

    /// Messages: `setweight filter=<id> weight=<w>` (bandwidth
    /// reservation — §6.1's dynamically recalculated weights), `stats`.
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let drr: &mut DrrInstance = target(instance, "drr")?;
        match name {
            "setweight" => {
                let map = config_map(args);
                let fid: u64 = config_num(&map, "filter", u64::MAX)?;
                let w: u32 = config_num(&map, "weight", 0)?;
                if fid == u64::MAX || w == 0 {
                    return Err(PluginError::BadConfig(
                        "setweight filter=<id> weight=<w>".into(),
                    ));
                }
                drr.filter_weights.insert(FilterId(fid), w);
                Ok(format!("filter {fid} weight {w}"))
            }
            "stats" => Ok(drr.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// H-FSC
// ---------------------------------------------------------------------

/// An H-FSC instance (one per interface).
pub struct HfscInstance {
    hfsc: HfscScheduler,
    store: PacketStore,
    filter_class: HashMap<FilterId, ClassId>,
    default_class: Option<ClassId>,
}

impl PluginInstance for HfscInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let flow = ctx.fix.0;
        // Route the flow to its class: filter binding, else default.
        let class = ctx
            .filter
            .and_then(|f| self.filter_class.get(&f).copied())
            .or(self.default_class);
        let Some(class) = class else {
            return PluginAction::Drop;
        };
        self.hfsc.bind_flow(flow, class);
        enqueue(&mut self.hfsc, &mut self.store, mbuf, flow, ctx.now_ns)
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.hfsc.backlog()
    }

    fn describe(&self) -> String {
        format!(
            "hfsc: backlog={} rt_served={} ls_served={} drops={}",
            self.hfsc.backlog(),
            self.hfsc.rt_served,
            self.hfsc.ls_served,
            self.hfsc.drops()
        )
    }
}

impl SchedulerInstance for HfscInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.hfsc, &mut self.store, now_ns)
    }
}

/// The H-FSC plugin module.
#[derive(Default)]
pub struct HfscPlugin {
    _priv: (),
}

impl Plugin for HfscPlugin {
    fn name(&self) -> &str {
        "hfsc"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::PACKET_SCHED, 2)
    }

    /// Config: `rate=<bps> limit=<pkts-per-class>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let rate: u64 = config_num(&map, "rate", 10_000_000)?;
        let limit: usize = config_num(&map, "limit", 256)?;
        Ok(Box::new(HfscInstance {
            hfsc: HfscScheduler::new(rate, limit),
            store: PacketStore::default(),
            filter_class: HashMap::new(),
            default_class: None,
        }))
    }

    /// Messages:
    /// * `addclass parent=<id|root> ls=<bps> [m1=<bps> d=<us> m2=<bps>]`
    ///   → `class <id>`; a real-time curve is attached when m2 is given.
    /// * `bindfilter filter=<fid> class=<cid>`
    /// * `default class=<cid>`
    /// * `stats`
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let g: &mut HfscInstance = target(instance, "hfsc")?;
        let map = config_map(args);
        match name {
            "addclass" => {
                let parent = match map.get("parent").map(String::as_str) {
                    None | Some("root") => g.hfsc.root(),
                    Some(p) => ClassId(
                        p.parse()
                            .map_err(|_| PluginError::BadConfig(format!("bad parent {p}")))?,
                    ),
                };
                let ls: u64 = config_num(&map, "ls", 0)?;
                let rt = if map.contains_key("m2") {
                    let m2: u64 = config_num(&map, "m2", 0)?;
                    let m1: u64 = config_num(&map, "m1", m2)?;
                    let d_us: u64 = config_num(&map, "d", 0)?;
                    Some(ServiceCurve {
                        m1_bps: m1,
                        d_us,
                        m2_bps: m2,
                    })
                } else {
                    None
                };
                let id = g.hfsc.add_class(parent, ls, rt);
                Ok(format!("class {}", id.0))
            }
            "bindfilter" => {
                let fid: u64 = config_num(&map, "filter", u64::MAX)?;
                let cid: u32 = config_num(&map, "class", u32::MAX)?;
                if fid == u64::MAX || cid == u32::MAX {
                    return Err(PluginError::BadConfig(
                        "bindfilter filter=<fid> class=<cid>".into(),
                    ));
                }
                g.filter_class.insert(FilterId(fid), ClassId(cid));
                Ok(format!("filter {fid} → class {cid}"))
            }
            "default" => {
                let cid: u32 = config_num(&map, "class", u32::MAX)?;
                if cid == u32::MAX {
                    return Err(PluginError::BadConfig("default class=<cid>".into()));
                }
                g.default_class = Some(ClassId(cid));
                g.hfsc.set_default_class(ClassId(cid));
                Ok(format!("default class {cid}"))
            }
            "stats" => Ok(g.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// HSF (Hierarchical Scheduling Framework — the paper's §6 plan)
// ---------------------------------------------------------------------

/// An HSF instance: H-FSC across leaves, weighted DRR within each leaf —
/// "DRR could be used to do fair queuing for all flows ending in the
/// same H-FSC leaf node" (paper §6).
///
/// Flow-cache eviction deliberately does *not* purge queued packets
/// here: the outer H-FSC's per-leaf byte accounting mirrors the inner
/// DRR exactly, so dropping inner packets would desynchronise the two.
/// Residual packets of an evicted flow drain at their leaf's rate; a
/// reused flow index is re-bound on its first packet.
pub struct HsfInstance {
    hsf: HsfScheduler,
    store: PacketStore,
    filter_leaf: HashMap<FilterId, ClassId>,
    filter_weight: HashMap<FilterId, u32>,
}

impl PluginInstance for HsfInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let flow = ctx.fix.0;
        if let Some(f) = ctx.filter {
            if let Some(leaf) = self.filter_leaf.get(&f).copied() {
                self.hsf.bind_flow(flow, leaf);
            }
            if let Some(w) = self.filter_weight.get(&f).copied() {
                self.hsf.set_flow_weight(flow, w);
            }
        }
        enqueue(&mut self.hsf, &mut self.store, mbuf, flow, ctx.now_ns)
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.hsf.backlog()
    }

    fn describe(&self) -> String {
        format!("hsf: backlog={}", self.hsf.backlog())
    }
}

impl SchedulerInstance for HsfInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.hsf, &mut self.store, now_ns)
    }
}

/// The HSF plugin module.
#[derive(Default)]
pub struct HsfPlugin {
    _priv: (),
}

impl Plugin for HsfPlugin {
    fn name(&self) -> &str {
        "hsf"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::PACKET_SCHED, 4)
    }

    /// Config: `rate=<bps> quantum=<bytes> limit=<pkts-per-flow>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let rate: u64 = config_num(&map, "rate", 10_000_000)?;
        let quantum: u32 = config_num(&map, "quantum", 9180)?;
        let limit: usize = config_num(&map, "limit", 128)?;
        Ok(Box::new(HsfInstance {
            hsf: HsfScheduler::new(rate, quantum, limit),
            store: PacketStore::default(),
            filter_leaf: HashMap::new(),
            filter_weight: HashMap::new(),
        }))
    }

    /// Messages:
    /// * `addinterior parent=<id|root> ls=<bps>` → `class <id>`
    /// * `addleaf parent=<id|root> ls=<bps> [m1= d= m2=]` → `class <id>`
    /// * `bindfilter filter=<fid> class=<leaf>`
    /// * `setweight filter=<fid> weight=<w>` (intra-leaf DRR weight)
    /// * `default class=<leaf>`
    /// * `stats`
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let g: &mut HsfInstance = target(instance, "hsf")?;
        let map = config_map(args);
        let parent = |g: &HsfInstance| -> Result<ClassId, PluginError> {
            match map.get("parent").map(String::as_str) {
                None | Some("root") => Ok(g.hsf.root()),
                Some(p) => {
                    Ok(ClassId(p.parse().map_err(|_| {
                        PluginError::BadConfig(format!("bad parent {p}"))
                    })?))
                }
            }
        };
        match name {
            "addinterior" => {
                let p = parent(g)?;
                let ls: u64 = config_num(&map, "ls", 0)?;
                let id = g.hsf.add_interior(p, ls);
                Ok(format!("class {}", id.0))
            }
            "addleaf" => {
                let p = parent(g)?;
                let ls: u64 = config_num(&map, "ls", 0)?;
                let rt = if map.contains_key("m2") {
                    let m2: u64 = config_num(&map, "m2", 0)?;
                    let m1: u64 = config_num(&map, "m1", m2)?;
                    let d_us: u64 = config_num(&map, "d", 0)?;
                    Some(ServiceCurve {
                        m1_bps: m1,
                        d_us,
                        m2_bps: m2,
                    })
                } else {
                    None
                };
                let id = g.hsf.add_leaf(p, ls, rt);
                Ok(format!("class {}", id.0))
            }
            "bindfilter" => {
                let fid: u64 = config_num(&map, "filter", u64::MAX)?;
                let cid: u32 = config_num(&map, "class", u32::MAX)?;
                if fid == u64::MAX || cid == u32::MAX {
                    return Err(PluginError::BadConfig(
                        "bindfilter filter=<fid> class=<leaf>".into(),
                    ));
                }
                g.filter_leaf.insert(FilterId(fid), ClassId(cid));
                Ok(format!("filter {fid} → leaf {cid}"))
            }
            "setweight" => {
                let fid: u64 = config_num(&map, "filter", u64::MAX)?;
                let w: u32 = config_num(&map, "weight", 0)?;
                if fid == u64::MAX || w == 0 {
                    return Err(PluginError::BadConfig(
                        "setweight filter=<fid> weight=<w>".into(),
                    ));
                }
                g.filter_weight.insert(FilterId(fid), w);
                Ok(format!("filter {fid} weight {w}"))
            }
            "default" => {
                let cid: u32 = config_num(&map, "class", u32::MAX)?;
                if cid == u32::MAX {
                    return Err(PluginError::BadConfig("default class=<leaf>".into()));
                }
                g.hsf.set_default_leaf(ClassId(cid));
                Ok(format!("default leaf {cid}"))
            }
            "stats" => Ok(g.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

// ---------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------

/// A FIFO instance (the default best-effort egress queue).
pub struct FifoInstance {
    fifo: FifoScheduler,
    store: PacketStore,
}

impl PluginInstance for FifoInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        enqueue(&mut self.fifo, &mut self.store, mbuf, ctx.fix.0, ctx.now_ns)
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.fifo.backlog()
    }

    fn describe(&self) -> String {
        format!(
            "fifo: backlog={} drops={}",
            self.fifo.backlog(),
            self.fifo.drops()
        )
    }
}

impl SchedulerInstance for FifoInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.fifo, &mut self.store, now_ns)
    }
}

/// The FIFO plugin module.
#[derive(Default)]
pub struct FifoPlugin {
    _priv: (),
}

impl Plugin for FifoPlugin {
    fn name(&self) -> &str {
        "fifo"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::PACKET_SCHED, 3)
    }

    /// Config: `limit=<pkts>`.
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let limit: usize = config_num(&map, "limit", 512)?;
        Ok(Box::new(FifoInstance {
            fifo: FifoScheduler::new(limit),
            store: PacketStore::default(),
        }))
    }
}

// ---------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------

/// A RED instance (congestion-controlled egress queue).
pub struct RedInstance {
    red: RedQueue,
    store: PacketStore,
}

impl PluginInstance for RedInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        enqueue(&mut self.red, &mut self.store, mbuf, ctx.fix.0, ctx.now_ns)
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.red.backlog()
    }

    fn describe(&self) -> String {
        format!(
            "red: backlog={} avg={:.2} early_drops={} forced_drops={}",
            self.red.backlog(),
            self.red.avg_queue(),
            self.red.early_drops(),
            self.red.forced_drops()
        )
    }
}

impl SchedulerInstance for RedInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.red, &mut self.store, now_ns)
    }
}

/// The RED plugin module.
#[derive(Default)]
pub struct RedPlugin {
    _priv: (),
}

impl Plugin for RedPlugin {
    fn name(&self) -> &str {
        "red"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::CONGESTION, 1)
    }

    /// Config: `minth= maxth= maxp= limit= wq= seed=` (all optional).
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let cfg = rp_sched::red::RedConfig {
            w_q: config_num(&map, "wq", 0.002f64)?,
            min_th: config_num(&map, "minth", 5.0f64)?,
            max_th: config_num(&map, "maxth", 15.0f64)?,
            max_p: config_num(&map, "maxp", 0.1f64)?,
            limit: config_num(&map, "limit", 64usize)?,
            mean_pkt_time_ns: config_num(&map, "mean_pkt_ns", 10_000u64)?,
        };
        if cfg.min_th >= cfg.max_th {
            return Err(PluginError::BadConfig("minth must be < maxth".into()));
        }
        let seed: u64 = config_num(&map, "seed", 0x5eed)?;
        Ok(Box::new(RedInstance {
            red: RedQueue::new(cfg, seed),
            store: PacketStore::default(),
        }))
    }
}

// ---------------------------------------------------------------------
// Virtual Clock (the "third-party" plugin the paper predicts)
// ---------------------------------------------------------------------

/// A Virtual Clock instance: per-flow rate policing by stamp ordering.
pub struct VcInstance {
    vc: VirtualClockScheduler,
    store: PacketStore,
    filter_rates: HashMap<FilterId, u64>,
}

impl PluginInstance for VcInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let flow = ctx.fix.0;
        if let Some(rate) = ctx.filter.and_then(|f| self.filter_rates.get(&f)) {
            self.vc.set_rate(flow, *rate);
        }
        enqueue(&mut self.vc, &mut self.store, mbuf, flow, ctx.now_ns)
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.vc.backlog()
    }

    fn describe(&self) -> String {
        format!(
            "vclock: backlog={} drops={}",
            self.vc.backlog(),
            self.vc.drops()
        )
    }
}

impl SchedulerInstance for VcInstance {
    fn dequeue(&mut self, now_ns: u64) -> Option<Mbuf> {
        dequeue(&mut self.vc, &mut self.store, now_ns)
    }
}

/// The Virtual Clock plugin module.
#[derive(Default)]
pub struct VcPlugin {
    _priv: (),
}

impl Plugin for VcPlugin {
    fn name(&self) -> &str {
        "vclock"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::PACKET_SCHED, 5)
    }

    /// Config: `rate=<bps> limit=<pkts>` (default per-flow rate).
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let rate: u64 = config_num(&map, "rate", 1_000_000)?;
        let limit: usize = config_num(&map, "limit", 512)?;
        if rate == 0 {
            return Err(PluginError::BadConfig("rate must be > 0".into()));
        }
        Ok(Box::new(VcInstance {
            vc: VirtualClockScheduler::new(rate, limit),
            store: PacketStore::default(),
            filter_rates: HashMap::new(),
        }))
    }

    /// Messages: `setrate filter=<fid> rate=<bps>`, `stats`.
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let vc: &mut VcInstance = target(instance, "vclock")?;
        match name {
            "setrate" => {
                let map = config_map(args);
                let fid: u64 = config_num(&map, "filter", u64::MAX)?;
                let rate: u64 = config_num(&map, "rate", 0)?;
                if fid == u64::MAX || rate == 0 {
                    return Err(PluginError::BadConfig(
                        "setrate filter=<fid> rate=<bps>".into(),
                    ));
                }
                vc.filter_rates.insert(FilterId(fid), rate);
                Ok(format!("filter {fid} rate {rate}"))
            }
            "stats" => Ok(vc.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::mbuf::FlowIndex;

    fn call(inst: &mut Box<dyn PluginInstance>, fix: u32, len: usize, now: u64) -> PluginAction {
        let mut m = Mbuf::new(vec![0u8; len], 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Scheduling,
            now_ns: now,
            fix: FlowIndex(fix),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx)
    }

    #[test]
    fn fifo_consume_and_drain() {
        let mut p = FifoPlugin::default();
        let mut inst = p.create_instance("limit=4").unwrap();
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Consumed);
        assert_eq!(call(&mut inst, 2, 200, 0), PluginAction::Consumed);
        assert_eq!(inst.backlog(), 2);
        let sched = inst.as_scheduler().unwrap();
        assert_eq!(sched.dequeue(0).unwrap().len(), 100);
        assert_eq!(sched.dequeue(0).unwrap().len(), 200);
        assert!(sched.dequeue(0).is_none());
    }

    #[test]
    fn fifo_overflow_drops() {
        let mut p = FifoPlugin::default();
        let mut inst = p.create_instance("limit=1").unwrap();
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Consumed);
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Drop);
    }

    #[test]
    fn drr_round_robins_flows() {
        let mut p = DrrPlugin::default();
        let mut inst = p.create_instance("quantum=1000 limit=16").unwrap();
        for _ in 0..3 {
            call(&mut inst, 1, 500, 0);
            call(&mut inst, 2, 500, 0);
        }
        let sched = inst.as_scheduler().unwrap();
        let mut flows = Vec::new();
        while let Some(m) = sched.dequeue(0) {
            flows.push(m.len());
        }
        assert_eq!(flows.len(), 6);
    }

    #[test]
    fn hfsc_plugin_classes_via_messages() {
        let mut p = HfscPlugin::default();
        let mut inst = p.create_instance("rate=10000000 limit=64").unwrap();
        let reply = p
            .custom_message(Some(inst.as_mut()), "addclass", "parent=root ls=5000000")
            .unwrap();
        assert_eq!(reply, "class 1");
        p.custom_message(Some(inst.as_mut()), "default", "class=1")
            .unwrap();
        assert_eq!(call(&mut inst, 7, 400, 0), PluginAction::Consumed);
        let sched = inst.as_scheduler().unwrap();
        assert_eq!(sched.dequeue(1000).unwrap().len(), 400);
    }

    #[test]
    fn hfsc_without_class_drops() {
        let mut p = HfscPlugin::default();
        let mut inst = p.create_instance("").unwrap();
        assert_eq!(call(&mut inst, 7, 400, 0), PluginAction::Drop);
    }

    #[test]
    fn hsf_plugin_hierarchy_via_messages() {
        let mut p = HsfPlugin::default();
        let mut inst = p
            .create_instance("rate=10000000 quantum=1500 limit=32")
            .unwrap();
        let a = p
            .custom_message(Some(inst.as_mut()), "addleaf", "parent=root ls=7000000")
            .unwrap();
        assert_eq!(a, "class 1");
        p.custom_message(Some(inst.as_mut()), "default", "class=1")
            .unwrap();
        assert_eq!(call(&mut inst, 5, 300, 0), PluginAction::Consumed);
        assert_eq!(call(&mut inst, 6, 300, 0), PluginAction::Consumed);
        assert_eq!(inst.backlog(), 2);
        let sched = inst.as_scheduler().unwrap();
        assert!(sched.dequeue(100).is_some());
        assert!(sched.dequeue(200).is_some());
        assert!(sched.dequeue(300).is_none());
        // Interior classes and leaf with a real-time curve parse too.
        let i = p
            .custom_message(Some(inst.as_mut()), "addinterior", "parent=root ls=3000000")
            .unwrap();
        assert!(i.starts_with("class "));
        let leaf = p
            .custom_message(
                Some(inst.as_mut()),
                "addleaf",
                "parent=2 ls=1000000 m1=2000000 d=10000 m2=500000",
            )
            .unwrap();
        assert!(leaf.starts_with("class "));
        // Bad messages rejected.
        assert!(p
            .custom_message(Some(inst.as_mut()), "bindfilter", "")
            .is_err());
        assert!(p.custom_message(Some(inst.as_mut()), "bogus", "").is_err());
    }

    #[test]
    fn hsf_plugin_without_default_drops() {
        let mut p = HsfPlugin::default();
        let mut inst = p.create_instance("").unwrap();
        assert_eq!(call(&mut inst, 9, 100, 0), PluginAction::Drop);
    }

    #[test]
    fn vclock_plugin_orders_by_rate() {
        let mut p = VcPlugin::default();
        let mut inst = p.create_instance("rate=1000000 limit=64").unwrap();
        for i in 0..4 {
            assert_eq!(call(&mut inst, 1, 500, i), PluginAction::Consumed);
            assert_eq!(call(&mut inst, 2, 500, i), PluginAction::Consumed);
        }
        let sched = inst.as_scheduler().unwrap();
        let mut n = 0;
        while sched.dequeue(0).is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
        assert!(p
            .custom_message(Some(inst.as_mut()), "setrate", "filter=1 rate=5000000")
            .is_ok());
        assert!(p
            .custom_message(Some(inst.as_mut()), "setrate", "")
            .is_err());
    }

    #[test]
    fn red_accepts_when_idle() {
        let mut p = RedPlugin::default();
        let mut inst = p.create_instance("").unwrap();
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Consumed);
        let sched = inst.as_scheduler().unwrap();
        assert!(sched.dequeue(0).is_some());
    }

    #[test]
    fn red_config_validation() {
        let mut p = RedPlugin::default();
        assert!(p.create_instance("minth=10 maxth=5").is_err());
    }
}
