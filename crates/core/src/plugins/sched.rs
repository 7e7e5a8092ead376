//! Packet-scheduling plugins: weighted DRR (the paper's own plugin, §6.1),
//! H-FSC (the CMU port, §6), FIFO (best-effort baseline) and RED (the
//! "envisioned" congestion-control plugin).
//!
//! A scheduling instance *consumes* packets at the Scheduling gate (the
//! gate returns [`PluginAction::Consumed`]) and the interface driver
//! drains it through [`SchedulerInstance::dequeue_into`]. Per-flow state is
//! keyed by the packet's flow index — exactly the paper's trick of using
//! the AIU's flow table as the scheduler's flow state ("it was
//! straightforward to add a queue per flow").
//!
//! Every plugin here runs one instance type, `SchedInstance`, over its
//! `rp_sched` scheduler. What differs per discipline is a `Discipline`:
//! the setting a filter carries, how it applies to a flow, and what
//! eviction releases so a recycled FIX starts fresh.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
    SchedulerInstance, SoftState,
};
use crate::plugins::{config_map, config_num, target};
use rp_classifier::FilterId;
use rp_packet::mbuf::FlowIndex;
use rp_packet::{FlowTuple, Mbuf};
use rp_sched::hfsc::ClassId;
use rp_sched::link::{FlowId, SchedPacket, Scheduler};
use rp_sched::{
    DrrScheduler, FifoScheduler, HfscScheduler, HsfScheduler, RedQueue, ServiceCurve,
    VirtualClockScheduler,
};
use std::collections::HashMap;
use std::str::FromStr;

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

/// What one queueing discipline adds to the shared [`SchedInstance`].
trait Discipline: Scheduler + Send + 'static {
    /// A filter's setting for the flows it binds — the paper's per-filter
    /// hard state ("opaque pointer … to plugin specific state associated
    /// with installed filters").
    type Setting: Copy + Send + 'static;

    /// Apply the packet's filter setting to its flow, before the enqueue.
    fn apply(&mut self, _flow: FlowId, _setting: Self::Setting) {}

    /// Drop an evicted flow's state, so a recycled FIX starts fresh;
    /// returns the packets this removed from the queues.
    fn release(&mut self, _flow: FlowId) -> Vec<SchedPacket> {
        Vec::new()
    }

    /// The instance's status line ([`PluginInstance::describe`]).
    fn describe(&self) -> String;
}

/// A scheduling instance (one per interface, per the paper): a
/// discipline, the packets it holds, and each filter's setting.
struct SchedInstance<D: Discipline> {
    sched: D,
    store: PacketStore,
    settings: HashMap<FilterId, D::Setting>,
}

impl<D: Discipline> SchedInstance<D> {
    fn boxed(sched: D) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(SchedInstance {
            sched,
            store: PacketStore::default(),
            settings: HashMap::new(),
        }))
    }
}

impl<D: Discipline> PluginInstance for SchedInstance<D> {
    /// Move the packet out of the gate's `&mut Mbuf` into the store and
    /// offer it to the scheduler as flow `fix`.
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        let flow = ctx.fix.0;
        if let Some(s) = ctx.filter.and_then(|f| self.settings.get(&f)) {
            self.sched.apply(flow, *s);
        }
        let rx = mbuf.rx_if;
        let owned = std::mem::replace(mbuf, Mbuf::new(Vec::new(), rx));
        let len = owned.len() as u32;
        let cookie = self.store.put(owned);
        let pkt = SchedPacket {
            flow,
            len,
            arrival_ns: ctx.now_ns,
            cookie,
        };
        if self.sched.enqueue(pkt, ctx.now_ns) {
            return PluginAction::Consumed;
        }
        // Refused: hand the packet back, so the router's drop recycles it.
        if let Some(owned) = self.store.take(cookie) {
            *mbuf = owned;
        }
        PluginAction::Drop
    }

    fn flow_unbound(&mut self, fix: FlowIndex, _: &FlowTuple, _: SoftState, out: &mut Vec<Mbuf>) {
        for pkt in self.sched.release(fix.0) {
            out.extend(self.store.take(pkt.cookie));
        }
    }

    fn as_scheduler(&mut self) -> Option<&mut dyn SchedulerInstance> {
        Some(self)
    }

    fn backlog(&self) -> usize {
        self.sched.backlog()
    }

    fn describe(&self) -> String {
        self.sched.describe()
    }
}

impl<D: Discipline> SchedulerInstance for SchedInstance<D> {
    /// The scheduler picks, the store hands each packet back.
    fn dequeue_into(&mut self, now_ns: u64, max: usize, out: &mut Vec<Mbuf>) -> usize {
        let start = out.len();
        while out.len() - start < max {
            let Some(pkt) = self.sched.dequeue(now_ns) else {
                break;
            };
            if let Some(mbuf) = self.store.take(pkt.cookie) {
                out.push(mbuf);
            }
        }
        out.len() - start
    }
}

type ConfigMap = HashMap<String, String>;

/// `filter=<fid> <key>=<value>`, both required: the one parse of every
/// per-filter setting message. `usage` is the error when either is
/// missing (`unset` marks a missing value).
fn filter_setting<T: FromStr + Copy + PartialEq>(
    map: &ConfigMap,
    key: &str,
    unset: T,
    usage: &str,
) -> Result<(u64, T), PluginError> {
    let fid: u64 = config_num(map, "filter", u64::MAX)?;
    let value = config_num(map, key, unset)?;
    if fid == u64::MAX || value == unset {
        return Err(PluginError::BadConfig(usage.into()));
    }
    Ok((fid, value))
}

/// `class=<cid>`, required (`default class=…`).
fn class_arg(map: &ConfigMap, usage: &str) -> Result<ClassId, PluginError> {
    let cid: u32 = config_num(map, "class", u32::MAX)?;
    if cid == u32::MAX {
        return Err(PluginError::BadConfig(usage.into()));
    }
    Ok(ClassId(cid))
}

/// `parent=<id|root>` and `ls=<bps>` of a new H-FSC class.
fn parent_and_ls(map: &ConfigMap, root: ClassId) -> Result<(ClassId, u64), PluginError> {
    let parent = match map.get("parent").map(String::as_str) {
        None | Some("root") => root,
        Some(p) => ClassId(
            p.parse()
                .map_err(|_| PluginError::BadConfig(format!("bad parent {p}")))?,
        ),
    };
    Ok((parent, config_num(map, "ls", 0)?))
}

/// `[m1=<bps> d=<us> m2=<bps>]`: a real-time curve, attached when m2 is
/// given.
fn rt_curve(map: &ConfigMap) -> Result<Option<ServiceCurve>, PluginError> {
    if !map.contains_key("m2") {
        return Ok(None);
    }
    let m2: u64 = config_num(map, "m2", 0)?;
    Ok(Some(ServiceCurve {
        m1_bps: config_num(map, "m1", m2)?,
        d_us: config_num(map, "d", 0)?,
        m2_bps: m2,
    }))
}

/// One queue per flow; a filter sets its flows' weight. Eviction purges
/// the flow's queue.
impl Discipline for DrrScheduler {
    type Setting = u32;

    fn apply(&mut self, flow: FlowId, weight: u32) {
        self.set_weight(flow, weight);
    }

    fn release(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        self.purge_flow(flow)
    }

    fn describe(&self) -> String {
        format!(
            "drr: backlog={} active_flows={} drops={}",
            self.backlog(),
            self.active_flows(),
            self.drops()
        )
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
        SchedInstance::boxed(DrrScheduler::new(quantum, limit))
    }

    /// Messages: `setweight filter=<id> weight=<w>` (bandwidth
    /// reservation — §6.1's dynamically recalculated weights), `stats`.
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let drr: &mut SchedInstance<DrrScheduler> = target(instance, "drr")?;
        match name {
            "setweight" => {
                let usage = "setweight filter=<id> weight=<w>";
                let (fid, w) = filter_setting(&config_map(args), "weight", 0u32, usage)?;
                drr.settings.insert(FilterId(fid), w);
                Ok(format!("filter {fid} weight {w}"))
            }
            "stats" => Ok(drr.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

/// A filter names the class its flows join; a flow no filter names goes
/// to the scheduler's default class.
impl Discipline for HfscScheduler {
    type Setting = ClassId;

    fn apply(&mut self, flow: FlowId, class: ClassId) {
        self.bind_flow(flow, class);
    }

    fn release(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        self.release_flow(flow);
        Vec::new()
    }

    fn describe(&self) -> String {
        format!(
            "hfsc: backlog={} rt_served={} ls_served={} drops={}",
            self.backlog(),
            self.rt_served,
            self.ls_served,
            self.drops()
        )
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
        SchedInstance::boxed(HfscScheduler::new(rate, limit))
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
        let g: &mut SchedInstance<HfscScheduler> = target(instance, "hfsc")?;
        let map = config_map(args);
        match name {
            "addclass" => {
                let (parent, ls) = parent_and_ls(&map, g.sched.root())?;
                let id = g.sched.add_class(parent, ls, rt_curve(&map)?);
                Ok(format!("class {}", id.0))
            }
            "bindfilter" => {
                let usage = "bindfilter filter=<fid> class=<cid>";
                let (fid, cid) = filter_setting(&map, "class", u32::MAX, usage)?;
                g.settings.insert(FilterId(fid), ClassId(cid));
                Ok(format!("filter {fid} → class {cid}"))
            }
            "default" => {
                let cid = class_arg(&map, "default class=<cid>")?;
                g.sched.set_default_class(cid);
                Ok(format!("default class {}", cid.0))
            }
            "stats" => Ok(g.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

/// H-FSC across leaves, weighted DRR within each leaf — "DRR could be
/// used to do fair queuing for all flows ending in the same H-FSC leaf
/// node" (paper §6). A filter may name its flows' leaf and their weight
/// in that leaf. Eviction unbinds the flow but leaves its queued packets
/// (see [`HsfScheduler::release_flow`]).
impl Discipline for HsfScheduler {
    type Setting = (Option<ClassId>, Option<u32>);

    fn apply(&mut self, flow: FlowId, (leaf, weight): Self::Setting) {
        if let Some(leaf) = leaf {
            self.bind_flow(flow, leaf);
        }
        if let Some(w) = weight {
            self.set_flow_weight(flow, w);
        }
    }

    fn release(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        self.release_flow(flow);
        Vec::new()
    }

    fn describe(&self) -> String {
        format!("hsf: backlog={}", self.backlog())
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
        SchedInstance::boxed(HsfScheduler::new(rate, quantum, limit))
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
        let g: &mut SchedInstance<HsfScheduler> = target(instance, "hsf")?;
        let map = config_map(args);
        match name {
            "addinterior" => {
                let (p, ls) = parent_and_ls(&map, g.sched.root())?;
                let id = g.sched.add_interior(p, ls);
                Ok(format!("class {}", id.0))
            }
            "addleaf" => {
                let (p, ls) = parent_and_ls(&map, g.sched.root())?;
                let id = g.sched.add_leaf(p, ls, rt_curve(&map)?);
                Ok(format!("class {}", id.0))
            }
            "bindfilter" => {
                let usage = "bindfilter filter=<fid> class=<leaf>";
                let (fid, cid) = filter_setting(&map, "class", u32::MAX, usage)?;
                g.settings.entry(FilterId(fid)).or_insert((None, None)).0 = Some(ClassId(cid));
                Ok(format!("filter {fid} → leaf {cid}"))
            }
            "setweight" => {
                let usage = "setweight filter=<fid> weight=<w>";
                let (fid, w) = filter_setting(&map, "weight", 0u32, usage)?;
                g.settings.entry(FilterId(fid)).or_insert((None, None)).1 = Some(w);
                Ok(format!("filter {fid} weight {w}"))
            }
            "default" => {
                let cid = class_arg(&map, "default class=<leaf>")?;
                g.sched.set_default_leaf(cid);
                Ok(format!("default leaf {}", cid.0))
            }
            "stats" => Ok(g.describe()),
            other => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

/// The default best-effort egress queue.
impl Discipline for FifoScheduler {
    type Setting = ();

    fn describe(&self) -> String {
        format!("fifo: backlog={} drops={}", self.backlog(), self.drops())
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
        SchedInstance::boxed(FifoScheduler::new(limit))
    }
}

/// A congestion-controlled egress queue.
impl Discipline for RedQueue {
    type Setting = ();

    fn describe(&self) -> String {
        format!(
            "red: backlog={} avg={:.2} early_drops={} forced_drops={}",
            self.backlog(),
            self.avg_queue(),
            self.early_drops(),
            self.forced_drops()
        )
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
        SchedInstance::boxed(RedQueue::new(cfg, seed))
    }
}

/// Per-flow rate policing by stamp ordering; a filter sets its flows'
/// rate.
impl Discipline for VirtualClockScheduler {
    type Setting = u64;

    fn apply(&mut self, flow: FlowId, rate: u64) {
        self.set_rate(flow, rate);
    }

    fn release(&mut self, flow: FlowId) -> Vec<SchedPacket> {
        self.release_flow(flow);
        Vec::new()
    }

    fn describe(&self) -> String {
        format!("vclock: backlog={} drops={}", self.backlog(), self.drops())
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
        SchedInstance::boxed(VirtualClockScheduler::new(rate, limit))
    }

    /// Messages: `setrate filter=<fid> rate=<bps>`, `stats`.
    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        args: &str,
    ) -> Result<String, PluginError> {
        let vc: &mut SchedInstance<VirtualClockScheduler> = target(instance, "vclock")?;
        match name {
            "setrate" => {
                let usage = "setrate filter=<fid> rate=<bps>";
                let (fid, rate) = filter_setting(&config_map(args), "rate", 0u64, usage)?;
                vc.settings.insert(FilterId(fid), rate);
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

    fn call(inst: &mut Box<dyn PluginInstance>, fix: u32, len: usize, now: u64) -> PluginAction {
        offer(inst, fix, None, &mut None, len, now)
    }

    /// One packet of flow `fix`, matched by `filter`, with the flow's own
    /// soft-state slot (as the flow record lends it to the gate).
    fn offer(
        inst: &mut Box<dyn PluginInstance>,
        fix: u32,
        filter: Option<FilterId>,
        soft: &mut SoftState,
        len: usize,
        now: u64,
    ) -> PluginAction {
        let mut m = Mbuf::new(vec![0u8; len], 0);
        let mut ctx = PacketCtx {
            gate: Gate::Scheduling,
            now_ns: now,
            fix: FlowIndex(fix),
            filter,
            soft_state: soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx)
    }

    /// The instance's next packet on the wire.
    fn next(inst: &mut Box<dyn PluginInstance>, now: u64) -> Option<Mbuf> {
        let mut out = Vec::new();
        inst.as_scheduler().unwrap().dequeue_into(now, 1, &mut out);
        out.pop()
    }

    /// The flow table evicts flow `fix`, whose soft-state slot is `soft`.
    fn evict(inst: &mut Box<dyn PluginInstance>, fix: u32, soft: &mut SoftState) {
        let any = std::net::Ipv4Addr::UNSPECIFIED.into();
        let key = FlowTuple {
            src: any,
            dst: any,
            proto: 17,
            sport: 0,
            dport: 0,
            rx_if: 0,
        };
        inst.flow_unbound(FlowIndex(fix), &key, soft.take(), &mut Vec::new());
    }

    #[test]
    fn fifo_consume_and_drain() {
        let mut p = FifoPlugin::default();
        let mut inst = p.create_instance("limit=4").unwrap();
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Consumed);
        assert_eq!(call(&mut inst, 2, 200, 0), PluginAction::Consumed);
        assert_eq!(inst.backlog(), 2);
        assert_eq!(next(&mut inst, 0).unwrap().len(), 100);
        assert_eq!(next(&mut inst, 0).unwrap().len(), 200);
        assert!(next(&mut inst, 0).is_none());
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
        let mut flows = Vec::new();
        while let Some(m) = next(&mut inst, 0) {
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
        assert_eq!(next(&mut inst, 1000).unwrap().len(), 400);
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
        assert!(next(&mut inst, 100).is_some());
        assert!(next(&mut inst, 200).is_some());
        assert!(next(&mut inst, 300).is_none());
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
        let mut n = 0;
        while next(&mut inst, 0).is_some() {
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
        assert!(next(&mut inst, 0).is_some());
    }

    #[test]
    fn red_config_validation() {
        let mut p = RedPlugin::default();
        assert!(p.create_instance("minth=10 maxth=5").is_err());
    }

    /// A recycled FIX must not be stamped behind the evicted flow's
    /// virtual clock.
    #[test]
    fn vclock_recycled_fix_starts_a_fresh_clock() {
        let mut p = VcPlugin::default();
        let mut inst = p.create_instance("rate=1000000 limit=64").unwrap();
        let mut soft = None;
        for _ in 0..8 {
            assert_eq!(
                offer(&mut inst, 1, None, &mut soft, 500, 0),
                PluginAction::Consumed
            );
        }
        while next(&mut inst, 0).is_some() {}
        evict(&mut inst, 1, &mut soft);
        // The burst stamped fix 1 32 ms ahead; a fresh clock stamps the
        // reused fix's 400 B ahead of the new fix 2's 500 B.
        assert_eq!(
            offer(&mut inst, 1, None, &mut soft, 400, 1_000),
            PluginAction::Consumed
        );
        assert_eq!(call(&mut inst, 2, 500, 1_000), PluginAction::Consumed);
        assert_eq!(
            next(&mut inst, 1_000).unwrap().len(),
            400,
            "reused fix 1 first"
        );
        assert_eq!(next(&mut inst, 1_000).unwrap().len(), 500);
    }

    /// A recycled FIX must not inherit the evicted flow's leaf.
    #[test]
    fn hsf_recycled_fix_forgets_its_leaf() {
        let mut p = HsfPlugin::default();
        let mut inst = p.create_instance("").unwrap();
        let mut msg = |name: &str, args: &str| p.custom_message(Some(inst.as_mut()), name, args);
        assert_eq!(msg("addleaf", "parent=root ls=1000000").unwrap(), "class 1");
        msg("bindfilter", "filter=7 class=1").unwrap();
        let mut soft = None;
        let x = Some(FilterId(7));
        assert_eq!(
            offer(&mut inst, 3, x, &mut soft, 100, 0),
            PluginAction::Consumed
        );
        evict(&mut inst, 3, &mut soft);
        // No filter and no default leaf: refused, not queued in leaf 1.
        assert_eq!(
            offer(&mut inst, 3, None, &mut soft, 100, 0),
            PluginAction::Drop
        );
        assert_eq!(inst.backlog(), 1, "the evicted flow's packet still drains");
    }

    /// A refused packet comes back to the gate with its bytes, for the
    /// router's drop to recycle.
    #[test]
    fn refused_packet_is_handed_back() {
        let mut inst = FifoPlugin::default().create_instance("limit=1").unwrap();
        assert_eq!(call(&mut inst, 1, 100, 0), PluginAction::Consumed);
        let mut m = Mbuf::new(vec![7u8; 300], 0);
        let mut ctx = PacketCtx {
            gate: Gate::Scheduling,
            now_ns: 0,
            fix: FlowIndex(1),
            filter: None,
            soft_state: &mut None,
            cost_ns: 0,
        };
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Drop);
        assert_eq!(m.data(), &[7u8; 300][..]);
    }

    /// Every discipline, configured so that any flow has a class: the
    /// plugin, its instance config and the messages that follow it.
    fn every_discipline() -> [(Box<dyn Plugin>, &'static str, &'static [&'static str]); 6] {
        [
            (Box::new(FifoPlugin::default()), "", &[]),
            (Box::new(RedPlugin::default()), "", &[]),
            (Box::new(DrrPlugin::default()), "quantum=500", &[]),
            (
                Box::new(HfscPlugin::default()),
                "",
                &["addclass parent=root ls=5000000", "default class=1"],
            ),
            (
                Box::new(HsfPlugin::default()),
                "quantum=500",
                &["addleaf parent=root ls=5000000", "default class=1"],
            ),
            (Box::new(VcPlugin::default()), "", &[]),
        ]
    }

    /// No discipline keeps a soft-state box: eviction hands the instance
    /// the FIX itself.
    #[test]
    fn no_discipline_keeps_a_soft_box() {
        for (mut p, config, _) in every_discipline() {
            let mut inst = p.create_instance(config).unwrap();
            let mut soft = None;
            offer(&mut inst, 1, None, &mut soft, 100, 0);
            assert!(soft.is_none(), "{}", p.name());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Draining in calls of any size gives the packets, in the order,
        /// that one unbounded call gives.
        fn dequeue_into_in_chunks_is_one_drain(
            pkts in proptest::collection::vec((0u32..6, 40usize..1500, 0u64..3_000), 1..80),
            maxes in proptest::collection::vec(1usize..9, 1..16),
            now in 0u64..20_000_000,
        ) {
            for (mut p, config, msgs) in every_discipline() {
                let mut twin = || {
                    let mut inst = p.create_instance(config).unwrap();
                    for m in msgs {
                        let (name, args) = m.split_once(' ').unwrap();
                        p.custom_message(Some(inst.as_mut()), name, args).unwrap();
                    }
                    inst
                };
                let (mut whole, mut chunked) = (twin(), twin());
                for (tag, &(fix, len, at)) in pkts.iter().enumerate() {
                    for inst in [&mut whole, &mut chunked] {
                        let mut data = vec![0u8; len];
                        data[..4].copy_from_slice(&(tag as u32).to_be_bytes());
                        let mut m = Mbuf::new(data, 0);
                        let mut ctx = PacketCtx {
                            gate: Gate::Scheduling,
                            now_ns: at,
                            fix: FlowIndex(fix),
                            filter: None,
                            soft_state: &mut None,
                            cost_ns: 0,
                        };
                        inst.handle_packet(&mut m, &mut ctx);
                    }
                }
                let mut one = Vec::new();
                let n = whole.as_scheduler().unwrap().dequeue_into(now, usize::MAX, &mut one);
                proptest::prop_assert_eq!(n, one.len());
                let mut calls = Vec::new();
                for &max in maxes.iter().cycle() {
                    let got = chunked.as_scheduler().unwrap().dequeue_into(now, max, &mut calls);
                    proptest::prop_assert!(got <= max);
                    if got < max {
                        break;
                    }
                }
                let tags = |v: &[Mbuf]| -> Vec<(Vec<u8>, usize)> {
                    v.iter().map(|m| (m.data()[..4].to_vec(), m.len())).collect()
                };
                proptest::prop_assert_eq!(tags(&one), tags(&calls), "{}", p.name());
                proptest::prop_assert_eq!(chunked.backlog(), whole.backlog());
            }
        }
    }
}
