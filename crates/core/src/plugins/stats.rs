//! Statistics-gathering plugin — the paper's network-management use case
//! (§2: "monitor transit traffic … gather and report various statistics
//! … change the kinds of statistics being collected without incurring
//! significant overhead on the data path").
//!
//! Per-flow counters live in the flow record's soft-state slot (zero
//! hashing on the hot path); aggregate counters in the instance.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType, SoftState,
};
use rp_packet::mbuf::FlowIndex;
use rp_packet::{FlowKey, Mbuf};
use std::collections::HashMap;

/// Per-flow counters kept in flow-record soft state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlowCounters {
    /// Packets seen.
    pub packets: u64,
    /// Bytes seen.
    pub bytes: u64,
}

/// A statistics instance.
#[derive(Default)]
pub struct StatsInstance {
    total_packets: u64,
    total_bytes: u64,
    /// Counters of flows that left the cache, by key words, summed over
    /// each flow's lives so long-term reports stay complete.
    retired: HashMap<[u32; 11], FlowCounters>,
}

impl StatsInstance {
    /// Total packets observed.
    pub fn packets(&self) -> u64 {
        self.total_packets
    }

    /// Total bytes observed.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }
}

impl PluginInstance for StatsInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, ctx: &mut PacketCtx<'_>) -> PluginAction {
        self.total_packets += 1;
        self.total_bytes += mbuf.len() as u64;
        let counters = ctx
            .soft_state
            .get_or_insert_with(|| Box::new(FlowCounters::default()));
        if let Some(c) = counters.downcast_mut::<FlowCounters>() {
            c.packets += 1;
            c.bytes += mbuf.len() as u64;
        }
        PluginAction::Continue
    }

    fn flow_unbound(&mut self, _: FlowIndex, key: &FlowKey, soft: SoftState, _: &mut Vec<Mbuf>) {
        if let Some(c) = soft.and_then(|b| b.downcast::<FlowCounters>().ok()) {
            let sum = self.retired.entry(*key.words()).or_default();
            sum.packets += c.packets;
            sum.bytes += c.bytes;
        }
    }

    fn describe(&self) -> String {
        format!(
            "stats: {} pkts / {} bytes, {} retired flows",
            self.packets(),
            self.bytes(),
            self.retired.len()
        )
    }
}

/// The statistics plugin module.
#[derive(Default)]
pub struct StatsPlugin {
    _priv: (),
}

impl Plugin for StatsPlugin {
    fn name(&self) -> &str {
        "stats"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::STATS, 1)
    }

    fn create_instance(&mut self, _config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(StatsInstance::default()))
    }

    fn custom_message(
        &mut self,
        instance: Option<&mut dyn PluginInstance>,
        name: &str,
        _args: &str,
    ) -> Result<String, PluginError> {
        match (name, instance) {
            ("report", Some(inst)) => Ok(inst.describe()),
            ("report", None) => Err(PluginError::BadConfig(
                "report needs an instance".to_string(),
            )),
            (other, _) => Err(PluginError::UnknownMessage(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::FlowTuple;
    use std::net::{IpAddr, Ipv4Addr};

    fn ctx_call(inst: &mut StatsInstance, soft: &mut SoftState, len: usize) {
        let mut m = Mbuf::new(vec![0u8; len], 0);
        let mut ctx = PacketCtx {
            gate: Gate::Stats,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx);
    }

    #[test]
    fn per_flow_and_totals() {
        let mut inst = StatsInstance::default();
        let mut flow_a = None;
        let mut flow_b = None;
        ctx_call(&mut inst, &mut flow_a, 100);
        ctx_call(&mut inst, &mut flow_a, 100);
        ctx_call(&mut inst, &mut flow_b, 50);
        assert_eq!(inst.packets(), 3);
        assert_eq!(inst.bytes(), 250);
        let a = flow_a.unwrap();
        let a = a.downcast_ref::<FlowCounters>().unwrap();
        assert_eq!((a.packets, a.bytes), (2, 200));
    }

    fn key() -> FlowKey {
        FlowKey::of(&FlowTuple {
            src: IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4)),
            dst: IpAddr::V4(Ipv4Addr::new(5, 6, 7, 8)),
            proto: 17,
            sport: 1,
            dport: 2,
            rx_if: 0,
        })
    }

    #[test]
    fn eviction_folds_into_retired() {
        let mut inst = StatsInstance::default();
        let mut soft = None;
        ctx_call(&mut inst, &mut soft, 64);
        inst.flow_unbound(FlowIndex(0), &key(), soft.take(), &mut Vec::new());
        assert!(inst.describe().contains("1 retired"));
    }

    /// A flow evicted, re-cached and evicted again retires both lives'
    /// counters, not the last one's.
    #[test]
    fn a_flow_retired_twice_adds_both_lives() {
        let mut inst = StatsInstance::default();
        for packets in [1, 2] {
            let mut soft = None;
            for _ in 0..packets {
                ctx_call(&mut inst, &mut soft, 64);
            }
            inst.flow_unbound(FlowIndex(0), &key(), soft.take(), &mut Vec::new());
        }
        let want = FlowCounters {
            packets: 3,
            bytes: 192,
        };
        assert_eq!(inst.retired[key().words()], want);
        assert!(inst.describe().contains("1 retired"));
    }
}
