//! IPv4 option-processing plugin — the paper's canonical trivial plugin
//! ("a dozen lines of code for an IP option plugin", §4). Counts
//! recognised options; drops packets whose option area is malformed or
//! carries source routing (which a security-conscious router refuses).

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use rp_packet::ipv4::Ipv4Packet;
use rp_packet::ipv4_opts::{OptionIter, OptionKind};
use rp_packet::Mbuf;
use std::collections::HashMap;

/// Loose/strict source route kinds (refused, as most routers do).
const LSRR: u8 = 131;
const SSRR: u8 = 137;

/// An IPv4 option-processing instance.
#[derive(Default)]
pub struct Ipv4OptsInstance {
    seen: HashMap<u8, u64>,
    dropped: u64,
}

impl Ipv4OptsInstance {
    /// Times an option kind was seen.
    pub fn seen(&self, kind: u8) -> u64 {
        self.seen.get(&kind).copied().unwrap_or(0)
    }

    /// Packets dropped (malformed options or source routing).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl PluginInstance for Ipv4OptsInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        let Ok(pkt) = Ipv4Packet::new_checked(mbuf.data()) else {
            return PluginAction::Continue; // not IPv4: out of scope
        };
        if pkt.header_len() == 20 {
            return PluginAction::Continue; // no options
        }
        for opt in OptionIter::from_slice(pkt.options()) {
            let Ok(opt) = opt else {
                self.dropped += 1;
                return PluginAction::Drop;
            };
            if opt.kind == OptionKind::NOP {
                continue;
            }
            *self.seen.entry(opt.kind.0).or_insert(0) += 1;
            if opt.kind.0 == LSRR || opt.kind.0 == SSRR {
                self.dropped += 1;
                return PluginAction::Drop;
            }
        }
        PluginAction::Continue
    }

    fn describe(&self) -> String {
        format!(
            "opt4: {} option kinds seen, {} dropped",
            self.seen.len(),
            self.dropped()
        )
    }
}

/// The IPv4-options plugin module.
#[derive(Default)]
pub struct Ipv4OptsPlugin {
    _priv: (),
}

impl Plugin for Ipv4OptsPlugin {
    fn name(&self) -> &str {
        "opt4"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::IPV6_OPTS, 2)
    }

    fn create_instance(&mut self, _config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(Ipv4OptsInstance::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::builder::PacketSpec;
    use rp_packet::mbuf::FlowIndex;
    use std::net::IpAddr;

    fn v4(d: u8) -> IpAddr {
        format!("10.0.0.{d}").parse().unwrap()
    }

    fn call(inst: &mut Ipv4OptsInstance, buf: Vec<u8>) -> PluginAction {
        let mut m = Mbuf::new(buf, 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Ipv6Options,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx)
    }

    #[test]
    fn router_alert_counted() {
        let mut inst = Ipv4OptsInstance::default();
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 16)
            .with_v4_option(OptionKind::ROUTER_ALERT.0, vec![0, 0])
            .build();
        assert_eq!(call(&mut inst, buf), PluginAction::Continue);
        assert_eq!(inst.seen(OptionKind::ROUTER_ALERT.0), 1);
    }

    #[test]
    fn source_routing_refused() {
        let mut inst = Ipv4OptsInstance::default();
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 16)
            .with_v4_option(LSRR, vec![4, 0, 0, 0, 0])
            .build();
        assert_eq!(call(&mut inst, buf), PluginAction::Drop);
        assert_eq!(inst.dropped(), 1);
    }

    #[test]
    fn no_options_is_noop() {
        let mut inst = Ipv4OptsInstance::default();
        let buf = PacketSpec::udp(v4(1), v4(2), 1, 2, 16).build();
        assert_eq!(call(&mut inst, buf), PluginAction::Continue);
        assert!(inst.describe().contains("0 option kinds"));
    }
}
