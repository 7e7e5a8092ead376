//! IPv6 option-processing plugin (the paper's first plugin type: "we use
//! gates for IPv6 option processing…"; an IP option plugin can be "a dozen
//! lines of code").
//!
//! The instance walks the hop-by-hop options header and applies RFC 2460
//! §4.2 semantics: padding is skipped, recognised options are counted,
//! and unrecognised options are handled according to their type's
//! high-order bits (skip / discard).

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use rp_packet::ext_hdr::{ExtHeader, Ipv6Option};
use rp_packet::ipv6::Ipv6Packet;
use rp_packet::{Mbuf, Protocol};
use std::collections::HashMap;

/// A hop-by-hop option-processing instance.
#[derive(Default)]
pub struct Ipv6OptsInstance {
    /// Times each option type was seen.
    seen: HashMap<u8, u64>,
    dropped: u64,
}

impl Ipv6OptsInstance {
    /// Times an option type was seen.
    pub fn seen(&self, kind: u8) -> u64 {
        self.seen.get(&kind).copied().unwrap_or(0)
    }

    /// Packets dropped for carrying must-discard options.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl PluginInstance for Ipv6OptsInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        let Ok(pkt) = Ipv6Packet::new_checked(mbuf.data()) else {
            // Not IPv6 (or malformed): nothing for this gate to do.
            return PluginAction::Continue;
        };
        if pkt.next_header() != Protocol::HopByHop {
            return PluginAction::Continue;
        }
        let Ok(hbh) = ExtHeader::new_checked(pkt.payload()) else {
            return PluginAction::Drop;
        };
        for opt in hbh.options() {
            let Ok(opt) = opt else {
                self.dropped += 1;
                return PluginAction::Drop;
            };
            if opt.is_padding() {
                continue;
            }
            match opt.kind {
                Ipv6Option::ROUTER_ALERT => {
                    *self.seen.entry(opt.kind).or_insert(0) += 1;
                }
                kind => {
                    *self.seen.entry(kind).or_insert(0) += 1;
                    if opt.unrecognised_action() != 0 {
                        // 1/2/3 = discard (we do not generate ICMP here).
                        self.dropped += 1;
                        return PluginAction::Drop;
                    }
                }
            }
        }
        PluginAction::Continue
    }

    fn describe(&self) -> String {
        format!(
            "opt6: {} option kinds seen, {} dropped",
            self.seen.len(),
            self.dropped
        )
    }
}

/// The IPv6-options plugin module.
#[derive(Default)]
pub struct Ipv6OptsPlugin {
    _priv: (),
}

impl Plugin for Ipv6OptsPlugin {
    fn name(&self) -> &str {
        "opt6"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::IPV6_OPTS, 1)
    }

    fn create_instance(&mut self, _config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        Ok(Box::new(Ipv6OptsInstance::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::builder::PacketSpec;
    use rp_packet::mbuf::FlowIndex;
    use std::net::{IpAddr, Ipv6Addr};

    fn v6(a: u16) -> IpAddr {
        IpAddr::V6(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, a))
    }

    fn call(inst: &mut Ipv6OptsInstance, buf: Vec<u8>) -> PluginAction {
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
        let mut inst = Ipv6OptsInstance::default();
        let buf = PacketSpec::udp(v6(1), v6(2), 1, 2, 8)
            .with_hbh_option(Ipv6Option::ROUTER_ALERT, vec![0, 0])
            .build();
        assert_eq!(call(&mut inst, buf), PluginAction::Continue);
        assert_eq!(inst.seen(Ipv6Option::ROUTER_ALERT), 1);
        assert_eq!(inst.dropped(), 0);
    }

    #[test]
    fn unknown_skippable_option_continues() {
        let mut inst = Ipv6OptsInstance::default();
        // Type 0x1E: high bits 00 → skip if unrecognised.
        let buf = PacketSpec::udp(v6(1), v6(2), 1, 2, 8)
            .with_hbh_option(0x1E, vec![1, 2, 3])
            .build();
        assert_eq!(call(&mut inst, buf), PluginAction::Continue);
        assert_eq!(inst.seen(0x1E), 1);
    }

    #[test]
    fn must_discard_option_drops() {
        let mut inst = Ipv6OptsInstance::default();
        // Type 0x40 | x: high bits 01 → discard if unrecognised.
        let buf = PacketSpec::udp(v6(1), v6(2), 1, 2, 8)
            .with_hbh_option(0x41, vec![])
            .build();
        assert_eq!(call(&mut inst, buf), PluginAction::Drop);
        assert_eq!(inst.dropped(), 1);
    }

    #[test]
    fn no_hbh_is_noop() {
        let mut inst = Ipv6OptsInstance::default();
        let buf = PacketSpec::udp(v6(1), v6(2), 1, 2, 8).build();
        assert_eq!(call(&mut inst, buf), PluginAction::Continue);
        // IPv4 packets pass through untouched too.
        let v4buf = PacketSpec::udp(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1,
            2,
            8,
        )
        .build();
        assert_eq!(call(&mut inst, v4buf), PluginAction::Continue);
    }
}
