//! Flow-aware routing plugin — the paper's §8 future work realised:
//! "By unifying routing and packet classification, we get QoS-based
//! routing / Level 4 switching for free."
//!
//! An instance carries an egress interface; binding it to a six-tuple
//! filter routes matching flows out that interface *based on the full
//! classification*, overriding the destination-only core routing table.

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use crate::plugins::{config_map, config_num};
use rp_packet::mbuf::IfIndex;
use rp_packet::Mbuf;

/// An L4-switching instance: forces matched flows out one interface.
pub struct RoutingInstance {
    tx_if: IfIndex,
    switched: u64,
}

impl RoutingInstance {
    /// Packets steered by this instance.
    pub fn switched(&self) -> u64 {
        self.switched
    }
}

impl PluginInstance for RoutingInstance {
    fn handle_packet(&mut self, mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        mbuf.tx_if = Some(self.tx_if);
        self.switched += 1;
        PluginAction::Continue
    }

    fn describe(&self) -> String {
        format!("l4route → if{}: {} switched", self.tx_if, self.switched())
    }
}

/// The routing plugin module.
#[derive(Default)]
pub struct RoutingPlugin {
    _priv: (),
}

impl Plugin for RoutingPlugin {
    fn name(&self) -> &str {
        "l4route"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::ROUTING, 1)
    }

    /// Config: `tx_if=<n>` (required).
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        if !map.contains_key("tx_if") {
            return Err(PluginError::BadConfig("tx_if=<n> required".to_string()));
        }
        let tx_if: IfIndex = config_num(&map, "tx_if", 0)?;
        Ok(Box::new(RoutingInstance { tx_if, switched: 0 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::mbuf::FlowIndex;

    #[test]
    fn sets_egress() {
        let mut p = RoutingPlugin::default();
        let mut inst = p.create_instance("tx_if=3").unwrap();
        let mut m = Mbuf::new(vec![0u8; 20], 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Routing,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        assert_eq!(inst.handle_packet(&mut m, &mut ctx), PluginAction::Continue);
        assert_eq!(m.tx_if, Some(3));
        assert!(inst.describe().contains("if3"));
    }

    #[test]
    fn missing_config_rejected() {
        let mut p = RoutingPlugin::default();
        assert!(matches!(
            p.create_instance(""),
            Err(PluginError::BadConfig(_))
        ));
    }
}
