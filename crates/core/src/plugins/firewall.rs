//! Firewall plugin — one of the paper's motivating applications (§2:
//! "security devices like Firewalls … quickly and efficiently classify
//! packets into flows, and apply different policies to different flows").
//!
//! Policy is expressed through the AIU: bind a `deny` instance to the
//! filters describing forbidden traffic and (optionally) an `allow`
//! instance to exception flows — the most-specific-match rule then gives
//! firewall semantics (specific allows punch holes in broad denies).

use crate::plugin::{
    PacketCtx, Plugin, PluginAction, PluginCode, PluginError, PluginInstance, PluginType,
};
use crate::plugins::config_map;
use rp_packet::Mbuf;

/// What a firewall instance does with matched packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwAction {
    /// Let matched packets through.
    Allow,
    /// Drop matched packets.
    Deny,
}

/// A firewall instance.
pub struct FirewallInstance {
    action: FwAction,
    matched: u64,
}

impl FirewallInstance {
    /// Packets that hit this instance.
    pub fn matched(&self) -> u64 {
        self.matched
    }
}

impl PluginInstance for FirewallInstance {
    fn handle_packet(&mut self, _mbuf: &mut Mbuf, _ctx: &mut PacketCtx<'_>) -> PluginAction {
        self.matched += 1;
        match self.action {
            FwAction::Allow => PluginAction::Continue,
            FwAction::Deny => PluginAction::Drop,
        }
    }

    fn describe(&self) -> String {
        format!("firewall {:?}: {} matched", self.action, self.matched())
    }
}

/// The firewall plugin module.
#[derive(Default)]
pub struct FirewallPlugin {
    _priv: (),
}

impl Plugin for FirewallPlugin {
    fn name(&self) -> &str {
        "firewall"
    }

    fn code(&self) -> PluginCode {
        PluginCode::new(PluginType::FIREWALL, 1)
    }

    /// Config: `action=allow|deny` (default deny).
    fn create_instance(&mut self, config: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
        let map = config_map(config);
        let action = match map.get("action").map(String::as_str) {
            None | Some("deny") => FwAction::Deny,
            Some("allow") => FwAction::Allow,
            Some(other) => {
                return Err(PluginError::BadConfig(format!("action={other}")));
            }
        };
        Ok(Box::new(FirewallInstance { action, matched: 0 }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use rp_packet::mbuf::FlowIndex;

    fn call(inst: &mut dyn PluginInstance) -> PluginAction {
        let mut m = Mbuf::new(vec![0u8; 20], 0);
        let mut soft = None;
        let mut ctx = PacketCtx {
            gate: Gate::Firewall,
            now_ns: 0,
            fix: FlowIndex(0),
            filter: None,
            soft_state: &mut soft,
            cost_ns: 0,
        };
        inst.handle_packet(&mut m, &mut ctx)
    }

    #[test]
    fn deny_drops_allow_continues() {
        let mut p = FirewallPlugin::default();
        let mut deny = p.create_instance("action=deny").unwrap();
        let mut allow = p.create_instance("action=allow").unwrap();
        let mut default = p.create_instance("").unwrap();
        assert_eq!(call(deny.as_mut()), PluginAction::Drop);
        assert_eq!(call(allow.as_mut()), PluginAction::Continue);
        assert_eq!(call(default.as_mut()), PluginAction::Drop);
        assert!(deny.describe().contains("1 matched"));
    }

    #[test]
    fn bad_action_rejected() {
        let mut p = FirewallPlugin::default();
        assert!(matches!(
            p.create_instance("action=explode"),
            Err(PluginError::BadConfig(_))
        ));
    }
}
