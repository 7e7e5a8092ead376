//! Bundled plugins.
//!
//! The paper ships IPv6-option, IP-security, packet-scheduling and BMP
//! plugins and lists several "envisioned" types (§4): statistics
//! gathering, congestion control (RED), firewalling, routing. All of
//! those are implemented here as loadable modules for the
//! [`crate::loader::PluginLoader`]. (The BMP plugins live in `rp-lpm` and
//! are selected per DAG level through
//! [`rp_classifier::BmpKind`] — they plug into the classifier, not into a
//! gate.)

pub mod chaos;
pub mod firewall;
pub mod ipsec;
pub mod ipv4_opts;
pub mod ipv6_opts;
pub mod null;
pub mod routing;
pub mod sched;
pub mod stats;
pub mod tcp_monitor;

use crate::loader::PluginLoader;

/// Register every built-in plugin factory with a loader ("put the modules
/// on disk"). Individual plugins still need `load_plugin` to become live.
// Each name is registered exactly once into a caller-supplied loader, so
// a duplicate-name failure here is a compile-time-style programming error
// worth an immediate panic, not a recoverable condition.
#[allow(clippy::expect_used)]
pub fn register_builtin_factories(loader: &mut PluginLoader) {
    loader
        .add_factory("null", || Box::new(null::NullPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("stats", || Box::new(stats::StatsPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("firewall", || Box::new(firewall::FirewallPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("l4route", || Box::new(routing::RoutingPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("opt6", || Box::new(ipv6_opts::Ipv6OptsPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("ah", || Box::new(ipsec::AhPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("esp", || Box::new(ipsec::EspPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("drr", || Box::new(sched::DrrPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("hfsc", || Box::new(sched::HfscPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("fifo", || Box::new(sched::FifoPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("red", || Box::new(sched::RedPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("hsf", || Box::new(sched::HsfPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("opt4", || Box::new(ipv4_opts::Ipv4OptsPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("tcpmon", || {
            Box::new(tcp_monitor::TcpMonitorPlugin::default())
        })
        .expect("fresh loader");
    loader
        .add_factory("vclock", || Box::new(sched::VcPlugin::default()))
        .expect("fresh loader");
    loader
        .add_factory("chaos", || Box::new(chaos::ChaosPlugin::default()))
        .expect("fresh loader");
}

/// Parse `key=value` pairs from an instance-config string. Unknown keys
/// are the caller's problem; missing keys fall back to defaults.
pub(crate) fn config_map(config: &str) -> std::collections::HashMap<String, String> {
    config
        .split_whitespace()
        .filter_map(|tok| {
            tok.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        })
        .collect()
}

/// Fetch a numeric config value with a default.
pub(crate) fn config_num<T: std::str::FromStr>(
    map: &std::collections::HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, crate::plugin::PluginError> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| crate::plugin::PluginError::BadConfig(format!("bad {key}={v}"))),
    }
}

/// The instance a control message names, as the receiving plugin's own
/// instance type.
pub(crate) fn target<'a, T: crate::plugin::PluginInstance>(
    instance: Option<&'a mut dyn crate::plugin::PluginInstance>,
    plugin: &str,
) -> Result<&'a mut T, crate::plugin::PluginError> {
    use crate::plugin::PluginError::BadConfig;
    instance
        .ok_or_else(|| BadConfig("message needs an instance".into()))?
        .downcast_mut()
        .ok_or_else(|| BadConfig(format!("not a {plugin} instance")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtins_load() {
        let mut loader = PluginLoader::new();
        register_builtin_factories(&mut loader);
        let mut pcu = crate::pcu::Pcu::new();
        for name in loader.available() {
            loader.load(&name, &mut pcu).unwrap();
        }
        assert_eq!(loader.loaded().len(), 16);
    }

    #[test]
    fn config_parsing() {
        let m = config_map("quantum=1500 limit=64 name=x");
        assert_eq!(config_num(&m, "quantum", 0u32).unwrap(), 1500);
        assert_eq!(config_num(&m, "missing", 7u32).unwrap(), 7);
        assert!(config_num(&m, "name", 0u32).is_err());
    }
}
