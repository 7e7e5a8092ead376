//! The Plugin Control Unit (paper §4): "a very simple component managing a
//! table for each plugin type to store the plugin's names and callback
//! functions. Once loaded into the kernel, plugins register their callback
//! function through a function call to the PCU. All control path
//! communication to the plugins goes through the PCU."
//!
//! The PCU owns the plugin registry and each plugin's instance-id map; the
//! instances themselves live in the router's instance table (the
//! [`Supervisor`]), which the instance operations are handed. The PCU does
//! **not** know about filters or flows — `register_instance` /
//! `deregister_instance` need the AIU, so [`crate::router::Router`]
//! orchestrates those and calls back into the PCU for the bookkeeping.

use crate::plugin::{InstanceHandle, InstanceId, Plugin, PluginCode, PluginError, PluginType};
use crate::supervisor::Supervisor;
use std::collections::HashMap;

struct Registered {
    plugin: Box<dyn Plugin>,
    code: PluginCode,
    instances: HashMap<InstanceId, InstanceHandle>,
    next_instance: u32,
}

/// The PCU.
#[derive(Default)]
pub struct Pcu {
    plugins: HashMap<String, Registered>,
}

impl Pcu {
    /// Empty PCU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a loaded plugin's callback object (what a module does on
    /// `modload`). Fails if the name is taken.
    pub fn register(&mut self, plugin: Box<dyn Plugin>) -> Result<(), PluginError> {
        let name = plugin.name().to_string();
        if self.plugins.contains_key(&name) {
            return Err(PluginError::Busy(format!("plugin {name} already loaded")));
        }
        let code = plugin.code();
        self.plugins.insert(
            name,
            Registered {
                plugin,
                code,
                instances: HashMap::new(),
                next_instance: 0,
            },
        );
        Ok(())
    }

    /// Unregister a plugin (module unload). Refused while instances live.
    pub fn unregister(&mut self, name: &str) -> Result<(), PluginError> {
        let reg = self
            .plugins
            .get(name)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))?;
        if !reg.instances.is_empty() {
            return Err(PluginError::Busy(format!(
                "plugin {name} has {} live instance(s)",
                reg.instances.len()
            )));
        }
        self.plugins.remove(name);
        Ok(())
    }

    /// Loaded plugin names (sorted, for `pmgr info`).
    pub fn plugin_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.plugins.keys().cloned().collect();
        v.sort();
        v
    }

    /// A plugin's code.
    pub fn code(&self, name: &str) -> Result<PluginCode, PluginError> {
        self.plugins
            .get(name)
            .map(|r| r.code)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))
    }

    /// Plugins of a given type (gate dispatch uses the AIU, but diagnostics
    /// want this view).
    pub fn plugins_of_type(&self, ty: PluginType) -> Vec<String> {
        let mut v: Vec<String> = self
            .plugins
            .iter()
            .filter(|(_, r)| r.code.plugin_type() == ty)
            .map(|(n, _)| n.clone())
            .collect();
        v.sort();
        v
    }

    fn registered(&mut self, name: &str) -> Result<&mut Registered, PluginError> {
        self.plugins
            .get_mut(name)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))
    }

    /// `create_instance`: forward to the plugin, seat the instance in
    /// `table`.
    pub fn create_instance(
        &mut self,
        name: &str,
        config: &str,
        table: &mut Supervisor,
    ) -> Result<(InstanceId, InstanceHandle), PluginError> {
        let reg = self.registered(name)?;
        let inst = reg.plugin.create_instance(config)?;
        let id = InstanceId(reg.next_instance);
        reg.next_instance += 1;
        let handle = table.insert(name, id, config, inst);
        reg.instances.insert(id, handle);
        Ok((id, handle))
    }

    /// `free_instance`: free the instance's slot and notify the plugin.
    /// The caller (Router) must already have purged flow/filter bindings.
    pub fn free_instance(
        &mut self,
        name: &str,
        id: InstanceId,
        table: &mut Supervisor,
    ) -> Result<(), PluginError> {
        let reg = self.registered(name)?;
        let handle = reg
            .instances
            .remove(&id)
            .ok_or(PluginError::NoSuchInstance(id))?;
        if let Some(mut inst) = table.remove(handle) {
            reg.plugin.free_instance(inst.as_mut());
        }
        Ok(())
    }

    /// Rebuild a quarantined instance in place: tear down what is left of
    /// the old one, build a fresh one from the plugin's factory with the
    /// original config and seat it in the same slot of `table`. The old
    /// id is retired either way; on `Err` the slot stays empty for a
    /// later attempt.
    pub(crate) fn restart_instance(
        &mut self,
        name: &str,
        old: (InstanceId, InstanceHandle),
        config: &str,
        table: &mut Supervisor,
    ) -> Result<(InstanceId, InstanceHandle), PluginError> {
        let reg = self.registered(name)?;
        reg.instances.remove(&old.0);
        if let Some(mut inst) = table.take_instance(old.1) {
            reg.plugin.free_instance(inst.as_mut());
        }
        let inst = reg.plugin.create_instance(config)?;
        let id = InstanceId(reg.next_instance);
        let handle = table
            .complete_restart(old.1, id, inst)
            .ok_or(PluginError::NoSuchInstance(old.0))?;
        reg.next_instance += 1;
        reg.instances.insert(id, handle);
        Ok((id, handle))
    }

    /// The handle of an instance.
    pub fn instance(&self, name: &str, id: InstanceId) -> Result<InstanceHandle, PluginError> {
        self.plugins
            .get(name)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))?
            .instances
            .get(&id)
            .copied()
            .ok_or(PluginError::NoSuchInstance(id))
    }

    /// Instances of a plugin (sorted ids).
    pub fn instances(&self, name: &str) -> Result<Vec<InstanceId>, PluginError> {
        let reg = self
            .plugins
            .get(name)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))?;
        let mut v: Vec<InstanceId> = reg.instances.keys().copied().collect();
        v.sort();
        Ok(v)
    }

    /// Dispatch a plugin-specific message.
    pub fn custom_message(
        &mut self,
        name: &str,
        instance: Option<InstanceId>,
        msg: &str,
        args: &str,
        table: &mut Supervisor,
    ) -> Result<String, PluginError> {
        let reg = self.registered(name)?;
        let inst = match instance {
            Some(id) => Some(
                reg.instances
                    .get(&id)
                    .and_then(|h| table.instance_mut(*h))
                    .ok_or(PluginError::NoSuchInstance(id))?,
            ),
            None => None,
        };
        reg.plugin.custom_message(inst, msg, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PacketCtx, PluginAction, PluginInstance};
    use crate::supervisor::FaultPolicy;
    use rp_packet::Mbuf;

    struct NullInstance;
    impl PluginInstance for NullInstance {
        fn handle_packet(&mut self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
            PluginAction::Continue
        }
    }

    struct TestPlugin {
        created: u32,
    }
    impl Plugin for TestPlugin {
        fn name(&self) -> &str {
            "test"
        }
        fn code(&self) -> PluginCode {
            PluginCode::new(PluginType::STATS, 1)
        }
        fn create_instance(
            &mut self,
            config: &str,
        ) -> Result<Box<dyn PluginInstance>, PluginError> {
            if config == "bad" {
                return Err(PluginError::BadConfig("bad".into()));
            }
            self.created += 1;
            Ok(Box::new(NullInstance))
        }
        fn custom_message(
            &mut self,
            instance: Option<&mut dyn PluginInstance>,
            name: &str,
            args: &str,
        ) -> Result<String, PluginError> {
            match name {
                "echo" => Ok(format!(
                    "{}{}",
                    args,
                    if instance.is_some() { "@inst" } else { "" }
                )),
                other => Err(PluginError::UnknownMessage(other.to_string())),
            }
        }
    }

    fn pcu() -> (Pcu, Supervisor) {
        let mut p = Pcu::new();
        p.register(Box::new(TestPlugin { created: 0 })).unwrap();
        (p, Supervisor::new(FaultPolicy::default()))
    }

    #[test]
    fn lifecycle() {
        let (mut p, mut t) = pcu();
        assert_eq!(p.plugin_names(), vec!["test"]);
        let (id, _inst) = p.create_instance("test", "", &mut t).unwrap();
        assert_eq!(p.instances("test").unwrap(), vec![id]);
        // Unload refused while the instance lives.
        assert!(matches!(p.unregister("test"), Err(PluginError::Busy(_))));
        p.free_instance("test", id, &mut t).unwrap();
        assert!(p.instances("test").unwrap().is_empty());
        p.unregister("test").unwrap();
        assert!(p.plugin_names().is_empty());
    }

    #[test]
    fn duplicate_and_missing() {
        let (mut p, mut t) = pcu();
        assert!(matches!(
            p.register(Box::new(TestPlugin { created: 0 })),
            Err(PluginError::Busy(_))
        ));
        assert!(matches!(
            p.create_instance("nope", "", &mut t),
            Err(PluginError::NoSuchPlugin(_))
        ));
        assert!(matches!(
            p.free_instance("test", InstanceId(7), &mut t),
            Err(PluginError::NoSuchInstance(_))
        ));
    }

    #[test]
    fn bad_config_propagates() {
        let (mut p, mut t) = pcu();
        assert!(matches!(
            p.create_instance("test", "bad", &mut t),
            Err(PluginError::BadConfig(_))
        ));
    }

    #[test]
    fn custom_messages() {
        let (mut p, mut t) = pcu();
        let (id, _) = p.create_instance("test", "", &mut t).unwrap();
        assert_eq!(
            p.custom_message("test", None, "echo", "hi", &mut t)
                .unwrap(),
            "hi"
        );
        assert_eq!(
            p.custom_message("test", Some(id), "echo", "hi", &mut t)
                .unwrap(),
            "hi@inst"
        );
        assert!(matches!(
            p.custom_message("test", None, "bogus", "", &mut t),
            Err(PluginError::UnknownMessage(_))
        ));
        assert!(matches!(
            p.custom_message("test", Some(InstanceId(99)), "echo", "", &mut t),
            Err(PluginError::NoSuchInstance(_))
        ));
    }

    #[test]
    fn type_query() {
        let (p, _) = pcu();
        assert_eq!(p.plugins_of_type(PluginType::STATS), vec!["test"]);
        assert!(p.plugins_of_type(PluginType::PACKET_SCHED).is_empty());
        assert_eq!(
            p.code("test").unwrap(),
            PluginCode::new(PluginType::STATS, 1)
        );
    }
}
