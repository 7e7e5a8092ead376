//! The dynamic-loading analogue of NetBSD's `modload` (paper §3.1).
//!
//! In the paper, plugins are kernel modules loaded with `modload`; on
//! load they register a callback with the PCU. A safe-Rust user-space
//! reproduction cannot `dlopen` kernel modules, so the loader models the
//! same lifecycle with **named plugin factories**: a factory is
//! "available on disk"; `load` instantiates the plugin and registers it
//! with the PCU; `unload` unregisters (refused while instances live, as
//! `modunload` would be). Factories can be added at run time, which is
//! what "third parties introduce additional plugin types once the code is
//! released" looks like in this model.

use crate::pcu::Pcu;
use crate::plugin::{Plugin, PluginError};
use std::collections::HashMap;
use std::sync::Arc;

/// A function that constructs a fresh plugin object (the module's entry
/// point). Shared (`Arc` + `Sync`) so one registry — the modules "on
/// disk" — can serve every shard of a parallel data plane: each shard
/// loads its own plugin object and instances from the same factory.
pub type PluginFactory = Arc<dyn Fn() -> Box<dyn Plugin> + Send + Sync>;

/// The module loader.
#[derive(Default)]
pub struct PluginLoader {
    factories: HashMap<String, PluginFactory>,
    loaded: Vec<String>,
}

impl PluginLoader {
    /// Empty loader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make a plugin available for loading (put the module "on disk").
    pub fn add_factory(
        &mut self,
        name: &str,
        factory: impl Fn() -> Box<dyn Plugin> + Send + Sync + 'static,
    ) -> Result<(), PluginError> {
        if self.factories.contains_key(name) {
            return Err(PluginError::Busy(format!("factory {name} already exists")));
        }
        self.factories.insert(name.to_string(), Arc::new(factory));
        Ok(())
    }

    /// A fresh loader (nothing loaded) sharing this loader's factory
    /// registry. This is how a parallel data plane hands every shard the
    /// same set of modules "on disk": the factories are shared, while each
    /// shard's load state and plugin objects stay its own.
    pub fn share_factories(&self) -> PluginLoader {
        PluginLoader {
            factories: self.factories.clone(),
            loaded: Vec::new(),
        }
    }

    /// Names available to load (sorted).
    pub fn available(&self) -> Vec<String> {
        let mut v: Vec<String> = self.factories.keys().cloned().collect();
        v.sort();
        v
    }

    /// Names currently loaded (sorted).
    pub fn loaded(&self) -> Vec<String> {
        let mut v = self.loaded.clone();
        v.sort();
        v
    }

    /// `modload`: instantiate the plugin and register its callback with
    /// the PCU.
    pub fn load(&mut self, name: &str, pcu: &mut Pcu) -> Result<(), PluginError> {
        if self.loaded.iter().any(|n| n == name) {
            return Err(PluginError::Busy(format!("plugin {name} already loaded")));
        }
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| PluginError::NoSuchPlugin(name.to_string()))?;
        let plugin = factory();
        if plugin.name() != name {
            return Err(PluginError::BadConfig(format!(
                "factory {name} built a plugin named {}",
                plugin.name()
            )));
        }
        pcu.register(plugin)?;
        self.loaded.push(name.to_string());
        Ok(())
    }

    /// `modunload`: unregister from the PCU (refused while instances
    /// live).
    pub fn unload(&mut self, name: &str, pcu: &mut Pcu) -> Result<(), PluginError> {
        if !self.loaded.iter().any(|n| n == name) {
            return Err(PluginError::NoSuchPlugin(name.to_string()));
        }
        pcu.unregister(name)?;
        self.loaded.retain(|n| n != name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugin::{PacketCtx, PluginAction, PluginCode, PluginInstance, PluginType};
    use crate::supervisor::{FaultPolicy, Supervisor};
    use rp_packet::Mbuf;

    struct Null;
    impl PluginInstance for Null {
        fn handle_packet(&mut self, _m: &mut Mbuf, _c: &mut PacketCtx<'_>) -> PluginAction {
            PluginAction::Continue
        }
    }
    struct P(&'static str);
    impl Plugin for P {
        fn name(&self) -> &str {
            self.0
        }
        fn code(&self) -> PluginCode {
            PluginCode::new(PluginType::STATS, 0)
        }
        fn create_instance(&mut self, _c: &str) -> Result<Box<dyn PluginInstance>, PluginError> {
            Ok(Box::new(Null))
        }
    }

    #[test]
    fn load_unload_cycle() {
        let mut loader = PluginLoader::new();
        let mut pcu = Pcu::new();
        loader
            .add_factory("stats", || Box::new(P("stats")))
            .unwrap();
        assert_eq!(loader.available(), vec!["stats"]);
        loader.load("stats", &mut pcu).unwrap();
        assert_eq!(loader.loaded(), vec!["stats"]);
        assert!(matches!(
            loader.load("stats", &mut pcu),
            Err(PluginError::Busy(_))
        ));
        loader.unload("stats", &mut pcu).unwrap();
        assert!(loader.loaded().is_empty());
        // Can load again after unload.
        loader.load("stats", &mut pcu).unwrap();
    }

    #[test]
    fn unload_refused_with_instances() {
        let mut loader = PluginLoader::new();
        let mut pcu = Pcu::new();
        loader
            .add_factory("stats", || Box::new(P("stats")))
            .unwrap();
        loader.load("stats", &mut pcu).unwrap();
        let mut table = Supervisor::new(FaultPolicy::default());
        let (id, _) = pcu.create_instance("stats", "", &mut table).unwrap();
        assert!(matches!(
            loader.unload("stats", &mut pcu),
            Err(PluginError::Busy(_))
        ));
        pcu.free_instance("stats", id, &mut table).unwrap();
        loader.unload("stats", &mut pcu).unwrap();
    }

    #[test]
    fn misbehaving_factory_rejected() {
        let mut loader = PluginLoader::new();
        let mut pcu = Pcu::new();
        loader
            .add_factory("alias", || Box::new(P("other")))
            .unwrap();
        assert!(matches!(
            loader.load("alias", &mut pcu),
            Err(PluginError::BadConfig(_))
        ));
        assert!(loader.loaded().is_empty());
    }

    #[test]
    fn unknown_names() {
        let mut loader = PluginLoader::new();
        let mut pcu = Pcu::new();
        assert!(matches!(
            loader.load("nope", &mut pcu),
            Err(PluginError::NoSuchPlugin(_))
        ));
        assert!(matches!(
            loader.unload("nope", &mut pcu),
            Err(PluginError::NoSuchPlugin(_))
        ));
    }
}
