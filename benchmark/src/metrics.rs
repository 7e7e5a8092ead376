//! Every metric the benchmark reports: name, unit, direction. The same
//! lists are in `BENCHMARK.json` (a test keeps them equal) and are defined
//! in `README.md`.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the router sees; reported with `--trace 0`.
pub const END_TO_END: [Def; 4] = [
    lower("cost_x", "ratio"),
    lower("p99_x", "ratio"),
    lower("mem_mb", "MB"),
    lower("setup_s", "s"),
];

/// One layer each (layer = crate or module); reported with `--trace 1`.
pub const PER_LAYER: [Def; 47] = [
    lower("packet.pool_ns", "ns"),
    lower("packet.tuple_ns", "ns"),
    lower("packet.allocs_per_pkt", "1/pkt"),
    lower("packet.pool_fresh_per_pkt", "1/pkt"),
    lower("classifier.flow_hit_ns", "ns"),
    lower("classifier.flow_miss_ns", "ns"),
    higher("classifier.hit_share", "share"),
    lower("classifier.evicted_per_kpkt", "1/kpkt"),
    lower("classifier.resize_steps", "count"),
    lower("classifier.dag_accesses", "count"),
    lower("classifier.flow_mem_mb", "MB"),
    lower("lpm.lookup_ns", "ns"),
    lower("lpm.accesses", "count"),
    lower("core.ingress_ns", "ns"),
    lower("core.receive_ns", "ns"),
    lower("core.egress_ns", "ns"),
    lower("core.validate_ns", "ns"),
    lower("core.fib_cached_ns", "ns"),
    higher("core.fib_hit_share", "share"),
    lower("core.plugin_calls_per_pkt", "1/pkt"),
    lower("core.gate_ns", "ns"),
    lower("core.mono_ns", "ns"),
    lower("core.tax_ns", "ns"),
    lower("sched.drr_ns", "ns"),
    lower("sched.pump_ns", "ns"),
    lower("sched.mono_drr_ns", "ns"),
    lower("sched.plugin_vs_mono", "ratio"),
    lower("sched.queue_drops", "count"),
    lower("dataplane.dispatch_ns", "ns"),
    lower("dataplane.flush_wait_ns", "ns"),
    lower("dataplane.shard_busy_ns", "ns"),
    lower("dataplane.cpu_ns_per_pkt", "ns"),
    lower("dataplane.tax_x", "ratio"),
    lower("dataplane.overload_shed", "count"),
    lower("ring.push_pop_ns", "ns"),
    lower("ring.wake_us", "us"),
    lower("netdev.dev_rx_ns", "ns"),
    lower("netdev.dev_tx_ns", "ns"),
    lower("netdev.poll_rx_ns", "ns"),
    lower("netdev.poll_tx_ns", "ns"),
    higher("netdev.rx_batch_mean", "count"),
    lower("netdev.device_drops", "count"),
    lower("host.ref_ns", "ns"),
    higher("host.pps_raw", "1/s"),
    lower("host.noise", "ratio"),
    lower("trace.overhead_x", "ratio"),
    higher("trace.coverage", "share"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions in `BENCHMARK.json` are the ones
    /// the binary reports (a dependency-free scan of the file's lines).
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> Option<String> {
            let rest = line.split(&format!("\"{key}\": \"")).nth(1)?;
            Some(rest.split('"').next()?.to_string())
        };
        let listed: Vec<(String, String, String)> = text
            .lines()
            .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?, field(l, "better")?)))
            .collect();
        let ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(listed, ours);
        for w in crate::workloads::NAMES {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
                "workload {w}"
            );
        }
    }
}
