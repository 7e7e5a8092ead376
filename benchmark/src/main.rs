//! The benchmark of record: one workload per invocation, costed against the
//! frozen reference forwarder on interleaved slices. See `README.md`.
//!
//! `rp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`.

mod gen;
mod host;
mod metrics;
mod oracle;
mod refwd;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: rp-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut plan = run::Plan::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        let ok = match flag.as_str() {
            "--workload" => {
                plan.workload = value;
                workloads::NAMES.contains(&plan.workload.as_str())
            }
            "--seed" => value.parse().map(|v| plan.seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| plan.seconds = v).is_ok() && plan.seconds > 0.0,
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    plan.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            usage();
        }
    }
    if plan.workload.is_empty() {
        usage();
    }
    let report = run::run(&plan);
    report.print(&plan);
    std::process::exit(if report.correct() { 0 } else { 1 });
}
