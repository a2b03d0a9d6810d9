//! The OpenMB benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dataplane|move_under_load|tcp_move> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no wrappers in the
//! path. `--trace 1` wraps every layer in the timing wrappers of
//! [`tracing`], prints the per-layer metrics and a layer table, and
//! reports the tracing overhead against an untraced reference run. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md` for every metric and workload.

mod common;
mod dataplane;
mod layers;
mod move_load;
mod tcp_move;
mod tracing;

use common::{metric, peak_rss_mb, ratio, result_json, Args, Outcome};

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "dataplane" => dataplane::run,
        "move_under_load" => move_load::run,
        "tcp_move" => tcp_move::run,
        w => {
            eprintln!("perfbench: unknown workload {w} (dataplane, move_under_load, tcp_move)");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = run(&args);

    let e2e = vec![
        metric("setup_s", out.setup_s, "s"),
        metric("peak_rss_mb", out.peak_rss_mb.unwrap_or_else(peak_rss_mb), "MiB"),
        metric("ops_per_s", out.ops_per_s, "op/s"),
    ];
    let failed_ratio =
        metric("ops_failed_ratio", ratio(out.failed as f64, out.attempted as f64), "ratio");
    println!("end-to-end{}:", if args.trace { " (traced run; not for comparison)" } else { "" });
    for m in e2e.iter().chain([&failed_ratio]).chain(&out.report) {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("  ({} set-ups, {} ops attempted, {} failed)", out.setups, out.attempted, out.failed);
    println!("modeled (virtual time: behaviour checks, never speed metrics):");
    for m in &out.modeled {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for line in &out.table {
        println!("{line}");
    }
    if args.trace {
        println!("per-layer:");
        for m in &out.layers {
            println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
        }
    }
    println!("checks:");
    for (name, ok) in &out.checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAILED" });
    }
    let correct = out.attempted > 0 && out.checks.iter().all(|(_, ok)| *ok);
    let metrics = if args.trace { &out.layers } else { &e2e };
    println!("{}", result_json(correct, out.attempted.max(1), out.failed, metrics));
}
