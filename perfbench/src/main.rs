//! `perfbench` — one benchmark for the federation server.
//!
//! ```text
//! perfbench --workload <zipf-forest|cold-residual|mutate-repair>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload against an in-process server started with
//! `serve` on the waxman-400 world, checks every answer, and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Diagnostic lines come before it. See README.md.

#![deny(unsafe_code)]

mod calib;
mod check;
mod gen;
mod live;
mod pin;
mod replay;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use live::{MutationKind, Phase};
use replay::Replay;
use workloads::{Run, Workload};

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The median by the server's own rank rule (`latency_p50_us`), so that
/// client-side medians of the same requests compare with it.
fn server_p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[((sorted.len() - 1) * 50 + 50) / 100]
}

/// The `q`-quantile of `values` by nearest rank (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics of an untraced run. Times and rates are given at
/// the reference host speed ([`calib`]).
fn end_to_end(run: &Run) -> Vec<Metric> {
    let speed = run.calibrator.speed();
    let samples = |kind: &str| run.live.samples.get(kind).cloned().unwrap_or_default();
    let p50_ms = |kind: &str| median(&samples(kind)) * speed;
    let setups: Vec<f64> = run.setups.iter().map(Duration::as_secs_f64).collect();
    vec![
        m("setup_s", median(&setups) * speed, "s"),
        m("ops_per_s", run.live.blocks.median(None) / speed, "ops/s"),
        m("federate_p50_ms", p50_ms("federate"), "ms"),
        m(
            "federate_p90_ms",
            percentile(&samples("federate"), 0.9) * speed,
            "ms",
        ),
        m("release_p50_ms", p50_ms("release"), "ms"),
        m("mutate_cut_p50_ms", p50_ms("cut"), "ms"),
        m("mutate_restore_p50_ms", p50_ms("restore"), "ms"),
        m("mutate_fail_p50_ms", p50_ms("fail"), "ms"),
        m("repaired_per_mutation", mean(&samples("repaired")), "count"),
        m("flow_kbps_mean", mean(&samples("flow_kbps")), "kbit/s"),
        m("rss_peak_mib", sys::rss_peak_mib(), "MiB"),
    ]
}

/// The requests whose server-side time the `server.*` metrics reconcile:
/// on zipf-forest the last 4096 measured requests (the span of the
/// server's latency window), elsewhere the kept set-up's cold federates —
/// the only requests a fresh server has executed when its counters are
/// read after set-up.
fn reconciled(run: &Run, workload: Workload) -> (Vec<usize>, u64) {
    let log = run.live.log.as_deref().unwrap_or_default();
    match workload {
        Workload::ZipfForest => {
            let measured: Vec<usize> = (0..log.len())
                .filter(|&i| log[i].phase == Phase::Measured)
                .collect();
            let tail = measured.len().saturating_sub(4096);
            (measured[tail..].to_vec(), run.stats[1].latency_p50_us)
        }
        _ => {
            let setup = (0..log.len())
                .filter(|&i| log[i].phase == Phase::Setup)
                .collect();
            (setup, run.stats[0].latency_p50_us)
        }
    }
}

/// The per-layer metrics of a traced run, and the reconciliation report.
fn per_layer(
    run: &Run,
    replay: &Replay,
    replayed: usize,
    workload: Workload,
    report: &mut String,
) -> Vec<Metric> {
    let log = run.live.log.as_deref().unwrap_or_default();
    let rec = &replay.rec;
    let us = |name: &str| rec.totals(name).mean_self_us();
    let mean_ms_of = |name: &str| rec.totals(name).mean_self_us() / 1e3;

    let measured_publishes = replay
        .publishes
        .iter()
        .filter(|p| p.phase == Phase::Measured)
        .count();
    let trees_per_publish: Vec<f64> = replay
        .publishes
        .iter()
        .map(|p| p.trees_recomputed as f64)
        .collect();
    let trees = |kind: Option<MutationKind>| -> f64 {
        let picked: Vec<f64> = replay
            .mutations
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, stats)| stats.trees_recomputed as f64)
            .collect();
        mean(&picked)
    };
    let [after_setup, after_measured, _] = &run.stats;
    let hits = (after_measured.cache_hits - after_setup.cache_hits) as f64;
    let misses = (after_measured.cache_misses - after_setup.cache_misses) as f64;
    let wakeups = (after_measured.reactor_wakeups - after_setup.reactor_wakeups) as f64;
    let measured_ops = run.measured_ops.max(1) as f64;

    let (population, execute_us) = reconciled(run, workload);
    let rtts: Vec<f64> = population
        .iter()
        .map(|&i| (log[i].received - log[i].sent).as_secs_f64() * 1e6)
        .collect();
    let stages: Vec<f64> = population
        .iter()
        .map(|&i| replay.stage_ns[i] as f64 / 1e3)
        .collect();
    let rtt_p50 = server_p50(&rtts);
    let stage_p50 = server_p50(&stages);
    let execute = execute_us as f64;
    let _ = writeln!(
        report,
        "reconcile: {} requests ({}): replayed stage sum p50 {stage_p50:.1} us, live execute \
         p50 {execute:.1} us (gap {:.1} us: sessions lock and bookkeeping); client round trip \
         p50 {rtt_p50:.1} us (gap {:.1} us: wire, reactor and queue)",
        population.len(),
        if workload == Workload::ZipfForest {
            "last measured"
        } else {
            "set-up cold federates"
        },
        execute - stage_p50,
        rtt_p50 - execute,
    );
    let traced = run.live.blocks.median(Some(true));
    let untraced = run.live.blocks.median(Some(false));
    vec![
        m(
            "net.fixture_build_ms",
            mean(
                &run.fixture_builds
                    .iter()
                    .map(|d| ms(*d))
                    .collect::<Vec<_>>(),
            ),
            "ms",
        ),
        m("core.parse_us", us("core.parse"), "us"),
        m("core.solve_us", us("core.solve"), "us"),
        m("core.repair_us", us("core.repair"), "us"),
        m("routing.apply_ms", mean_ms_of("routing.apply"), "ms"),
        m("routing.trees_recomputed", trees(None), "count"),
        m(
            "routing.trees_recomputed.cut",
            trees(Some(MutationKind::Cut)),
            "count",
        ),
        m(
            "routing.trees_recomputed.restore",
            trees(Some(MutationKind::Restore)),
            "count",
        ),
        m(
            "routing.trees_recomputed.fail",
            trees(Some(MutationKind::Fail)),
            "count",
        ),
        m("snapshot.lookup_us", us("snapshot.lookup"), "us"),
        m(
            "snapshot.hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        m(
            "load.publish_open_ms",
            mean_ms_of("load.publish_open"),
            "ms",
        ),
        m(
            "load.publish_release_ms",
            mean_ms_of("load.publish_release"),
            "ms",
        ),
        m(
            "load.trees_recomputed_per_publish",
            mean(&trees_per_publish),
            "count",
        ),
        m("load.publishes", measured_publishes as f64, "count"),
        m("load.rebase_ms", mean_ms_of("load.rebase"), "ms"),
        m("wire.encode_us", us("wire.encode"), "us"),
        m("wire.decode_us", us("wire.decode"), "us"),
        m(
            "wire.bytes_per_op",
            replay.wire_bytes as f64 / replayed.max(1) as f64,
            "B",
        ),
        m("reactor.wakeups_per_op", wakeups / measured_ops, "count"),
        m("client.rtt_p50_us", rtt_p50, "us"),
        m("server.execute_p50_us", execute, "us"),
        m("server.io_queue_us", rtt_p50 - execute, "us"),
        m("server.unaccounted_us", execute - stage_p50, "us"),
        m(
            "load.self_overbooked",
            run.live.self_overbooked as f64,
            "count",
        ),
        m("mem.rss_setup_mib", run.rss_setup_mib, "MiB"),
        m("host.speed", run.calibrator.speed(), "ratio"),
        m(
            "trace.overhead_pct",
            (untraced / traced.max(1e-9) - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let pinned = pin::one_cpu();
    let started = Instant::now();
    let cpu_before = sys::cpu_seconds();
    let steal_before = sys::steal_ticks();
    let mut run = match workloads::run(args.workload, args.seed, args.seconds, args.trace) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut report = String::new();
    let mut problems = run.live.problems.clone();
    let metrics = if args.trace {
        let rec = run
            .live
            .rec
            .take()
            .unwrap_or_else(|| trace::Recorder::new(started));
        let mut replay = Replay::new(gen::world(), rec);
        replay.run(run.live.log.as_deref().unwrap_or_default(), &run.live.specs);
        let mut replayed = run.live.log.as_ref().map_or(0, Vec::len);
        if let Some((log, specs)) = &run.probe_log {
            replay.restart(gen::world());
            replay.run(log, specs);
            replayed += log.len();
        }
        problems.extend(replay.mismatches.iter().map(|m| format!("replay: {m}")));
        let metrics = per_layer(&run, &replay, replayed, args.workload, &mut report);
        let path = std::path::Path::new(".bench_trace").join(format!(
            "spans-{}-{}.csv",
            args.workload.name(),
            args.seed
        ));
        match replay.rec.write_csv(&path) {
            Ok(n) => {
                let _ = writeln!(report, "trace: {n} spans written to {}", path.display());
            }
            Err(e) => {
                let _ = writeln!(report, "trace: spans not written: {e}");
            }
        }
        metrics
    } else {
        end_to_end(&run)
    };

    println!(
        "threads: client 1, reactor {}, workers {}, route workers {} (inside the worker), \
         nproc {}; {}",
        live::server_config().reactor_threads,
        live::server_config().workers,
        live::server_config().route_workers,
        sys::nproc(),
        pinned.map_or("not pinned".into(), |cpu| format!(
            "all pinned to cpu {cpu}"
        )),
    );
    println!(
        "host: steal ticks {} in the run, {} in the measured phase; process cpu {:.2} s over \
         {:.2} s wall",
        sys::steal_ticks() - steal_before,
        run.steal_ticks,
        sys::cpu_seconds() - cpu_before,
        started.elapsed().as_secs_f64()
    );
    println!(
        "ops: {} measured ({} warm, {} cold federates), {} rate blocks, {} load-plane \
         publications in the measured phase",
        run.measured_ops,
        run.warm,
        run.cold,
        run.live.blocks.rates.len(),
        run.version_delta
            .map_or("(counter restarted by mutations)".into(), |v| v.to_string())
    );
    println!(
        "host speed: {:.3} of the reference ({} kernel timings, median {:.0} ns against {:.0} ns); \
         end-to-end times and rates are scaled by it",
        run.calibrator.speed(),
        run.calibrator.samples(),
        run.calibrator.median_ns(),
        calib::REFERENCE_NS
    );
    let counts: Vec<String> = run
        .live
        .samples
        .iter()
        .map(|(kind, values)| format!("{kind} {}", values.len()))
        .collect();
    println!("samples: {}", counts.join(", "));
    println!(
        "setups: {} s (world builds {} s)",
        run.setups
            .iter()
            .map(|d| format!("{:.3}", d.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" "),
        run.fixture_builds
            .iter()
            .map(|d| format!("{:.3}", d.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "ledger: {} links booked past capacity by a flow whose own streams share them",
        run.live.self_overbooked
    );
    print!("{report}");
    for problem in &problems {
        println!("check failed: {problem}");
    }
    println!(
        "{}",
        json_line(
            problems.is_empty(),
            run.live.attempted,
            run.live.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
