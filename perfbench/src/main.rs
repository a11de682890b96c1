//! `mrvd-perfbench`: the dispatch simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload city-near --seed 42 --seconds 55 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload:
//! it simulates the workload's reference day once for the quality
//! metrics, then repeats rounds of "materialize the workload, simulate
//! its day" for about `--seconds` seconds and reports medians over the
//! rounds.
//! With `--trace 1` it runs the traced rounds of `trace.rs` instead and
//! reports the per-layer metrics. Every output is checked; the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod measure;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use mrvd_scenario::{ScenarioSpec, ScenarioWorkload};
use mrvd_sim::{SimConfig, SimResult, Simulator};

use measure::{
    check_result, heap_peak, median, now, quantile_u64, reset_heap_peak, result_digest, secs_since,
    workload_digest, CountingAlloc, TimedPolicy,
};
use serde_json::{json, Value};
use workloads::{Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Command-line arguments.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 55.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operation accounting shared by both modes: every materialization and
/// every simulation is one attempted operation; a panic or a failed
/// output check makes it a failed one.
#[derive(Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
}

impl Ops {
    /// Runs `op` as one operation, turning a panic or an `Err` into a
    /// counted failure (reported on standard error).
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = match catch_unwind(AssertUnwindSafe(op)) {
            Ok(r) => r,
            Err(_) => Err("panicked".to_string()),
        };
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("[perfbench] FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Materializes `spec` once, timed, and checks it against the digest of
/// the round's first materialization (`expect`, set on first use).
pub fn materialize_checked(
    ops: &mut Ops,
    spec: &ScenarioSpec,
    expect: &mut Option<u64>,
) -> Option<(ScenarioWorkload, f64)> {
    ops.run("materialize", || {
        let t = now();
        let wl = spec.materialize();
        let dt = secs_since(t);
        let d = workload_digest(&wl);
        match *expect.get_or_insert(d) {
            e if e == d => Ok((wl, dt)),
            e => Err(format!(
                "workload digest {d:016x} != first materialization {e:016x}"
            )),
        }
    })
}

/// Checks one simulation's outputs: the conservation invariants, the
/// digest of the first simulation in this process (`expect`, set on
/// first use), and at the default seed the recorded digest.
pub fn check_run(
    w: &Workload,
    seed: u64,
    r: &SimResult,
    expect: &mut Option<u64>,
) -> Result<u64, String> {
    check_result(r)?;
    let d = result_digest(r);
    let first = *expect.get_or_insert(d);
    if d != first {
        return Err(format!(
            "result digest {d:016x} != first simulation {first:016x}"
        ));
    }
    if seed == DEFAULT_SEED && d != w.recorded_digest {
        return Err(format!(
            "result digest {d:016x} != recorded {:016x} for seed {DEFAULT_SEED}",
            w.recorded_digest
        ));
    }
    Ok(d)
}

/// One untraced simulation of `wl`: the result and its wall time in
/// seconds; the per-`assign` times go to `call_ns` in nanoseconds.
pub fn simulate_timed(
    w: &Workload,
    wl: &ScenarioWorkload,
    call_ns: &mut Vec<u64>,
) -> (SimResult, f64) {
    let (out, _) = workloads::with_policy(w.policy, wl, |policy| {
        let mut timed = TimedPolicy::new(policy, call_ns);
        let sim = Simulator::new(wl.sim_config.clone(), &wl.travel, &wl.grid);
        let t = now();
        let r = sim.run_scheduled(&wl.trips, &wl.driver_pool, &wl.schedule, &mut timed);
        (r, secs_since(t))
    });
    out
}

/// Batch slots of `spec`'s day: an upper bound on its `assign` calls.
pub fn batch_slots(spec: &ScenarioSpec) -> usize {
    let d = SimConfig::default();
    let horizon = spec.sim.horizon_ms.unwrap_or(d.horizon_ms);
    let delta = spec.sim.batch_interval_ms.unwrap_or(d.batch_interval_ms);
    horizon.div_ceil(delta) as usize
}

/// Whether to stop after a round that began at `round_start`: another
/// round of the same length would end more than half a round past the
/// `seconds` budget counted from `start`. Runs so last about `seconds`
/// whatever the round length, and always complete at least one round.
pub fn past_budget(start: Instant, round_start: Instant, seconds: f64) -> bool {
    secs_since(start) + secs_since(round_start) / 2.0 > seconds
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// End-to-end samples: one set-up time per round (the mean over the
/// round's materializations), the others one per simulation.
#[derive(Default)]
struct E2e {
    setup_s: Vec<f64>,
    sim_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    calls: usize,
    peak_heap_bytes: usize,
}

/// `revenue` and `served_ratio` of the workload's reference day, the day
/// at [`DEFAULT_SEED`], whatever `--seed` is. Both are exact for a day,
/// so every run reports the same values and any change to them is the
/// program's, not the seed's. This simulation's digest is not compared
/// with the recorded one: a change that alters decisions fails only in
/// a run at the default seed (in [`check_run`]), and in every other run
/// shows here as a moved quality metric.
fn reference_quality(w: &Workload, ops: &mut Ops) -> Option<(f64, f64)> {
    let (wl, _) = materialize_checked(ops, &w.spec(DEFAULT_SEED), &mut None)?;
    ops.run("simulate reference day", || {
        let (r, _) = simulate_timed(w, &wl, &mut Vec::new());
        check_result(&r)?;
        Ok((r.total_revenue, r.served as f64 / r.total_riders as f64))
    })
}

/// The `--trace 0` mode: the reference day's quality metrics, then
/// rounds of materialize + simulate until the time budget would be
/// exceeded. Returns no metrics when an operation failed before any
/// round completed.
fn run_e2e(w: &Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Vec<Metric> {
    let start = now();
    let Some((revenue, served_ratio)) = reference_quality(w, ops) else {
        return Vec::new();
    };
    let spec = w.spec(seed);
    let (mut wl_digest, mut res_digest) = (None, None);
    let mut e = E2e::default();
    let mut call_ns = Vec::with_capacity(batch_slots(&spec));
    let mut rounds = 0usize;
    'rounds: loop {
        let round_start = now();
        let baseline = reset_heap_peak();
        let mut wl = None;
        let mut setup_sum = 0.0;
        for _ in 0..w.setups_per_round {
            drop(wl.take());
            let Some((fresh, dt)) = materialize_checked(ops, &spec, &mut wl_digest) else {
                break 'rounds;
            };
            setup_sum += dt;
            wl = Some(fresh);
        }
        let Some(wl) = wl else { break };
        e.setup_s.push(setup_sum / w.setups_per_round as f64);
        eprintln!(
            "[perfbench] round {rounds}: setup_s {} (mean of {})",
            e.setup_s[e.setup_s.len() - 1],
            w.setups_per_round
        );
        for _ in 0..w.sims_per_round {
            let Some(sim_s) = ops.run("simulate", || {
                let (r, sim_s) = simulate_timed(w, &wl, &mut call_ns);
                check_run(w, seed, &r, &mut res_digest)?;
                Ok(sim_s)
            }) else {
                break 'rounds;
            };
            if e.sim_s.is_empty() {
                // Read while the round's workload and outputs are still live.
                e.peak_heap_bytes = heap_peak() - baseline;
            }
            e.sim_s.push(sim_s);
            e.calls += call_ns.len();
            e.p50_us.push(quantile_u64(&mut call_ns, 0.50) as f64 / 1e3);
            e.p99_us.push(quantile_u64(&mut call_ns, 0.99) as f64 / 1e3);
            eprintln!(
                "[perfbench] round {rounds}: sim_s {sim_s} batch_p50_us {} batch_p99_us {}",
                e.p50_us[e.p50_us.len() - 1],
                e.p99_us[e.p99_us.len() - 1]
            );
        }
        rounds += 1;
        if past_budget(start, round_start, seconds) {
            break;
        }
    }
    if e.sim_s.is_empty() {
        return Vec::new();
    }
    let (setup_s, sim_s) = (median(&e.setup_s), median(&e.sim_s));
    println!(
        "{}: {rounds} rounds, {} simulations, {} assign calls ({} per simulation)",
        w.name,
        e.sim_s.len(),
        e.calls,
        e.calls / e.sim_s.len()
    );
    vec![
        ("setup_s", setup_s, "s"),
        ("sim_s", sim_s, "s"),
        ("total_s", setup_s + sim_s, "s"),
        ("batch_p50_us", median(&e.p50_us), "us"),
        ("batch_p99_us", median(&e.p99_us), "us"),
        ("peak_heap_mb", e.peak_heap_bytes as f64 / 1e6, "MB"),
        ("revenue", revenue, "ride_s"),
        ("served_ratio", served_ratio, "ratio"),
    ]
}

/// `metrics` as a JSON object `{name: {"value": …, "unit": …}}`.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| (name.to_string(), json!({ "value": value, "unit": unit })))
            .collect(),
    )
}

/// `v` as JSON on one line: the pretty form with its line breaks and
/// indentation folded (strings never hold a raw line break).
pub fn one_line(v: &Value) -> String {
    let pretty = serde_json::to_string_pretty(v).unwrap_or_default();
    pretty
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    eprintln!(
        "[perfbench] {} ({}), seed {}, {} s, trace {}",
        w.name,
        w.policy.label(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut ops = Ops::default();
    let metrics = if args.trace {
        trace::run_traced(w, args.seed, args.seconds, &mut ops)
    } else {
        run_e2e(w, args.seed, args.seconds, &mut ops)
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if metrics.is_empty() {
        eprintln!("[perfbench] no complete round: no metrics to report");
    }
    // Printed even when nothing was measured, so a failed operation
    // always reaches the failure share.
    let result = json!({
        "correct": ops.failed == 0 && !metrics.is_empty(),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics_json(&metrics),
    });
    println!("{}", one_line(&result));
    ExitCode::SUCCESS
}
