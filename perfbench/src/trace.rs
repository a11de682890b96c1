//! The traced run (`--trace 1`): per-layer times and counts, measured
//! at the boundaries of each crate's public functions from outside the
//! program.
//!
//! A traced round does four things with one materialized workload:
//!
//! 1. `materialize` — `ScenarioSpec::materialize` (layers `scenario` +
//!    `demand`), timed;
//! 2. `generate` — `generate_day_trips_with` called again on its own
//!    (layer `demand`), timed, and its trips checked equal to the
//!    materialized ones;
//! 3. an untraced simulation, as in the end-to-end mode, for the
//!    untraced `sim_s` the overhead is measured against;
//! 4. `simulate` — the same day with a probing policy wrapper. Each
//!    `assign` call is a `batch` span with four children: `assign` (the
//!    real policy call, layer `core`), then three read-only probes on
//!    the same batch context: `candidates` (`valid_candidates_with` on a
//!    probe-owned scratch and a counting travel oracle, layers `core` +
//!    `spatial`), `rates` (`SparseUpcoming::compute` +
//!    `RateTracker::begin_batch_sparse`) and `et` (`RateTracker::et` per
//!    rider destination, layer `queueing`). The probes run after the
//!    real call returns, so they never perturb its timing or decisions;
//!    their time is subtracted from the simulation's wall time.
//!
//! Spans of the first round are kept in memory and written, with the
//! metrics and the layer shares, to `perfbench/out/` when the run ends.
//! Metrics are medians over the rounds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use mrvd_core::{
    valid_candidates_with, CandidateScratch, DemandOracle, DispatchConfig, RateTracker,
    SparseUpcoming,
};
use mrvd_demand::{NycLikeConfig, NycLikeGenerator};
use mrvd_scenario::{ScenarioShaper, ScenarioWorkload};
use mrvd_sim::{Assignment, BatchContext, DispatchPolicy, SimResult, Simulator};
use mrvd_spatial::{Grid, Millis, Point, TravelModel, NYC_EXTENT};
use serde_json::{json, Value};

use crate::measure::{fold_trips, median, now, secs_since, Digest};
use crate::workloads::{self, Workload};
use crate::{
    check_run, materialize_checked, metrics_json, one_line, past_budget, simulate_timed, Metric,
    Ops,
};

/// A travel oracle that counts its calls.
struct CountingTravel<'a> {
    inner: &'a dyn TravelModel,
    calls: AtomicU64,
}

impl TravelModel for CountingTravel<'_> {
    fn travel_time_ms(&self, from: Point, to: Point) -> Millis {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.travel_time_ms(from, to)
    }

    fn speed_bound_mps(&self) -> Option<f64> {
        self.inner.speed_bound_mps()
    }
}

/// One recorded span; its id is its index in [`Spans::spans`].
struct Span {
    parent: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span list with times relative to the run's start.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records `[start, end)` under `parent` (when recording) and returns
    /// its duration in nanoseconds.
    fn record(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        if self.recording {
            self.spans.push(Span {
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
        end_ns - start_ns
    }

    /// Id the next recorded span will get.
    fn next_id(&self) -> usize {
        self.spans.len()
    }
}

/// Per-layer sums over one traced simulation.
#[derive(Default)]
struct Layers {
    calls: u64,
    riders: u64,
    drivers: u64,
    assignments: u64,
    assign_ns: u64,
    candidates_ns: u64,
    pairs: u64,
    travel_calls: u64,
    rates_ns: u64,
    et_ns: u64,
    et_solves: u64,
}

/// Wraps the real policy: times each `assign`, then runs the probes.
/// Only the probes see the counting oracle; the real policy and the
/// simulator use the workload's own.
struct ProbePolicy<'a, 'p> {
    inner: &'p mut dyn DispatchPolicy,
    travel: CountingTravel<'a>,
    spans: &'a mut Spans,
    /// Id of the enclosing `simulate` span.
    parent: usize,
    cfg: DispatchConfig,
    oracle: DemandOracle,
    scratch: CandidateScratch,
    upcoming: SparseUpcoming,
    tracker: RateTracker,
    sums: Layers,
}

impl DispatchPolicy for ProbePolicy<'_, '_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let batch = self.spans.next_id();
        let t0 = now();
        // Placeholder; the batch span's end is patched below.
        self.spans.record(self.parent, "batch", t0, t0);
        let out = self.inner.assign(ctx);
        let t1 = now();
        self.sums.assign_ns += self.spans.record(batch, "assign", t0, t1);

        let calls_before = self.travel.calls.load(Ordering::Relaxed);
        let counted = BatchContext {
            travel: &self.travel,
            ..*ctx
        };
        let pairs =
            valid_candidates_with(&counted, self.cfg.max_candidates, &mut self.scratch).num_pairs();
        let t2 = now();
        self.sums.candidates_ns += self.spans.record(batch, "candidates", t1, t2);
        self.sums.travel_calls += self.travel.calls.load(Ordering::Relaxed) - calls_before;
        self.sums.pairs += pairs as u64;

        self.upcoming
            .compute(&self.oracle, ctx.now_ms, self.cfg.tc_ms);
        self.tracker.begin_batch_sparse(
            ctx,
            self.upcoming.values(),
            self.upcoming.active(),
            &self.cfg,
        );
        let t3 = now();
        self.sums.rates_ns += self.spans.record(batch, "rates", t2, t3);

        let solves_before = self.tracker.stats().ets_computed;
        for r in ctx.riders {
            let k = ctx.grid.region_of(r.dropoff).idx();
            std::hint::black_box(self.tracker.et(k, &self.cfg));
        }
        let t4 = now();
        self.sums.et_ns += self.spans.record(batch, "et", t3, t4);
        self.sums.et_solves += self.tracker.stats().ets_computed - solves_before;

        if self.spans.recording {
            self.spans.spans[batch].end_ns = self.spans.ns(t4);
        }
        self.sums.calls += 1;
        self.sums.riders += ctx.riders.len() as u64;
        self.sums.drivers += ctx.drivers.len() as u64;
        self.sums.assignments += out.len() as u64;
        out
    }

    fn teleports_pickup(&self) -> bool {
        self.inner.teleports_pickup()
    }

    fn invoke_every_batch(&self) -> bool {
        self.inner.invoke_every_batch()
    }
}

/// The traced simulation: the result, its wall time in seconds, the
/// per-layer sums and the real policy's rate-tracker counters.
fn simulate_traced(
    w: &Workload,
    wl: &ScenarioWorkload,
    spans: &mut Spans,
    parent: usize,
) -> (SimResult, f64, Layers, Option<mrvd_core::RateTrackerStats>) {
    let ((r, wall, sums), stats) = workloads::with_policy(w.policy, wl, |policy| {
        let mut probe = ProbePolicy {
            inner: policy,
            travel: CountingTravel {
                inner: &wl.travel,
                calls: AtomicU64::new(0),
            },
            spans,
            parent,
            cfg: DispatchConfig::default(),
            oracle: DemandOracle::real(wl.series.clone(), 0),
            scratch: CandidateScratch::new(),
            upcoming: SparseUpcoming::default(),
            tracker: RateTracker::new(),
            sums: Layers::default(),
        };
        let sim = Simulator::new(wl.sim_config.clone(), &wl.travel, &wl.grid);
        let t = now();
        let r = sim.run_scheduled(&wl.trips, &wl.driver_pool, &wl.schedule, &mut probe);
        (r, secs_since(t), probe.sums)
    });
    (r, wall, sums, stats)
}

/// Times `generate_day_trips_with` on its own for `wl`'s spec and
/// checks that it reproduces the materialized trips.
fn generate_checked(wl: &ScenarioWorkload) -> Result<(f64, usize), String> {
    let spec = &wl.spec;
    let generator = NycLikeGenerator::with_grid(
        Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, spec.grid_cols, spec.grid_rows),
        NycLikeConfig {
            orders_per_day: spec.orders_per_day,
            seed: spec.seed,
            ..NycLikeConfig::default()
        },
    );
    let shaper = ScenarioShaper::new(spec, generator.grid());
    let t = now();
    let trips = generator.generate_day_trips_with(spec.day, &shaper);
    let dt = secs_since(t);
    let digest = |trips| {
        let mut d = Digest::new();
        fold_trips(&mut d, trips);
        d.finish()
    };
    if digest(&trips) != digest(&wl.trips) {
        return Err("generate_day_trips_with disagrees with materialize".into());
    }
    Ok((dt, trips.len()))
}

/// Per-layer metrics (name, unit) in output order; every traced round
/// yields one sample of each.
const NAMES: [(&str, &str); 27] = [
    ("scenario.materialize_s", "s"),
    ("demand.generate_s", "s"),
    ("demand.ns_per_trip", "ns"),
    ("core.assign_s", "s"),
    ("core.assign_calls", "count"),
    ("core.riders_per_call", "count"),
    ("core.drivers_per_call", "count"),
    ("core.candidates_s", "s"),
    ("core.candidate_pairs", "count"),
    ("spatial.travel_calls", "count"),
    ("core.pair_yield", "ratio"),
    ("core.assign_yield", "ratio"),
    ("core.rates_s", "s"),
    ("queueing.et_s", "s"),
    ("queueing.et_solves", "count"),
    ("sim.untraced_s", "s"),
    ("sim.core_self_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events", "count"),
    ("sim.ticks_executed", "count"),
    ("sim.tick_skip_rate", "ratio"),
    ("sim.views_entries_dirtied", "count"),
    ("sim.index_regions_dirtied", "count"),
    ("sim.counts_regions_dirtied", "count"),
    ("trace.overhead_s", "s"),
    ("trace.sim_accounted", "ratio"),
    ("trace.probe_s", "s"),
];

/// The `--trace 1` mode. Returns no metrics when an operation failed
/// before any round completed.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64, ops: &mut Ops) -> Vec<Metric> {
    let start = now();
    let spec = w.spec(seed);
    let mut spans = Spans {
        origin: start,
        spans: Vec::new(),
        recording: true,
    };
    spans.spans.push(Span {
        parent: 0,
        name: "run",
        start_ns: 0,
        end_ns: 0,
    });
    let (mut wl_digest, mut res_digest) = (None, None);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); NAMES.len()];
    let mut rate_stats = None;
    let mut call_ns = Vec::with_capacity(crate::batch_slots(&spec));
    loop {
        let round_start = now();
        let materialize_id = spans.next_id();
        let t = now();
        let Some((wl, materialize_s)) = materialize_checked(ops, &spec, &mut wl_digest) else {
            break;
        };
        spans.record(0, "materialize", t, now());
        let t = now();
        let Some((generate_s, trips)) = ops.run("generate", || generate_checked(&wl)) else {
            break;
        };
        spans.record(materialize_id, "generate", t, now());
        let Some(untraced_s) = ops.run("simulate", || {
            let (r, sim_s) = simulate_timed(w, &wl, &mut call_ns);
            check_run(w, seed, &r, &mut res_digest)?;
            Ok(sim_s)
        }) else {
            break;
        };
        let simulate_id = spans.next_id();
        let t = now();
        spans.record(0, "simulate", t, t);
        let Some((r, wall_s, l, stats)) = ops.run("traced simulate", || {
            let (r, wall_s, l, stats) = simulate_traced(w, &wl, &mut spans, simulate_id);
            check_run(w, seed, &r, &mut res_digest)?;
            Ok((r, wall_s, l, stats))
        }) else {
            break;
        };
        if spans.recording {
            spans.spans[simulate_id].end_ns = spans.ns(now());
            spans.recording = false;
        }
        rate_stats = stats.or(rate_stats);

        let s = |ns: u64| ns as f64 / 1e9;
        let probe_s = s(l.candidates_ns + l.rates_ns + l.et_ns);
        // The simulation's own time under tracing: the probes ran inside
        // it but are not part of it.
        let traced_s = wall_s - probe_s;
        let core_self_s = traced_s - s(l.assign_ns);
        let per_call = |v: u64| v as f64 / l.calls as f64;
        let round = [
            materialize_s,
            generate_s,
            generate_s * 1e9 / trips as f64,
            s(l.assign_ns),
            l.calls as f64,
            per_call(l.riders),
            per_call(l.drivers),
            s(l.candidates_ns),
            l.pairs as f64,
            l.travel_calls as f64,
            l.pairs as f64 / l.travel_calls as f64,
            l.assignments as f64 / l.pairs as f64,
            s(l.rates_ns),
            s(l.et_ns),
            l.et_solves as f64,
            untraced_s,
            core_self_s,
            core_self_s * 1e9 / r.events_processed as f64,
            r.events_processed as f64,
            r.ticks_executed as f64,
            r.skip_rate(),
            r.views_entries_dirtied as f64,
            r.index_regions_dirtied as f64,
            r.counts_regions_dirtied as f64,
            traced_s - untraced_s,
            traced_s / untraced_s,
            probe_s,
        ];
        for (v, x) in samples.iter_mut().zip(round) {
            v.push(x);
        }
        if past_budget(start, round_start, seconds) {
            break;
        }
    }
    if samples[0].is_empty() {
        return Vec::new();
    }
    spans.spans[0].end_ns = spans.ns(now());
    let metrics: Vec<Metric> = NAMES
        .iter()
        .zip(&samples)
        .map(|(&(name, unit), v)| (name, median(v), unit))
        .collect();
    write_trace(w, seed, &spans, &metrics, samples[0].len(), rate_stats);
    metrics
}

/// Writes the span list, the metrics and the layer shares as one line
/// of JSON to `perfbench/out/trace-<workload>-seed<seed>.json`.
fn write_trace(
    w: &Workload,
    seed: u64,
    spans: &Spans,
    metrics: &[Metric],
    rounds: usize,
    rate_stats: Option<mrvd_core::RateTrackerStats>,
) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let (sim, setup) = (get("sim.untraced_s"), get("scenario.materialize_s"));
    let shares = [
        ("sim.core_self_s", get("sim.core_self_s") / sim),
        ("core.assign_s", get("core.assign_s") / sim),
        ("demand.generate_s", get("demand.generate_s") / setup),
        (
            "scenario.self_s",
            (setup - get("demand.generate_s")) / setup,
        ),
    ];
    for (name, share) in shares {
        println!("  share {name:<22} {:>6.1} %", share * 100.0);
    }
    let rows: Vec<Value> = spans
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| json!([id, s.parent, s.name, s.start_ns, s.end_ns]))
        .collect();
    let shares = Value::Object(
        shares
            .iter()
            .map(|&(name, share)| (name.to_string(), json!(share)))
            .collect(),
    );
    let out = json!({
        "workload": w.name,
        "policy": w.policy.label(),
        "seed": seed,
        "rounds": rounds,
        "metrics": metrics_json(metrics),
        "shares_of_untraced_sim_s_and_materialize_s": shares,
        "policy_rate_stats": rate_stats.map(|st| json!({
            "batches": st.batches,
            "live_batches": st.live_batches,
            "ets_computed": st.ets_computed,
        })),
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
        "spans": rows,
    });
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}-seed{seed}.json", w.name);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, one_line(&out))) {
        Ok(()) => eprintln!("[perfbench] wrote {path} ({} spans)", spans.spans.len()),
        Err(e) => eprintln!("[perfbench] cannot write {path}: {e}"),
    }
}
