//! The benchmark's named workloads. `perfbench/README.md` records why
//! each was chosen and which layer it stresses.

use mrvd_core::{DemandOracle, DispatchConfig, Near, QueueingPolicy, RateTrackerStats};
use mrvd_demand::NycProfile;
use mrvd_scenario::{driver_shortage, ScenarioSpec, ScenarioWorkload};
use mrvd_sim::DispatchPolicy;
use mrvd_spatial::Grid;

/// The seed whose output digests are recorded below; also the spec
/// seed every built-in scenario uses.
pub const DEFAULT_SEED: u64 = 42;

/// The paper's full test day (orders), scaled by a quarter for
/// `paper-irg`.
const PAPER_ORDERS: f64 = 282_255.0;

/// Which dispatch policy a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// IRG with the real oracle (the paper's Algorithm 2).
    IrgReal,
    /// Nearest-trip greedy.
    Near,
}

impl PolicyKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::IrgReal => "IRG-R",
            PolicyKind::Near => "NEAR",
        }
    }
}

/// One named workload.
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// The policy it dispatches with.
    pub policy: PolicyKind,
    /// Materializations per measuring round. A round's `setup_s` sample
    /// is their mean, so where one call takes only ~0.1 s the sample
    /// still spans about a second of set-up work.
    pub setups_per_round: usize,
    /// Simulations per measuring round, all of the round's last
    /// materialization: more than one where set-up dominates a round, so
    /// the simulation metrics get enough samples in the time budget.
    pub sims_per_round: usize,
    /// Result digest recorded at [`DEFAULT_SEED`].
    pub recorded_digest: u64,
    spec: fn() -> ScenarioSpec,
}

impl Workload {
    /// The workload's spec at `seed`.
    ///
    /// The seed picks one realization of a fixed-size day. The generator
    /// also draws a per-day "weather" volume factor from the seed
    /// (log-normal, σ ≈ 8 %); it is divided out of the order volume here,
    /// so every seed's expected volume is the nominal one and the seed
    /// varies only the Poisson draws, destinations, driver positions and
    /// deadline noise. Without this, seeds differ in load by up to ±20 %
    /// and the run-to-run spread measures the seed, not the program.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut s = (self.spec)();
        s.seed = seed;
        // Every workload is a Monday (day 0), whose day-of-week factor is
        // 1, so the profile's day factor is exactly the weather draw.
        assert_eq!(s.day, 0, "{}: the volume correction assumes day 0", s.name);
        s.orders_per_day /= NycProfile::new(Grid::nyc_16x16(), 1.0, seed).day_factor(0);
        s
    }
}

/// IRG-R on the paper's 16×16 setting at a quarter of its test day
/// (70 564 expected orders), 750 drivers, Δ = 3 s.
fn paper_irg() -> ScenarioSpec {
    ScenarioSpec::plain(
        "paper-irg",
        "paper setting at a quarter of the test day",
        PAPER_ORDERS * 0.25,
        750,
    )
}

/// NEAR on the 64×64 scale point at a quarter scale: 50 000 orders,
/// 2 500 drivers, Δ = 1 s.
fn city_near() -> ScenarioSpec {
    let mut s = ScenarioSpec::plain(
        "city-near",
        "64x64 scale point at scale 0.25",
        50_000.0,
        2_500,
    );
    s.grid_cols = 64;
    s.grid_rows = 64;
    s.sim.batch_interval_ms = Some(1_000);
    s
}

/// The driver-shortage built-in at four times its volume, at Δ = 250 ms.
fn shortage_subsecond() -> ScenarioSpec {
    let mut s = driver_shortage().scaled(4.0);
    s.name = "shortage-subsecond".into();
    s.sim.batch_interval_ms = Some(250);
    s
}

/// Every workload, in command-line order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-irg",
        policy: PolicyKind::IrgReal,
        setups_per_round: 10,
        sims_per_round: 1,
        recorded_digest: 0xfc06_60e9_ab00_f080,
        spec: paper_irg,
    },
    Workload {
        name: "city-near",
        policy: PolicyKind::Near,
        setups_per_round: 1,
        sims_per_round: 2,
        recorded_digest: 0xa06c_9300_f5e4_fc39,
        spec: city_near,
    },
    Workload {
        name: "shortage-subsecond",
        policy: PolicyKind::IrgReal,
        setups_per_round: 15,
        sims_per_round: 1,
        recorded_digest: 0x0759_6c94_87d9_e3e7,
        spec: shortage_subsecond,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Builds the workload's policy against `wl` (with the default
/// [`DispatchConfig`]), hands it to `run`, and returns `run`'s result
/// with the policy's rate-tracker counters when it has one.
pub fn with_policy<R>(
    kind: PolicyKind,
    wl: &ScenarioWorkload,
    run: impl FnOnce(&mut dyn DispatchPolicy) -> R,
) -> (R, Option<RateTrackerStats>) {
    match kind {
        PolicyKind::IrgReal => {
            let mut p = QueueingPolicy::irg(
                DispatchConfig::default(),
                DemandOracle::real(wl.series.clone(), 0),
            );
            let r = run(&mut p);
            (r, Some(p.rate_stats()))
        }
        PolicyKind::Near => (run(&mut Near::default()), None),
    }
}
