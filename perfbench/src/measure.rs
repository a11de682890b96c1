//! Measurement primitives: the one wall clock, the counting allocator,
//! order statistics, the FNV-1a output digest and the thin timing
//! wrapper around a dispatch policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use mrvd_demand::TripRecord;
use mrvd_scenario::ScenarioWorkload;
use mrvd_sim::{Assignment, BatchContext, DispatchPolicy, SimResult};
use mrvd_spatial::Point;

/// The harness's only wall-clock read. Every timing in the benchmark
/// goes through it; nothing it returns reaches simulated state.
pub fn now() -> Instant {
    // lint:allow(D002): the benchmark harness times calls into the program; readings never feed simulated state
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    now().duration_since(t).as_nanos() as u64
}

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus a live-byte count and its high-water mark.
/// Allocation sizes depend only on the program's inputs, so the peak of
/// a deterministic run is exact from run to run.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's own
// pointer and layout, so `System`'s guarantees carry over unchanged; the
// counters are plain atomics and never touch the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System::alloc`, which this forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    // SAFETY: same contract as `System::dealloc`, which this forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: same contract as `System::realloc`, which this forwards to.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Restarts the high-water mark at the current live size and returns
/// that size (the baseline a later [`heap_peak`] is read against).
pub fn reset_heap_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Highest live heap size since the last [`reset_heap_peak`].
pub fn heap_peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Median of `v` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    assert!(!v.is_empty(), "order statistic of an empty sample");
    let mut s = v.to_vec();
    // lint:allow(D004): bare f64 samples; equal keys are identical values, so order cannot change a statistic
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank `q`-quantile of integer samples (sorts in place).
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_u64(v: &mut [u64], q: f64) -> u64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a (64-bit) over a stream of `u64` words.
pub struct Digest(u64);

impl Digest {
    /// The FNV offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one little-endian word.
    pub fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn point(&mut self, p: Point) {
        self.word(p.lon.to_bits());
        self.word(p.lat.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a materialized workload: every trip, every driver spawn
/// position and the schedule's fleet cap.
pub fn workload_digest(w: &ScenarioWorkload) -> u64 {
    let mut d = Digest::new();
    fold_trips(&mut d, &w.trips);
    for &p in &w.driver_pool {
        d.point(p);
    }
    d.word(w.schedule.max_drivers() as u64);
    d.finish()
}

/// Folds a trip list into `d`.
pub fn fold_trips(d: &mut Digest, trips: &[TripRecord]) {
    d.word(trips.len() as u64);
    for t in trips {
        d.word(t.id);
        d.word(t.request_ms);
        d.point(t.pickup);
        d.point(t.dropoff);
    }
}

/// Digest of a run's simulated outputs: the counts, the revenue bits and
/// the full assignment and renege streams (no wall-clock field).
pub fn result_digest(r: &SimResult) -> u64 {
    let mut d = Digest::new();
    for v in [
        r.served,
        r.reneged,
        r.still_waiting,
        r.total_riders,
        r.batches,
    ] {
        d.word(v as u64);
    }
    d.word(r.total_revenue.to_bits());
    for a in &r.assignments {
        d.word(u64::from(a.rider.0));
        d.word(u64::from(a.driver.0));
        d.word(a.batch_ms);
        d.word(a.pickup_ms);
        d.word(a.dropoff_ms);
        d.word(a.revenue.to_bits());
    }
    for x in &r.reneges {
        d.word(u64::from(x.rider.0));
        d.word(x.request_ms);
        d.word(x.renege_ms);
    }
    d.finish()
}

/// The output invariants every run must satisfy, as an error message.
pub fn check_result(r: &SimResult) -> Result<(), String> {
    if r.served + r.reneged + r.still_waiting != r.total_riders {
        return Err(format!(
            "served {} + reneged {} + still waiting {} != total riders {}",
            r.served, r.reneged, r.still_waiting, r.total_riders
        ));
    }
    if r.assignments.len() != r.served || r.reneges.len() != r.reneged {
        return Err(format!(
            "streams disagree with counts: {} assignments for {} served, {} reneges for {} reneged",
            r.assignments.len(),
            r.served,
            r.reneges.len(),
            r.reneged
        ));
    }
    Ok(())
}

/// Times every [`DispatchPolicy::assign`] call of the wrapped policy —
/// the paper's "running time per batch" — and forwards everything else.
pub struct TimedPolicy<'p, 'b> {
    inner: &'p mut dyn DispatchPolicy,
    /// Nanoseconds per `assign` call, in call order.
    call_ns: &'b mut Vec<u64>,
}

impl<'p, 'b> TimedPolicy<'p, 'b> {
    /// Wraps `inner`, recording into `call_ns` (cleared first). The
    /// caller owns the buffer so its allocation stays out of the
    /// program's heap peak.
    pub fn new(inner: &'p mut dyn DispatchPolicy, call_ns: &'b mut Vec<u64>) -> Self {
        call_ns.clear();
        Self { inner, call_ns }
    }
}

impl DispatchPolicy for TimedPolicy<'_, '_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &BatchContext<'_>) -> Vec<Assignment> {
        let t = now();
        let out = self.inner.assign(ctx);
        self.call_ns.push(nanos_since(t));
        out
    }

    fn teleports_pickup(&self) -> bool {
        self.inner.teleports_pickup()
    }

    fn invoke_every_batch(&self) -> bool {
        self.inner.invoke_every_batch()
    }
}
