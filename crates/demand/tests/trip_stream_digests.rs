//! Pins the generated trip stream off the paper's 16×16 grid.
//!
//! Each digest is an FNV-1a fold over every trip of one generated day
//! (id, request time, pickup and dropoff coordinate bits). The values
//! were recorded with the per-pair haversine gravity model that predates
//! the row/column-hoisted distances, so any change to the generator's
//! float sequence or RNG consumption on city-scale grids fails here.

use mrvd_demand::{NycLikeConfig, NycLikeGenerator, TripRecord};
use mrvd_spatial::{Grid, NYC_EXTENT};

/// FNV-1a (64-bit) fold of one little-endian `u64` into `hash`.
fn fnv_u64(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trip_digest(trips: &[TripRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv_u64(&mut hash, trips.len() as u64);
    for t in trips {
        fnv_u64(&mut hash, t.id);
        fnv_u64(&mut hash, t.request_ms);
        fnv_u64(&mut hash, t.pickup.lon.to_bits());
        fnv_u64(&mut hash, t.pickup.lat.to_bits());
        fnv_u64(&mut hash, t.dropoff.lon.to_bits());
        fnv_u64(&mut hash, t.dropoff.lat.to_bits());
    }
    hash
}

/// `(trip count, digest)` of day 0 on an `n×n` grid over the NYC extent.
fn day_digest(n: u32) -> (usize, u64) {
    let grid = Grid::new(NYC_EXTENT.0, NYC_EXTENT.1, n, n);
    let g = NycLikeGenerator::with_grid(
        grid,
        NycLikeConfig {
            orders_per_day: 5_000.0,
            seed: 42,
            ..NycLikeConfig::default()
        },
    );
    let trips = g.generate_day_trips(0);
    (trips.len(), trip_digest(&trips))
}

#[test]
fn trip_stream_is_pinned_on_a_64x64_grid() {
    assert_eq!(day_digest(64), (4_814, 0x26a3_fd23_b865_42ad));
}

#[test]
fn trip_stream_is_pinned_on_a_128x128_grid() {
    assert_eq!(day_digest(128), (4_984, 0x2361_443b_3bb2_b58d));
}
