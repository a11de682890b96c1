//! Geographic points and great-circle distances.

/// A geographic location in degrees (WGS-84 lon/lat, like the NYC TLC data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Longitude in degrees, increasing eastward.
    pub lon: f64,
    /// Latitude in degrees, increasing northward.
    pub lat: f64,
}

impl Point {
    /// Creates a point from longitude and latitude in degrees.
    pub const fn new(lon: f64, lat: f64) -> Self {
        Self { lon, lat }
    }

    /// Great-circle distance to `other` in meters.
    pub fn distance_m(&self, other: &Point) -> f64 {
        haversine_m(*self, *other)
    }
}

/// Mean Earth radius in meters (IUGG).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Degrees → radians.
const DEG_TO_RAD: f64 = std::f64::consts::PI / 180.0;

/// Haversine great-circle distance between two points, in meters.
///
/// Accurate to ~0.5% (the sphericity error), which is far below the noise
/// of urban travel times; the paper's grid spans ~30 km so planar error
/// would also be acceptable, but haversine keeps the crate generally
/// usable.
///
/// The formula is assembled from its crate-private term functions
/// (`hav_deg`, `cos_lat_product`, `distance_from_terms`), so callers
/// that share terms across many pairs
/// ([`crate::Grid::center_distances_into`]) compute the same float
/// sequence and get bit-identical distances.
pub fn haversine_m(a: Point, b: Point) -> f64 {
    distance_from_terms(
        hav_deg(a.lat, b.lat),
        cos_lat_product(a.lat, b.lat),
        hav_deg(a.lon, b.lon),
    )
}

/// `sin²(Δ/2)` of the angle `to_deg − from_deg` (degrees): the haversine
/// of one coordinate difference.
pub(crate) fn hav_deg(from_deg: f64, to_deg: f64) -> f64 {
    ((to_deg - from_deg) * DEG_TO_RAD / 2.0).sin().powi(2)
}

/// `cos φ₁ · cos φ₂` of two latitudes in degrees.
pub(crate) fn cos_lat_product(lat1_deg: f64, lat2_deg: f64) -> f64 {
    (lat1_deg * DEG_TO_RAD).cos() * (lat2_deg * DEG_TO_RAD).cos()
}

/// Great-circle distance in meters from the haversine terms of a pair:
/// `h = sin²(Δφ/2) + cos φ₁ cos φ₂ · sin²(Δλ/2)`, then `2R·asin(√h)`.
pub(crate) fn distance_from_terms(hav_dlat: f64, cos_product: f64, hav_dlon: f64) -> f64 {
    let h = hav_dlat + cos_product * hav_dlon;
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The term-function assembly keeps the float sequence of the
        /// single-expression formula it replaced, bit for bit.
        #[test]
        fn haversine_terms_match_the_inline_formula(
            a in (-180.0f64..180.0, -89.0f64..89.0),
            b in (-180.0f64..180.0, -89.0f64..89.0),
        ) {
            let (a, b) = (Point::new(a.0, a.1), Point::new(b.0, b.1));
            let to_rad = std::f64::consts::PI / 180.0;
            let (lat1, lat2) = (a.lat * to_rad, b.lat * to_rad);
            let dlat = (b.lat - a.lat) * to_rad;
            let dlon = (b.lon - a.lon) * to_rad;
            let h = (dlat / 2.0).sin().powi(2)
                + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
            let want = 2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin();
            prop_assert_eq!(haversine_m(a, b).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn zero_distance_to_self() {
        let p = Point::new(-73.98, 40.75);
        assert_eq!(haversine_m(p, p), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = Point::new(-73.98, 40.75);
        let b = Point::new(-73.90, 40.70);
        assert!((haversine_m(a, b) - haversine_m(b, a)).abs() < 1e-9);
    }

    #[test]
    fn one_degree_latitude_is_about_111km() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(0.0, 1.0);
        let d = haversine_m(a, b);
        assert!((d - 111_195.0).abs() < 200.0, "got {d}");
    }

    #[test]
    fn longitude_shrinks_with_latitude() {
        // One degree of longitude at 40.7°N is ~cos(40.7°)·111 km ≈ 84 km.
        let a = Point::new(-74.0, 40.7);
        let b = Point::new(-73.0, 40.7);
        let d = haversine_m(a, b);
        assert!((d - 84_300.0).abs() < 500.0, "got {d}");
    }

    #[test]
    fn nyc_box_diagonal_is_plausible() {
        // The paper's box: (−74.03..−73.77, 40.58..40.92): diagonal ≈ 43 km.
        let a = Point::new(-74.03, 40.58);
        let b = Point::new(-73.77, 40.92);
        let d = haversine_m(a, b);
        assert!((30_000.0..60_000.0).contains(&d), "got {d}");
    }

    #[test]
    fn triangle_inequality_on_sample_points() {
        let pts = [
            Point::new(-74.0, 40.6),
            Point::new(-73.9, 40.8),
            Point::new(-73.8, 40.7),
        ];
        let ab = haversine_m(pts[0], pts[1]);
        let bc = haversine_m(pts[1], pts[2]);
        let ac = haversine_m(pts[0], pts[2]);
        assert!(ac <= ab + bc + 1e-6);
    }
}
