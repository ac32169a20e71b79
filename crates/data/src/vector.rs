//! Dense numeric vectors and the cosine / angular distance.
//!
//! The paper's image experiments represent each record as an RGB-histogram
//! vector and declare two records a match when the *angle* between their
//! vectors is below a threshold (paper §6.3, PopularImages). Throughout the
//! workspace distances are **normalized to `[0, 1]`**: an angle of `θ`
//! degrees maps to `θ / 180` (paper Example 5, `x = θ/180`).

use serde::{Deserialize, Serialize};

/// A dense vector of `f64` components.
///
/// Invariant: never empty. Construction normalizes nothing — callers that
/// want unit vectors should call [`DenseVector::normalized`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVector(Vec<f64>);

impl DenseVector {
    /// Creates a vector from raw components.
    ///
    /// # Panics
    /// Panics if `components` is empty.
    pub fn new(components: Vec<f64>) -> Self {
        assert!(!components.is_empty(), "DenseVector must be non-empty");
        Self(components)
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Read-only view of the components.
    pub fn components(&self) -> &[f64] {
        &self.0
    }

    /// Dot product with another vector.
    ///
    /// Evaluated by `dot_kernel`: four independent accumulators over
    /// flat 4-wide chunks, so the products in a chunk carry no
    /// loop-carried dependency and the compiler vectorizes the loop.
    /// The summation *order* therefore differs from a sequential fold by
    /// a few ulps — every consumer in this crate (norms, angles, the
    /// cosine fast path) goes through this same kernel, so all derived
    /// comparisons stay mutually consistent.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Self) -> f64 {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        dot_kernel(&self.0, &other.0)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        norm(&self.0)
    }

    /// Returns a unit-length copy of this vector.
    ///
    /// A zero vector is returned unchanged (there is no direction to keep).
    pub fn normalized(&self) -> Self {
        let n = self.norm();
        if n == 0.0 {
            return self.clone();
        }
        Self(self.0.iter().map(|c| c / n).collect())
    }

    /// The angle between two vectors, in **degrees**, in `[0, 180]`.
    ///
    /// Zero vectors are defined to be at angle 0 from everything: they carry
    /// no direction, and treating them as maximally distant would make a
    /// single empty histogram poison transitive closure.
    pub fn angle_degrees(&self, other: &Self) -> f64 {
        angle_degrees_with_norms(&self.0, &other.0, self.norm(), other.norm())
    }

    /// The normalized angular distance `θ / 180 ∈ [0, 1]` used everywhere
    /// in the paper for the cosine metric (Example 5).
    pub fn angular_distance(&self, other: &Self) -> f64 {
        self.angle_degrees(other) / 180.0
    }
}

/// Slice form of [`DenseVector::dot`]: the flat dot-product kernel over
/// raw component slices. This is the single implementation both the
/// owned in-RAM path and the zero-copy store path run, so their results
/// agree bit for bit.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    dot_kernel(a, b)
}

/// Slice form of [`DenseVector::norm`]: `sqrt(dot(v, v))` through the
/// same dot kernel, so a norm cached at store-build time reproduces the
/// in-RAM norm bit for bit.
pub fn norm(v: &[f64]) -> f64 {
    dot_kernel(v, v).sqrt()
}

/// [`DenseVector::angle_degrees`] over raw slices with the two norms
/// supplied by the caller (same zero-vector convention). The quadratic
/// pairwise loop evaluates `O(n²)` angles over `n` vectors; precomputing
/// each vector's norm once ([`crate::RecordStore::field_norm`]) removes
/// two of the three dot products per pair. Passing [`norm`] of each
/// slice reproduces [`DenseVector::angle_degrees`] bit-for-bit.
pub fn angle_degrees_with_norms(a: &[f64], b: &[f64], norm_a: f64, norm_b: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let denom = norm_a * norm_b;
    if denom == 0.0 {
        return 0.0;
    }
    let cos = (dot_kernel(a, b) / denom).clamp(-1.0, 1.0);
    cos.acos().to_degrees()
}

/// Threshold fast path: `angle_degrees_with_norms(a, b, ..) / 180 <=
/// dthr`, decided in **cosine space** whenever that is safe. `acos` is
/// monotone decreasing, so `θ/180 ≤ dthr ⟺ cos θ ≥ cos(dthr·π)`;
/// comparing cosines skips the `acos` that otherwise runs on every pair
/// of the quadratic verification loop. Within a guard band of
/// [`COS_GUARD`] around the threshold cosine — where rounding of the
/// forward (`cos`) and inverse (`acos`, `to_degrees`, `/ 180`)
/// transforms could disagree — the exact kernel decides instead, so the
/// verdict is **bit-identical** to evaluating the distance and
/// comparing. The band is ~10⁵ wider than the few-ulp error of either
/// transform, and `acos`'s sensitivity near `cos = ±1` only widens the
/// true angle gap, never narrows it.
///
/// Returns `(verdict, resolved_early)`: whether the verdict was reached
/// without the exact `acos` kernel feeds the hit-rate observability
/// counters only.
pub fn angular_at_most_with_norms_counted(
    a: &[f64],
    b: &[f64],
    dthr: f64,
    norm_a: f64,
    norm_b: f64,
) -> (bool, bool) {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    let denom = norm_a * norm_b;
    if denom == 0.0 {
        // `angle_degrees` defines zero vectors to be at distance 0.
        return (0.0 <= dthr, true);
    }
    if !(0.0..=1.0).contains(&dthr) {
        // Out-of-range thresholds (the distance is always in [0, 1]).
        return (dthr >= 1.0, true);
    }
    let cos = (dot_kernel(a, b) / denom).clamp(-1.0, 1.0);
    let cos_thr = (dthr * std::f64::consts::PI).cos();
    if cos >= cos_thr + COS_GUARD {
        return (true, true);
    }
    if cos <= cos_thr - COS_GUARD {
        return (false, true);
    }
    (
        angle_degrees_with_norms(a, b, norm_a, norm_b) / 180.0 <= dthr,
        false,
    )
}

/// Flat dot-product kernel: four independent partial sums over exact
/// 4-element chunks (no per-element branching), pairwise-combined, then a
/// short sequential tail for `len % 4` trailing components.
fn dot_kernel(a: &[f64], b: &[f64]) -> f64 {
    let chunks = a.len() / 4 * 4;
    let mut acc = [0.0f64; 4];
    for (ca, cb) in a[..chunks].chunks_exact(4).zip(b[..chunks].chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a[chunks..].iter().zip(&b[chunks..]) {
        sum += x * y;
    }
    sum
}

/// Guard-band half-width (in cosine units) inside which
/// [`angular_at_most_with_norms_counted`] falls back to the exact `acos`
/// kernel. See that function for the safety argument.
pub const COS_GUARD: f64 = 1e-9;

/// Converts a threshold expressed in degrees to the normalized distance
/// in `[0, 1]` used by [`DenseVector::angular_distance`] and by the LSH
/// scheme optimizer.
pub fn degrees_to_distance(theta_degrees: f64) -> f64 {
    theta_degrees / 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: &[f64]) -> DenseVector {
        DenseVector::new(c.to_vec())
    }

    #[test]
    fn dot_and_norm() {
        let a = v(&[3.0, 4.0]);
        let b = v(&[1.0, 0.0]);
        assert_eq!(a.dot(&b), 3.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn normalized_has_unit_norm() {
        let a = v(&[3.0, 4.0]).normalized();
        assert!((a.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_vector_is_identity() {
        let z = v(&[0.0, 0.0]);
        assert_eq!(z.normalized(), z);
    }

    #[test]
    fn angle_orthogonal_is_90() {
        let a = v(&[1.0, 0.0]);
        let b = v(&[0.0, 1.0]);
        assert!((a.angle_degrees(&b) - 90.0).abs() < 1e-9);
        assert!((a.angular_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn angle_opposite_is_180() {
        let a = v(&[1.0, 0.0]);
        let b = v(&[-1.0, 0.0]);
        assert!((a.angle_degrees(&b) - 180.0).abs() < 1e-9);
        assert!((a.angular_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn angle_same_direction_is_zero() {
        let a = v(&[2.0, 1.0]);
        let b = v(&[4.0, 2.0]);
        // acos is ill-conditioned near cos = 1; a few 1e-5 degrees of
        // numerical slack is far below any threshold we ever use (≥ 2°).
        assert!(a.angle_degrees(&b).abs() < 1e-3);
    }

    #[test]
    fn angle_with_zero_vector_is_zero() {
        let a = v(&[1.0, 2.0]);
        let z = v(&[0.0, 0.0]);
        assert_eq!(a.angle_degrees(&z), 0.0);
    }

    #[test]
    fn cached_norms_are_bit_identical() {
        let pairs = [
            ([3.0, 4.0], [1.0, 0.0]),
            ([0.1, -0.7], [-0.3, 0.9]),
            ([1e-8, 2e-8], [5e7, -1e7]),
            ([0.0, 0.0], [1.0, 1.0]),
        ];
        for (a, b) in pairs {
            let (a, b) = (v(&a), v(&b));
            let direct = a.angle_degrees(&b);
            let cached =
                angle_degrees_with_norms(a.components(), b.components(), a.norm(), b.norm());
            assert_eq!(direct.to_bits(), cached.to_bits());
        }
    }

    #[test]
    fn angular_at_most_equals_exact_check() {
        // A deterministic sweep of directions, plus degenerate vectors.
        let mut vs: Vec<DenseVector> = (0..12)
            .map(|i| {
                let t = i as f64 * 0.53;
                v(&[t.cos(), t.sin(), (t * 1.7).cos() * 0.4])
            })
            .collect();
        vs.push(v(&[0.0, 0.0, 0.0]));
        vs.push(v(&[1e-12, 0.0, 0.0]));
        for a in &vs {
            for b in &vs {
                let (na, nb) = (a.norm(), b.norm());
                let exact = a.angular_distance(b);
                // Thresholds away from, *at*, and tightly around the
                // exact distance — the last ones land inside the guard
                // band and must take the exact-kernel fallback.
                let thresholds = [
                    0.0,
                    0.25,
                    1.0,
                    exact,
                    (exact - 1e-14).clamp(0.0, 1.0),
                    (exact + 1e-14).clamp(0.0, 1.0),
                    -0.5,
                    1.5,
                ];
                for t in thresholds {
                    assert_eq!(
                        angular_at_most_with_norms_counted(
                            a.components(),
                            b.components(),
                            t,
                            na,
                            nb
                        )
                        .0,
                        exact <= t,
                        "a={a:?} b={b:?} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn dot_kernel_matches_sequential_reference() {
        // The 4-accumulator kernel regroups the sum, so agreement is to
        // relative precision, not bit-for-bit — check every tail length
        // (0..4 leftover components) around the chunk boundary.
        for len in 1..=19usize {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos() - 0.4).collect();
            let reference: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = v(&a).dot(&v(&b));
            let tol = 1e-12 * reference.abs().max(1.0);
            assert!(
                (got - reference).abs() <= tol,
                "len={len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn dot_kernel_exact_on_integral_inputs() {
        // With integrally-representable products the regrouped sum is
        // exact, so the kernel must reproduce the mathematical value.
        let a: Vec<f64> = (0..13).map(|i| (i as f64) - 6.0).collect();
        let b: Vec<f64> = (0..13).map(|i| ((i * 3) % 7) as f64).collect();
        let exact: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(v(&a).dot(&v(&b)), exact);
    }

    #[test]
    fn degrees_conversion_matches_paper_example() {
        // Paper Example 5: dthr = 15/180.
        assert!((degrees_to_distance(15.0) - 15.0 / 180.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_vector_rejected() {
        let _ = DenseVector::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dimension_mismatch_panics() {
        let a = v(&[1.0]);
        let b = v(&[1.0, 2.0]);
        let _ = a.dot(&b);
    }
}
