//! BLAS-1 style kernels on `&[f64]` slices.
//!
//! Every higher-level solver in the crate is written in terms of these
//! few functions, which keeps the numerical behaviour easy to audit and
//! the hot loops easy for LLVM to vectorize (plain slice iteration, no
//! bounds-checked indexing in the inner loops).

/// `y += alpha * x` (the classic axpy kernel).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x *= alpha` in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Max (L-infinity) norm.
#[inline]
pub(crate) fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
}

/// Max-norm distance between two vectors, `||x - y||_inf`.
#[inline]
pub fn dist_inf(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "dist_inf: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

/// Normalize a nonnegative vector so its entries sum to one.
///
/// Used to renormalize probability vectors after numerical drift.
/// Returns `false` (leaving the vector untouched) when the sum is zero
/// or non-finite, so callers can detect a degenerate distribution.
#[inline]
pub fn normalize_l1(x: &mut [f64]) -> bool {
    let s: f64 = x.iter().sum();
    if s <= 0.0 || !s.is_finite() {
        return false;
    }
    scale(1.0 / s, x);
    true
}

/// True when every component is finite.
#[inline]
pub(crate) fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn axpy_basic() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_basic() {
        let mut x = vec![1.0, -2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![0.5, -1.0, 2.0]);
    }

    #[test]
    fn norms_basic() {
        assert_eq!(norm_inf(&[3.0, -4.0]), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn dist_inf_basic() {
        assert_eq!(dist_inf(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
        assert_eq!(dist_inf(&[], &[]), 0.0);
    }

    #[test]
    fn normalize_l1_basic() {
        let mut x = vec![1.0, 3.0];
        assert!(normalize_l1(&mut x));
        assert_eq!(x, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_l1_rejects_zero_and_nonfinite() {
        let mut z = vec![0.0, 0.0];
        assert!(!normalize_l1(&mut z));
        assert_eq!(z, vec![0.0, 0.0]);

        let mut n = vec![f64::NAN, 1.0];
        assert!(!normalize_l1(&mut n));
    }

    #[test]
    fn all_finite_basic() {
        assert!(all_finite(&[0.0, -1.0, 1e300]));
        assert!(!all_finite(&[0.0, f64::INFINITY]));
        assert!(!all_finite(&[f64::NAN]));
    }

    proptest! {
        #[test]
        fn normalize_l1_sums_to_one(mut x in proptest::collection::vec(0.001..1e3_f64, 1..32)) {
            prop_assert!(normalize_l1(&mut x));
            let s: f64 = x.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
