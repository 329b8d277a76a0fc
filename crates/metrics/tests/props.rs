//! Property-based tests for correlation and metric-vector invariants.
//! Each property runs on a fixed number of cases; case `c` draws its inputs
//! from `SimRng::new(c)`, so a failure names the case that reproduces it.

use metricsd::{pearson, spearman, Metric, MetricVector};
use simcore::SimRng;
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 256;

/// A vector of between `len.start` and `len.end - 1` values drawn uniformly
/// from `[lo, hi)`.
fn vec_in(rng: &mut SimRng, len: Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let n = len.start + rng.index(len.end - len.start);
    (0..n).map(|_| rng.range_f64(lo, hi)).collect()
}

/// Between 2 and 99 `(x, y)` pairs in `[-1e3, 1e3)²`, split into columns.
fn pairs(rng: &mut SimRng) -> (Vec<f64>, Vec<f64>) {
    let n = 2 + rng.index(98);
    (0..n)
        .map(|_| (rng.range_f64(-1e3, 1e3), rng.range_f64(-1e3, 1e3)))
        .unzip()
}

#[test]
fn pearson_bounded() {
    for case in 0..CASES {
        let (x, y) = pairs(&mut SimRng::new(case));
        let r = pearson(&x, &y);
        assert!(
            (-1.0 - 1e-9..=1.0 + 1e-9).contains(&r),
            "case {case}: r = {r}"
        );
    }
}

#[test]
fn pearson_symmetric() {
    for case in 0..CASES {
        let (x, y) = pairs(&mut SimRng::new(case));
        assert!(
            (pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn pearson_invariant_under_affine_transform() {
    let (mut checked, mut case) = (0, 0);
    while checked < CASES {
        let mut rng = SimRng::new(case);
        case += 1;
        let xs = vec_in(&mut rng, 3..50, -1e3, 1e3);
        let a = rng.range_f64(0.1, 10.0);
        let b = rng.range_f64(-100.0, 100.0);
        // y = a·x + b gives r = 1 exactly (for non-constant x).
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        if spread <= 1e-6 {
            continue;
        }
        checked += 1;
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-6, "case {}", case - 1);
    }
}

#[test]
fn spearman_bounded_and_monotone_invariant() {
    let (mut checked, mut case) = (0, 0);
    while checked < CASES {
        let xs = vec_in(&mut SimRng::new(case), 3..50, -1e3, 1e3);
        case += 1;
        // Any strictly monotone transform preserves Spearman = 1.
        let mut unique = xs.clone();
        unique.sort_by(|p, q| p.partial_cmp(q).unwrap());
        unique.dedup();
        if unique.len() != xs.len() {
            continue;
        }
        checked += 1;
        let ys: Vec<f64> = xs.iter().map(|&x| x.powi(3) + x).collect();
        let r = spearman(&xs, &ys);
        assert!((r - 1.0).abs() < 1e-9, "case {}: r = {r}", case - 1);
    }
}

#[test]
fn metric_vector_mean_between_extremes() {
    for case in 0..CASES {
        let vals = vec_in(&mut SimRng::new(case), 1..20, 0.0, 100.0);
        let vectors: Vec<MetricVector> = vals
            .iter()
            .map(|&v| {
                let mut m = MetricVector::zero();
                m.set(Metric::Ipc, v);
                m
            })
            .collect();
        let mean = MetricVector::mean_of(&vectors).get(Metric::Ipc);
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9, "case {case}");
    }
}

#[test]
fn selected_projection_preserves_values() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let arr: [f64; 19] = std::array::from_fn(|_| rng.range_f64(0.0, 1e6));
        let m = MetricVector::from_array(arr);
        let s = m.selected();
        for (i, metric) in Metric::SELECTED.iter().enumerate() {
            assert_eq!(s[i], m.get(*metric), "case {case}");
        }
    }
}
