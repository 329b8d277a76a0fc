//! Property-based tests for the from-scratch learners. Each property runs
//! on a fixed number of cases; case `c` draws its inputs from
//! `SimRng::new(c)`, so a failure names the case that reproduces it.

use mlcore::{Dataset, ForestParams, RandomForest, RegressionTree, Scaler, TreeParams};
use simcore::SimRng;
use std::ops::Range;

/// Cases per property.
const CASES: u64 = 64;

fn dataset(rows: &[(Vec<f64>, f64)]) -> Dataset {
    let dim = rows[0].0.len();
    let mut d = Dataset::new(dim);
    for (x, y) in rows {
        d.push(x, *y);
    }
    d
}

/// Between `n.start` and `n.end - 1` rows of `dim` features, features and
/// target all uniform in `[-100, 100)`.
fn arb_rows(rng: &mut SimRng, dim: usize, n: Range<usize>) -> Vec<(Vec<f64>, f64)> {
    let len = n.start + rng.index(n.end - n.start);
    (0..len)
        .map(|_| {
            let x = (0..dim).map(|_| rng.range_f64(-100.0, 100.0)).collect();
            (x, rng.range_f64(-100.0, 100.0))
        })
        .collect()
}

/// A three-feature probe point in `[-200, 200)³`.
fn probe(rng: &mut SimRng) -> Vec<f64> {
    (0..3).map(|_| rng.range_f64(-200.0, 200.0)).collect()
}

#[test]
fn tree_prediction_within_target_range() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let rows = arb_rows(&mut rng, 3, 2..60);
        let probe = probe(&mut rng);
        let seed = rng.next_u64();
        let d = dataset(&rows);
        let mut fit_rng = SimRng::new(seed);
        let t = RegressionTree::fit(&d, TreeParams::default(), &mut fit_rng);
        let lo = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        let hi = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
        let p = t.predict(&probe);
        assert!(
            p >= lo - 1e-9 && p <= hi + 1e-9,
            "case {case}: prediction {p} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn forest_prediction_within_target_range() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let rows = arb_rows(&mut rng, 3, 2..40);
        let probe = probe(&mut rng);
        let seed = rng.next_u64();
        let d = dataset(&rows);
        let f = RandomForest::fit(
            &d,
            ForestParams {
                n_trees: 10,
                ..Default::default()
            },
            seed,
        );
        let lo = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
        let hi = rows.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
        let p = f.predict(&probe);
        assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "case {case}");
    }
}

#[test]
fn forest_importances_are_a_distribution() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let rows = arb_rows(&mut rng, 4, 5..40);
        let seed = rng.next_u64();
        let d = dataset(&rows);
        let f = RandomForest::fit(
            &d,
            ForestParams {
                n_trees: 8,
                ..Default::default()
            },
            seed,
        );
        let imp = f.importances();
        assert_eq!(imp.len(), 4, "case {case}");
        for &v in &imp {
            assert!(v >= 0.0, "case {case}");
        }
        let total: f64 = imp.iter().sum();
        assert!(
            total.abs() < 1e-9 || (total - 1.0).abs() < 1e-9,
            "case {case}: total {total}"
        );
    }
}

#[test]
fn split_is_a_partition() {
    for case in 0..CASES {
        let mut rng = SimRng::new(case);
        let rows = arb_rows(&mut rng, 2, 2..100);
        let frac = rng.range_f64(0.1, 0.9);
        let seed = rng.next_u64();
        let d = dataset(&rows);
        let (train, test) = d.split(frac, &mut SimRng::new(seed));
        assert_eq!(train.len() + test.len(), d.len(), "case {case}");
        // Target multiset is preserved.
        let mut all: Vec<f64> = train.targets().to_vec();
        all.extend_from_slice(test.targets());
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut orig: Vec<f64> = d.targets().to_vec();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, orig, "case {case}");
    }
}

#[test]
fn scaler_transform_roundtrips_statistics() {
    for case in 0..CASES {
        let rows = arb_rows(&mut SimRng::new(case), 2, 3..80);
        let d = dataset(&rows);
        let sc = Scaler::fit(&d);
        let t = sc.transform_dataset(&d);
        for j in 0..2 {
            let col: Vec<f64> = (0..t.len()).map(|i| t.row(i)[j]).collect();
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-6, "case {case}: column {j} mean {mean}");
        }
    }
}

#[test]
fn tree_fits_training_data_exactly_with_unbounded_depth() {
    let (mut checked, mut case) = (0, 0);
    while checked < CASES {
        let mut rng = SimRng::new(case);
        case += 1;
        let rows = arb_rows(&mut rng, 1, 1..40);
        let seed = rng.next_u64();
        // Distinct x values => a deep tree with min_leaf 1 memorises them.
        let mut xs: Vec<f64> = rows.iter().map(|r| r.0[0]).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        if xs.len() != rows.len() {
            continue;
        }
        checked += 1;
        let d = dataset(&rows);
        let t = RegressionTree::fit(
            &d,
            TreeParams {
                max_depth: 64,
                min_samples_leaf: 1,
                mtry: 1,
            },
            &mut SimRng::new(seed),
        );
        for (x, y) in &rows {
            assert!((t.predict(x) - y).abs() < 1e-9, "case {}", case - 1);
        }
    }
}
