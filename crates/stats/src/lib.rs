//! `masim-stats`: the statistical toolkit behind the enhanced MFACT
//! (Section VI of the paper).
//!
//! * [`Matrix`] — dense mini linear algebra for ≤ 6×6 IRLS solves;
//! * [`fit`] — logistic regression via iteratively reweighted least
//!   squares with internal standardization and raw-scale coefficients;
//! * [`forward_select`] — AIC-guided step-wise forward selection (≤ 5 variables);
//! * [`monte_carlo_cv`] — Monte Carlo cross-validation (100 × 80/20 splits);
//! * [`Confusion`] — confusion counts, MR/FN/FP rates, 2 %-trimmed means.
//!
//! # Example
//!
//! ```
//! use masim_stats::fit;
//!
//! // P(y=1) rises with x.
//! let x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64]).collect();
//! let y: Vec<bool> = (0..100).map(|i| i >= 40).collect();
//! let model = fit(&x, &y).unwrap();
//! assert!(model.coefs[0] > 0.0);
//! assert!(model.prob(&[90.0]) > 0.9);
//! assert!(model.prob(&[5.0]) < 0.1);
//! ```

#![warn(missing_docs)]

mod logistic;
mod matrix;
mod mccv;
mod metrics;
mod select;

pub use logistic::{fit, FitError, Logistic};
pub use matrix::Matrix;
pub use mccv::{monte_carlo_cv, CvReport, CvRound};
pub use metrics::{auc, roc_points, trimmed_mean, Confusion};
pub use select::{forward_select, Selection};
