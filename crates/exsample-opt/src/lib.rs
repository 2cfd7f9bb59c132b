//! # exsample-opt
//!
//! The optimal static chunk-weight benchmark of Section IV-A (Eq. IV.1).
//!
//! ExSample implicitly assigns each chunk a sampling weight `w_j = n_j / n`.  The
//! paper compares that adaptive allocation against the best *fixed* allocation
//! chosen with perfect knowledge of where instances live: maximise the expected
//! number of distinct instances found after `n` samples,
//!
//! ```text
//! maximise  Σ_i 1 − (1 − p_i · w)^n     subject to  w ≥ 0,  Σ_j w_j = 1
//! ```
//!
//! where `p_i` is instance *i*'s vector of per-chunk conditional hit probabilities.
//! The paper solves this with CVXPY; the objective is smooth and concave over the
//! probability simplex, so this crate solves it from scratch with projected
//! gradient ascent (including an exact Euclidean projection onto the simplex).
//! The resulting curves are the dashed "optimal" lines of Figures 3 and 4.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod objective;
pub mod simplex;
pub mod solver;

pub use objective::{expected_found, InstanceChunkProbabilities};
pub use simplex::project_to_simplex;
pub use solver::{optimal_weights, SolverOptions};
