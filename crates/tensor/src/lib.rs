//! # rlqvo-tensor
//!
//! A small, dependency-free neural-network substrate: dense `f32` matrices
//! ([`Matrix`]), reverse-mode automatic differentiation on a tape
//! ([`Tape`]/[`Var`]), and a first-order optimizer ([`optim::Adam`]).
//!
//! ## Why it exists
//!
//! The paper implements its policy network in PyTorch. This environment has
//! no GPU and no `tch`; the networks involved are tiny (query graphs have
//! ≤ 32 vertices, hidden sizes 16–256), so an exact CPU implementation is
//! both sufficient and fast. Every differentiable op's gradient is verified
//! against central finite differences in the [`gradcheck`] tests.
//!
//! ## Usage sketch
//!
//! ```
//! use rlqvo_tensor::{Matrix, Tape};
//!
//! let w = Matrix::from_rows(&[&[0.5, -0.2], &[0.1, 0.3]]);
//! let x = Matrix::from_rows(&[&[1.0, 2.0]]);
//!
//! let tape = Tape::new();
//! let wv = tape.leaf(w);
//! let xv = tape.leaf(x);
//! let y = tape.matmul(xv, wv);
//! let loss = tape.sum(tape.mul(y, y));
//! let grads = tape.backward(loss);
//! let dw = grads.get(wv).unwrap();
//! assert_eq!(dw.rows(), 2);
//! ```

pub mod gradcheck;
pub mod infer;
pub mod matrix;
pub mod optim;
pub mod tape;

pub use infer::{InferMath, InferScratch};
pub use matrix::Matrix;
pub use tape::{GradStore, Tape, Var};
