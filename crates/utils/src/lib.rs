//! Support data structures shared by every crate in the SGA workspace.
//!
//! The analysis crates need a handful of infrastructure pieces that we build
//! from scratch so the whole system is self-contained:
//!
//! * [`idx`] — strongly typed indices and the [`IndexVec`]
//!   arena they index into. All IR entities (procedures, blocks, nodes,
//!   variables, abstract locations, …) are newtyped `u32` indices.
//! * [`fxhash`] — a fast, deterministic hash function (the multiply-xor
//!   hash used by rustc), plus `HashMap`/`HashSet` aliases built on it.
//!   Determinism matters: analysis results and benchmark tables must not
//!   depend on `RandomState`.
//! * [`pmap`] — a persistent (shared-structure) balanced search tree used as
//!   the abstract-state store. Dense analyses keep one abstract state per
//!   control point; without structural sharing the memory cost is quadratic.
//! * [`bitset`] — dense fixed-width bitsets used for def/use sets and
//!   reaching-definition style passes.
//! * [`graph`] — small graph toolkit: Tarjan SCC, reverse postorder, and
//!   Bourdoncle-style weak topological order used to place widening points.
//! * [`par`] — the deterministic fork/join scheduler: results come back in
//!   input order whatever the worker count.
//! * [`stats`] — wall-clock timers and peak-memory sampling used by the
//!   benchmark harness to fill in the paper's tables.

//! * [`json`] — a small deterministic JSON reader/writer used by the
//!   pipeline's run reports and on-disk cache.

pub mod bitset;
pub mod fxhash;
pub mod graph;
pub mod idx;
pub mod json;
pub mod par;
pub mod pmap;
pub mod stats;

pub use bitset::BitSet;
pub use fxhash::{FxHashMap, FxHashSet};
pub use idx::{Idx, IndexVec};
pub use json::Json;
pub use pmap::PMap;
