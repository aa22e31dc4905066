//! # trex — Table Repair Explanations
//!
//! A from-scratch Rust reproduction of **T-REx** (Deutch, Frost, Gilad,
//! Sheffer — SIGMOD 2020 demo): explanations for the output of *black-box*
//! table-repair algorithms via Shapley values.
//!
//! Given a repair algorithm `Alg`, a set of denial constraints `C`, a dirty
//! table `T^d`, and a repaired cell of interest `t[A]`, T-REx treats the
//! binary outcome `Alg|t[A](·,·) ∈ {0,1}` ("is the cell repaired to its
//! clean value?") as the characteristic function of two cooperative games —
//! players = constraints, players = cells — and ranks the players by their
//! Shapley value:
//!
//! ```
//! use trex::{ExplainRequest, Explainer, Players};
//! use trex_datagen::laliga;
//!
//! let dirty = laliga::dirty_table();       // Figure 2a
//! let dcs = laliga::constraints();         // Figure 1 (C1..C4)
//! let alg = laliga::algorithm1();          // the paper's Algorithm 1
//!
//! let req = ExplainRequest {
//!     cell: laliga::cell_of_interest(&dirty),   // t5[Country]
//!     players: Players::Constraints,
//! };
//! let out = Explainer::new(&alg).explain(&dcs, &dirty, &req).unwrap();
//! assert_eq!(out.ranking.top().unwrap().label, "C3");
//! assert_eq!(out.exact[2].1.to_string(), "2/3"); // Figure 1's value for C3
//! ```
//!
//! [`Session::explain`] answers the same request over a session's
//! (editable) inputs; `trex explain` and `trex serve` both go through it.
//!
//! Modules:
//! * [`games`] — the constraint game and the (masked / sampled) cell games,
//!   and the `tROW.Attr` cell-spec parser ([`parse_cell`]);
//! * [`explain`] — [`ExplainRequest`], [`Explanation`] and the
//!   [`Explainer`] that answers one with the other;
//! * [`ranking`] — sorted Shapley rankings with intensity buckets;
//! * [`report`] — text renderings of the demo's three screens (Figure 3);
//! * [`session`] — the interactive repair→explain→edit loop of §4.

#![warn(missing_docs)]

pub mod explain;
pub mod games;
pub mod ranking;
pub mod report;
pub mod session;

pub use explain::{AdaptiveConfig, ExplainError, ExplainRequest, Explainer, Explanation, Players};
pub use games::{
    cell_label, cell_players, parse_cell, CellGameMasked, CellGameSampled, ConstraintGame, MaskMode,
};
pub use ranking::{RankEntry, Ranking, INTENSITY_LEVELS};
pub use report::{render_explanation_screen, render_input_screen, render_repair_screen};
pub use session::{HistoryEntry, Session};
pub use trex_shapley::ExecConfig;
