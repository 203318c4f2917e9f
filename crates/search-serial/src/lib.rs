//! Serial game-tree search algorithms (paper §2 and §5).
//!
//! * [`negmax::negmax`] — exhaustive negamax (§2, ground truth);
//! * [`alphabeta::alphabeta`] — alpha-beta with deep cutoffs
//!   (§2.1), the serial baseline of the experiments;
//! * [`nodeep::alphabeta_nodeep`] — alpha-beta without
//!   deep cutoffs (§2.2), MWF's reference algorithm;
//! * [`aspiration::aspiration`] — serial aspiration search;
//! * [`er::er_search`] — serial ER (Figure 8);
//! * [`pvs::pvs`] — principal-variation (minimal-window) search, the
//!   primitive behind the §4.4 footnote's pv-splitting variant.
//!
//! All algorithms return the same root value on the same tree (verified by
//! the cross-crate property tests in the workspace `tests/` directory).

#![warn(missing_docs)]

pub mod alphabeta;
pub mod aspiration;
pub mod control;
pub mod er;
pub mod iterative;
pub mod negmax;
pub mod nodeep;
pub mod ordering;
pub mod pv;
pub mod pvs;
pub mod traced;

use gametree::{SearchStats, Value};

/// The value and instrumentation produced by one search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchResult {
    /// Root value from the point of view of the player to move.
    pub value: Value,
    /// Node and evaluator counters.
    pub stats: SearchStats,
}

pub use alphabeta::{
    alphabeta, alphabeta_ctl, alphabeta_tt, alphabeta_window, alphabeta_window_ord,
    alphabeta_window_tt, alphabeta_window_with, fail_soft_bound,
};
pub use aspiration::{aspiration, aspiration_static, aspiration_tt};
pub use control::{AbortReason, CtlAccess, CtlProbe, CtlSearchResult, SearchControl, CHECK_PERIOD};
pub use er::{
    er_eval_refute, er_eval_refute_ctl_with, er_eval_refute_ord, er_eval_refute_tt,
    er_eval_refute_with, er_refute_rest, er_refute_rest_ctl_with, er_refute_rest_ord,
    er_refute_rest_tt, er_refute_rest_with, er_search, er_search_ctl, er_search_tt,
    er_search_window, er_search_window_ctl_with, er_search_window_ord, er_search_window_tt,
    er_search_window_with, ErConfig,
};
pub use iterative::{iterative_deepening, IterativeResult};
pub use negmax::{negmax, negmax_ctl, negmax_tt};
pub use nodeep::alphabeta_nodeep;
pub use ordering::{
    note_cutoff, visit_order, OrdAccess, OrderPolicy, OrderingTables, SelectivityConfig, Visit,
};
pub use pv::{alphabeta_pv, PvResult};
pub use pvs::{pvs, pvs_ctl, pvs_tt, pvs_window, pvs_window_ord, pvs_window_tt};
pub use traced::{
    alphabeta_ctl_traced, er_search_ctl_traced, er_search_ctl_tt_traced, negmax_ctl_traced,
    pvs_ctl_traced,
};
