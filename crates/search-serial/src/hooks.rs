//! [`Hooks`]: the cross-cutting handles of one search, in one value.
//!
//! Every search core is generic over zero-cost handles: a transposition
//! table (`tt::TtAccess`), a search control, dynamic move ordering
//! ([`OrdAccess`](crate::OrdAccess)), a trace recorder
//! (`trace::TraceAccess`) and a metrics sink (`metrics::MetricsAccess`).
//! `()` is the absent handle in every slot and compiles to the handle-free
//! code. `Hooks` bundles them, so each algorithm has one generic entry
//! that takes a window and a `Hooks` instead of a suffixed twin per
//! combination of handles:
//!
//! ```
//! use gametree::{random::RandomTreeSpec, Window};
//! use search_serial::{
//!     alphabeta_with, negmax, CtlProbe, Hooks, OrderPolicy, OrderingTables, SearchControl,
//! };
//! use tt::TranspositionTable;
//!
//! let root = RandomTreeSpec::new(1, 4, 5).root();
//! let table = TranspositionTable::with_bits(12);
//! let tables = OrderingTables::new();
//! let ctl = SearchControl::unlimited();
//! let probe = CtlProbe::new(&ctl);
//! let hooks = Hooks::new().tt(&table).ord(&tables).ctl(&probe);
//! let r = alphabeta_with(&root, 5, Window::FULL, OrderPolicy::NATURAL, hooks);
//! assert!(r.is_complete());
//! assert_eq!(r.value, negmax(&root, 5).value);
//! ```
//!
//! The control slot holds what the search polls. A serial search polls a
//! [`CtlAccess`](crate::CtlAccess) handle, a `&`[`CtlProbe`] over the
//! shared token. A threaded search takes the `&`[`SearchControl`] token
//! itself ([`CtlToken`](crate::CtlToken)) and gives each worker its own
//! probe. The serial searches have no trace or metrics slot: their
//! signatures fix both to `()`. The threaded engine records a serial
//! frontier's table traffic through a `trace::Traced` table handle.
//!
//! An entry unpacks the bundle once. The recursions below it keep one
//! parameter per handle, so each instantiation compiles to the code it
//! compiled to before the bundle existed.
//!
//! [`CtlProbe`]: crate::CtlProbe
//! [`SearchControl`]: crate::SearchControl

/// The table, control, ordering, trace and metrics handles of one search.
/// Each slot defaults to `()`, the absent handle. Build one with
/// [`Hooks::new`] and the setters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hooks<T = (), C = (), O = (), R = (), M = ()> {
    /// Transposition-table handle: `()` or `&TranspositionTable`.
    pub tt: T,
    /// Control: a `CtlAccess` handle for a serial search, a
    /// `&SearchControl` token for a threaded one, or `()`.
    pub ctl: C,
    /// Dynamic move-ordering handle: `()` or `&OrderingTables`.
    pub ord: O,
    /// Trace handle: `()` or `&Tracer`.
    pub trace: R,
    /// Metrics handle: `()`, `&EngineMetrics` or `Option<&EngineMetrics>`.
    pub metrics: M,
}

impl Hooks {
    /// Every slot empty: the handle-free search.
    pub const fn new() -> Hooks {
        Hooks {
            tt: (),
            ctl: (),
            ord: (),
            trace: (),
            metrics: (),
        }
    }
}

impl<T, C, O, R, M> Hooks<T, C, O, R, M> {
    /// Sets the transposition-table handle.
    pub fn tt<T2>(self, tt: T2) -> Hooks<T2, C, O, R, M> {
        Hooks {
            tt,
            ctl: self.ctl,
            ord: self.ord,
            trace: self.trace,
            metrics: self.metrics,
        }
    }

    /// Sets the control handle.
    pub fn ctl<C2>(self, ctl: C2) -> Hooks<T, C2, O, R, M> {
        Hooks {
            tt: self.tt,
            ctl,
            ord: self.ord,
            trace: self.trace,
            metrics: self.metrics,
        }
    }

    /// Sets the dynamic move-ordering handle.
    pub fn ord<O2>(self, ord: O2) -> Hooks<T, C, O2, R, M> {
        Hooks {
            tt: self.tt,
            ctl: self.ctl,
            ord,
            trace: self.trace,
            metrics: self.metrics,
        }
    }

    /// Sets the trace handle.
    pub fn trace<R2>(self, trace: R2) -> Hooks<T, C, O, R2, M> {
        Hooks {
            tt: self.tt,
            ctl: self.ctl,
            ord: self.ord,
            trace,
            metrics: self.metrics,
        }
    }

    /// Sets the metrics handle.
    pub fn metrics<M2>(self, metrics: M2) -> Hooks<T, C, O, R, M2> {
        Hooks {
            tt: self.tt,
            ctl: self.ctl,
            ord: self.ord,
            trace: self.trace,
            metrics,
        }
    }
}
