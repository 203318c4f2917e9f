//! Search control: deadlines, cancellation, and abort propagation.
//!
//! The paper's algorithms terminate only when the root value is exact. A
//! production searcher also has to stop *early* — a time budget expires,
//! the caller loses interest, a worker thread dies — and stop *cleanly*:
//! no poisoned locks, no stranded siblings, no half-written table entries.
//!
//! The [`SearchControl`] token is the shared word every searcher agrees to
//! watch. It is a single atomic state (running, or tripped with an
//! [`AbortReason`]) plus an optional deadline `Instant`. Anyone may trip
//! it; the first reason wins and the trip is sticky. Searchers poll it at
//! node entry (via a [`CtlProbe`], which rations the clock reads) and
//! unwind without storing partial values into a transposition table.
//!
//! The serial searches stay zero-cost when no control is attached: the
//! recursion is generic over [`CtlAccess`], and the `()` handle's check
//! statically returns "keep going", so a search whose hooks carry no
//! control compiles to exactly the code it was before this module
//! existed (the property tests pin the observable half of that claim:
//! identical values *and* identical node counts).

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

use gametree::{SearchStats, Value};

use crate::SearchResult;

/// Why a search stopped before its result was exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AbortReason {
    /// The deadline carried by the [`SearchControl`] passed.
    DeadlineHit = 1,
    /// [`SearchControl::cancel`] was called.
    Cancelled = 2,
    /// A worker thread panicked; the search tree can no longer complete.
    WorkerPanicked = 3,
}

impl AbortReason {
    fn from_u8(v: u8) -> Option<AbortReason> {
        match v {
            1 => Some(AbortReason::DeadlineHit),
            2 => Some(AbortReason::Cancelled),
            3 => Some(AbortReason::WorkerPanicked),
            _ => None,
        }
    }

    /// A short lowercase label (`"deadline"`, `"cancelled"`, `"panic"`),
    /// stable for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            AbortReason::DeadlineHit => "deadline",
            AbortReason::Cancelled => "cancelled",
            AbortReason::WorkerPanicked => "panic",
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const RUNNING: u8 = 0;

/// Shared stop token for one search: an atomic run/abort state plus an
/// optional deadline.
///
/// Cheap to poll (one relaxed load when running with no deadline), safe to
/// share by reference across worker threads, and sticky: once tripped the
/// reason never changes, so every observer reports the same cause.
#[derive(Debug)]
pub struct SearchControl {
    state: AtomicU8,
    deadline: Option<Instant>,
}

impl SearchControl {
    /// A control that never trips on its own (no deadline). It can still be
    /// [`cancel`](Self::cancel)led or tripped by a worker panic.
    pub const fn unlimited() -> SearchControl {
        SearchControl {
            state: AtomicU8::new(RUNNING),
            deadline: None,
        }
    }

    /// A control that trips [`AbortReason::DeadlineHit`] once `deadline`
    /// passes.
    pub fn with_deadline(deadline: Instant) -> SearchControl {
        SearchControl {
            state: AtomicU8::new(RUNNING),
            deadline: Some(deadline),
        }
    }

    /// A control whose deadline is `budget` from now.
    pub fn with_budget(budget: Duration) -> SearchControl {
        SearchControl::with_deadline(Instant::now() + budget)
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Trips the token with `reason` unless it already tripped; the first
    /// reason is kept. Returns whether this call was the one that tripped.
    pub fn trip(&self, reason: AbortReason) -> bool {
        self.state
            .compare_exchange(RUNNING, reason as u8, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Requests cancellation ([`AbortReason::Cancelled`]).
    pub fn cancel(&self) -> bool {
        self.trip(AbortReason::Cancelled)
    }

    /// The abort reason, or `None` while the search may keep running.
    pub fn reason(&self) -> Option<AbortReason> {
        AbortReason::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Whether the token has tripped.
    ///
    /// A trip is *sticky*: there is no way to re-arm a tripped token. A
    /// driver that runs many bounded slices (the engine server's
    /// session scheduler, for instance) therefore creates a **fresh token
    /// per slice** rather than reusing one per session:
    ///
    /// ```
    /// use search_serial::control::SearchControl;
    ///
    /// let slice1 = SearchControl::unlimited();
    /// slice1.cancel();
    /// assert!(slice1.is_tripped());
    ///
    /// // The next slice of the same session starts clean because it gets
    /// // its own token; the old one stays tripped forever.
    /// let slice2 = SearchControl::unlimited();
    /// assert!(!slice2.is_tripped());
    /// assert!(slice1.is_tripped());
    /// ```
    pub fn is_tripped(&self) -> bool {
        self.reason().is_some()
    }

    /// The reason the token tripped, or `None` while it is still armed —
    /// the same answer as [`reason`](Self::reason), under the name the
    /// session layer uses when classifying a finished slice:
    ///
    /// ```
    /// use search_serial::control::{AbortReason, SearchControl};
    ///
    /// let ctl = SearchControl::unlimited();
    /// assert_eq!(ctl.trip_reason(), None);
    /// ctl.cancel();
    /// assert_eq!(ctl.trip_reason(), Some(AbortReason::Cancelled));
    /// // First trip wins; later trips do not overwrite the reason.
    /// ctl.trip(AbortReason::WorkerPanicked);
    /// assert_eq!(ctl.trip_reason(), Some(AbortReason::Cancelled));
    /// ```
    pub fn trip_reason(&self) -> Option<AbortReason> {
        self.reason()
    }

    /// Checks the state *and* the deadline (reading the clock), tripping
    /// `DeadlineHit` if the deadline passed. [`CtlProbe`] rations calls to
    /// this; hot loops should poll through a probe instead.
    pub fn poll(&self) -> Option<AbortReason> {
        if let Some(r) = self.reason() {
            return Some(r);
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.trip(AbortReason::DeadlineHit);
                return self.reason();
            }
        }
        None
    }
}

impl Default for SearchControl {
    fn default() -> SearchControl {
        SearchControl::unlimited()
    }
}

/// How many probe checks elapse between clock reads. The state load runs
/// every check; `Instant::now` only every `CHECK_PERIOD`-th. One period is
/// at most a few dozen node expansions, so the deadline overshoot this
/// batching adds is microseconds.
pub const CHECK_PERIOD: u32 = 64;

/// A per-thread polling handle over a shared [`SearchControl`].
///
/// The tick counter lives in a `Cell` owned by one worker, so rationing
/// the clock reads costs no cross-thread cache traffic — the only shared
/// word is the control's state atomic.
#[derive(Debug)]
pub struct CtlProbe<'c> {
    ctl: &'c SearchControl,
    ticks: Cell<u32>,
}

impl<'c> CtlProbe<'c> {
    /// A probe over `ctl`, with its clock gate positioned so the very
    /// first check reads the clock (an already-expired deadline trips
    /// immediately).
    pub fn new(ctl: &'c SearchControl) -> CtlProbe<'c> {
        CtlProbe {
            ctl,
            ticks: Cell::new(0),
        }
    }

    /// The underlying control token.
    pub fn control(&self) -> &'c SearchControl {
        self.ctl
    }

    /// One poll: the state always, the clock every [`CHECK_PERIOD`] calls
    /// (and never when no deadline is set).
    pub fn check(&self) -> Option<AbortReason> {
        if let Some(r) = self.ctl.reason() {
            return Some(r);
        }
        self.ctl.deadline?;
        let t = self.ticks.get();
        self.ticks.set(t.wrapping_add(1));
        if t.is_multiple_of(CHECK_PERIOD) {
            return self.ctl.poll();
        }
        None
    }
}

/// A copyable abort-check handle threaded through search recursions, the
/// control-layer analogue of `tt::TtAccess`: `()` means "no control" and
/// compiles to straight-line code; `&CtlProbe` polls a shared
/// [`SearchControl`].
pub trait CtlAccess: Copy {
    /// Polls for an abort. `None` means keep searching.
    fn check(self) -> Option<AbortReason>;

    /// The abort reason after an abort was observed (`None` for the `()`
    /// handle, which never aborts).
    fn reason(self) -> Option<AbortReason>;
}

impl CtlAccess for () {
    #[inline(always)]
    fn check(self) -> Option<AbortReason> {
        None
    }

    #[inline(always)]
    fn reason(self) -> Option<AbortReason> {
        None
    }
}

impl CtlAccess for &CtlProbe<'_> {
    #[inline]
    fn check(self) -> Option<AbortReason> {
        CtlProbe::check(self)
    }

    #[inline]
    fn reason(self) -> Option<AbortReason> {
        self.ctl.reason()
    }
}

/// The control slot of a threaded search's [`Hooks`](crate::Hooks): `()`
/// for a run that only a worker panic can stop, or a `&SearchControl`
/// token. Each worker polls the token through its own [`CtlProbe`]; a
/// serial search takes such a probe directly, as a [`CtlAccess`] handle.
pub trait CtlToken: Copy {
    /// The token, if one is attached.
    fn token(&self) -> Option<&SearchControl>;
}

impl CtlToken for () {
    fn token(&self) -> Option<&SearchControl> {
        None
    }
}

impl CtlToken for &SearchControl {
    fn token(&self) -> Option<&SearchControl> {
        Some(self)
    }
}

/// The result of a search with a control handle: a value plus a
/// partial-result flag.
///
/// When `aborted` is `None` the search ran to completion and `value` is
/// exactly what the same search without a control would have returned.
/// When it is `Some(reason)` the search unwound early: `value` is whatever
/// partial bound the recursion had established and must not be trusted as
/// exact (the iterative-deepening driver, for instance, discards it and
/// keeps the previous depth's completed value).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtlSearchResult {
    /// Root value; exact iff `aborted.is_none()`.
    pub value: Value,
    /// Node and evaluator counters for the work actually performed.
    pub stats: SearchStats,
    /// `None` for a completed search, the trip reason for a partial one.
    pub aborted: Option<AbortReason>,
}

impl CtlSearchResult {
    /// Whether the search completed (the value is exact).
    pub fn is_complete(&self) -> bool {
        self.aborted.is_none()
    }

    /// The result of a recursion that returns `None` when `ctl` tripped:
    /// complete on `Some`, otherwise `partial` flagged with the trip
    /// reason.
    pub(crate) fn from_rec<C: CtlAccess>(
        value: Option<Value>,
        partial: Value,
        stats: SearchStats,
        ctl: C,
    ) -> CtlSearchResult {
        CtlSearchResult {
            value: value.unwrap_or(partial),
            stats,
            aborted: if value.is_some() { None } else { ctl.reason() },
        }
    }

    /// The value and counters of a search run without a control, which
    /// cannot abort.
    pub(crate) fn completed(self) -> SearchResult {
        assert!(self.is_complete(), "a search without a control aborted");
        SearchResult {
            value: self.value,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_trip_wins_and_is_sticky() {
        let ctl = SearchControl::unlimited();
        assert_eq!(ctl.reason(), None);
        assert!(ctl.cancel());
        assert!(!ctl.trip(AbortReason::WorkerPanicked));
        assert_eq!(ctl.reason(), Some(AbortReason::Cancelled));
    }

    #[test]
    fn unlimited_never_trips_on_poll() {
        let ctl = SearchControl::unlimited();
        for _ in 0..1000 {
            assert_eq!(ctl.poll(), None);
        }
    }

    #[test]
    fn expired_deadline_trips_on_first_probe_check() {
        let ctl = SearchControl::with_deadline(Instant::now() - Duration::from_millis(1));
        let probe = CtlProbe::new(&ctl);
        assert_eq!(probe.check(), Some(AbortReason::DeadlineHit));
        assert!(ctl.is_tripped());
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let ctl = SearchControl::with_budget(Duration::from_secs(3600));
        let probe = CtlProbe::new(&ctl);
        for _ in 0..10 * CHECK_PERIOD {
            assert_eq!(probe.check(), None);
        }
    }

    #[test]
    fn rearming_across_slices_means_a_fresh_token_per_slice() {
        // Session-slice regression: a session's deadline trips the token
        // for slice N; slice N+1 must run under a *new* token (tokens are
        // sticky by design — per slice, not per session). The old token
        // keeps reporting the original reason so late observers of slice
        // N still classify it correctly.
        let session_deadline = Instant::now() + Duration::from_secs(3600);
        let slice1 = SearchControl::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(slice1.poll(), Some(AbortReason::DeadlineHit));
        assert!(slice1.is_tripped());
        assert_eq!(slice1.trip_reason(), Some(AbortReason::DeadlineHit));

        // The scheduler arms the next slice with a fresh token capped by
        // the same session deadline; it starts untripped even though the
        // previous slice's token is spent.
        let slice2 = SearchControl::with_deadline(session_deadline);
        assert!(!slice2.is_tripped());
        assert_eq!(slice2.poll(), None);
        let probe = CtlProbe::new(&slice2);
        for _ in 0..2 * CHECK_PERIOD {
            assert_eq!(probe.check(), None);
        }
        // And the spent token never un-trips.
        assert_eq!(slice1.trip_reason(), Some(AbortReason::DeadlineHit));
    }

    #[test]
    fn unit_handle_never_aborts() {
        assert_eq!(CtlAccess::check(()), None);
        assert_eq!(CtlAccess::reason(()), None);
    }
}
