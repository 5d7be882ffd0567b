//! Abstract FIFO protocol models: exhaustive checking of deadlock-freedom,
//! losslessness, and the bi-modal empty detector's liveness.
//!
//! ## The abstraction
//!
//! Every registry FIFO keeps its items in a contiguous occupancy window
//! (a ring with in-order puts and gets), so each design's gate-level
//! full/empty detectors are functions of the occupancy *count* alone:
//!
//! * anticipating full (paper Fig. 6, window `w =`
//!   [`anticipation_window`]`(sync_stages)`) raises while `w − 1` or
//!   fewer cells are free: `len ≥ C − w + 1`;
//! * anticipating new-empty raises while `w − 1` or fewer items remain:
//!   `len ≤ w − 1`;
//! * once-empty raises only at `len = 0`.
//!
//! The model is therefore a token queue (consecutively numbered by issue
//! order — the in-order losslessness automaton) plus the per-interface
//! flag pipelines: bool synchronizer chains for the anticipating/bi-modal
//! disciplines (the last stage is what the interface observes), count
//! pipelines for the exact pointer-based baselines (the other side's
//! stale occupancy counter), nothing for the direct/asynchronous and
//! single-clock disciplines. Clock edges of the two interfaces interleave
//! arbitrarily — the nondeterministic abstract environment — and a
//! put/get is attempted or not, nondeterministically, at each edge.
//!
//! Two sampling details carry the netlists' correctness argument and are
//! reproduced exactly:
//!
//! * **The put's claim precedes its latching edge.** The cell DV claim
//!   (`e_i`) falls combinationally as soon as `en_put` rises, so the full
//!   chain's sample at a put edge already counts that edge's own put.
//!   Stage 0 therefore samples the *post-edge* occupancy on the put side.
//!   Without this early warning the `w = max(2, stages)` anticipation
//!   margin would be one slip short and the model would overflow.
//! * **The dequeue commits mid-cycle, after the window's opening edge.**
//!   A get edge's sample counts only *earlier* windows' dequeues: stage 0
//!   samples the pre-edge occupancy on the get side. The one-window
//!   staleness this leaves is what `f_at_open` absorbs: a window granted
//!   on a stale "non-empty" opens on an uncommitted cell and delivers an
//!   explicit *bubble* — the model treats an enabled get on an empty
//!   queue as that absorbed no-op, not as underflow.
//!
//! The bi-modal `oe` pipeline refreshes exactly as the netlist does
//! (`build_bimodal_empty`): stage 0 samples the raw once-empty flag,
//! every later stage ORs the current cycle's `en_get` into what it
//! shifts — the deadlock-avoidance re-arm of paper Sec. 3.2. The
//! [`FifoModel::anticipating_only`] knob severs that `oe` path and
//! reproduces the Sec. 3.2 motivating wedge: the anticipating `ne` flag
//! alone declares "empty" while up to `w − 1` items remain, nothing
//! re-arms it, and the liveness check refutes with a lasso.
//!
//! ## Liveness under fairness
//!
//! Empty-detector liveness ("a persistent consumer eventually drains the
//! queue") is a fairness-qualified property: the full interleaving graph
//! contains trivial starvation cycles (the consumer idling forever, one
//! clock never ticking) that refute nothing. The checker therefore
//! reduces to the *round* system: each round is one put-interface edge
//! (any of its nondeterministic choices) followed by one get-interface
//! edge with the consumer requesting. Token counters are monotone, so
//! every cycle of the round graph is put-free and delivery-free; a cycle
//! through a state whose queue holds a token is a genuine wedge — a fair
//! schedule on which the consumer requests every round and is never
//! served. Proving the absence of such cycles proves liveness for the
//! round-robin family of fair schedules (one edge per interface per
//! round), which is the schedule class the paper's Sec. 3.2 argument is
//! about.
//!
//! ## The metastability hazard
//!
//! With `sync_stages < 2` the put-side flag crosses domains through a
//! single flop — the PR-4 injected regression. Protocol-wise the
//! anticipation window still covers the one-edge lag; what breaks is
//! robustness: the flop can sample the flag mid-flight and go metastable,
//! and the put logic can half-commit (the source believes the token was
//! accepted, the array never latched it). The model makes that explicit:
//! when the observed flag disagrees with the raw flag (in flight) and the
//! chain is shorter than two stages, a `put·meta` action may consume the
//! token without enqueuing it. The checker then refutes losslessness with
//! a trace; `replay` drives the same configuration in the event simulator
//! under a hostile metastability model to confirm the violation is real.
//!
//! ## Fixed-size states
//!
//! States are `Copy`: a queue is a [`TokenQueue`] of at most [`MAX_CAP`]
//! tokens, a flag synchronizer a [`FlagPipe`] bitmask of at most
//! [`MAX_STAGES`] stages, an exact-discipline counter pipeline a
//! [`CountPipe`] of as many stages. [`check_fifo`] refuses a model that
//! does not fit instead of panicking mid-exploration.

use mtf_core::{anticipation_window, FlagDiscipline};

use crate::space::{
    join_halves, Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict,
};

/// Largest queue capacity a FIFO model (or a chain stage) can have.
pub const MAX_CAP: usize = 8;

/// Deepest synchronizer a model can have: one bit of a `u8` per stage.
pub const MAX_STAGES: usize = 8;

/// The standard token budget for `cells` cells of storage — three more
/// tokens than fit, so full-window and drain behaviour are both
/// exercised — or `None` if it overflows the `u8` token numbering.
pub(crate) fn token_budget(cells: usize) -> Option<u8> {
    u8::try_from(cells.checked_add(3)?).ok()
}

/// Up to [`MAX_CAP`] issue-order token numbers, oldest first. Slots past
/// the length stay zero, so equal queues compare and hash equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct TokenQueue {
    buf: [u8; MAX_CAP],
    len: u8,
}

impl TokenQueue {
    /// Tokens held.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True if no token is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub(crate) fn push(&mut self, token: u8) {
        self.buf[self.len()] = token;
        self.len += 1;
    }

    /// Removes the oldest token (the queue must be non-empty).
    pub(crate) fn pop_front(&mut self) -> u8 {
        let token = self.buf[0];
        self.buf.copy_within(1.., 0);
        self.buf[MAX_CAP - 1] = 0;
        self.len -= 1;
        token
    }
}

/// A `k`-stage synchronizer of one flag: bit 0 is the newest sample, bit
/// `k − 1` the one the interface observes; higher bits stay zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FlagPipe(u8);

impl FlagPipe {
    fn mask(k: usize) -> u8 {
        ((1u16 << k) - 1) as u8
    }

    /// Every stage of a `k`-stage pipe set.
    pub(crate) fn high(k: usize) -> Self {
        FlagPipe(Self::mask(k))
    }

    fn newest(self) -> bool {
        self.0 & 1 != 0
    }

    /// The last stage's value — what the interface sees.
    pub(crate) fn observed(self, k: usize) -> bool {
        (self.0 >> (k - 1)) & 1 != 0
    }

    /// One clock edge: every stage takes its predecessor's value and
    /// stage 0 samples `x`.
    pub(crate) fn shift(&mut self, x: bool, k: usize) {
        self.0 = ((self.0 << 1) | u8::from(x)) & Self::mask(k);
    }

    /// ORs `en` into every stage but the first: the once-empty chain's
    /// `en_get` re-arm (paper Sec. 3.2).
    pub(crate) fn rearm(&mut self, en: bool, k: usize) {
        if en {
            self.0 |= Self::mask(k) & !1;
        }
    }
}

/// A `k`-stage pipeline of stale counter copies (the exact pointer
/// discipline): stage 0 newest, stage `k − 1` observed, the rest zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct CountPipe([u8; MAX_STAGES]);

impl CountPipe {
    fn newest(self) -> u8 {
        self.0[0]
    }

    fn observed(self, k: usize) -> u8 {
        self.0[k - 1]
    }

    fn shift(&mut self, x: u8, k: usize) {
        self.0.copy_within(..k - 1, 1);
        self.0[0] = x;
    }
}

/// Does `d` observe a flag through a synchronizer?
fn clocked(d: FlagDiscipline) -> bool {
    matches!(
        d,
        FlagDiscipline::Anticipating | FlagDiscipline::Bimodal | FlagDiscipline::Exact
    )
}

/// Checks the bounds a model's fixed-size state imposes: the token
/// budget fits a `u8`, every queue fits [`MAX_CAP`], and a clocked flag
/// has between 1 and [`MAX_STAGES`] synchronizer stages.
pub(crate) fn check_bounds(
    name: &str,
    capacities: &[usize],
    sync_stages: usize,
    any_clocked: bool,
) -> Result<(), String> {
    let cells = capacities.iter().fold(0usize, |a, &c| a.saturating_add(c));
    if token_budget(cells).is_none() {
        return Err(format!(
            "{name}: {cells} cells overflow the u8 token budget (cells + 3 must be at most 255)"
        ));
    }
    if let Some(&c) = capacities.iter().find(|&&c| c > MAX_CAP) {
        return Err(format!("{name}: capacity {c} exceeds MAX_CAP = {MAX_CAP}"));
    }
    if any_clocked && !(1..=MAX_STAGES).contains(&sync_stages) {
        return Err(format!(
            "{name}: a clocked flag needs 1 to {MAX_STAGES} synchronizer stages, not {sync_stages}"
        ));
    }
    Ok(())
}

/// A small-capacity FIFO configuration to check exhaustively.
#[derive(Clone, Debug)]
pub struct FifoModel {
    /// Report name.
    pub name: String,
    /// Cell capacity `C` of the abstract queue (at most [`MAX_CAP`]).
    pub capacity: usize,
    /// How the put interface observes *full*.
    pub put: FlagDiscipline,
    /// How the get interface observes *empty*.
    pub get: FlagDiscipline,
    /// Synchronizer depth of the flag chains (ignored by the
    /// direct/same-cycle disciplines; 1 to [`MAX_STAGES`] otherwise).
    pub sync_stages: usize,
    /// How many tokens the abstract source offers (≥ capacity + 2, so
    /// full-window and drain behaviour are both exercised).
    pub max_tokens: u8,
    /// Sever the bi-modal detector's once-empty path: the get side
    /// observes the anticipating `ne` flag alone — the paper's Sec. 3.2
    /// broken detector, kept as an injectable regression.
    pub ne_only: bool,
}

impl FifoModel {
    /// A model with the standard token budget for `capacity` (saturated
    /// when it overflows, which [`check_fifo`] then refuses).
    pub fn new(
        name: impl Into<String>,
        capacity: usize,
        put: FlagDiscipline,
        get: FlagDiscipline,
        sync_stages: usize,
    ) -> Self {
        FifoModel {
            name: name.into(),
            capacity,
            put,
            get,
            sync_stages,
            max_tokens: token_budget(capacity).unwrap_or(u8::MAX),
            ne_only: false,
        }
    }

    /// The Sec. 3.2 regression: replace the bi-modal empty detector with
    /// the anticipating `ne` flag alone (no once-empty re-arm path).
    pub fn anticipating_only(mut self) -> Self {
        self.name.push_str("·ne_only");
        self.ne_only = true;
        self
    }
}

/// The raw anticipating full flag at occupancy `len` of a `capacity`-place
/// FIFO: fewer free places than the netlists' [`anticipation_window`].
pub(crate) fn full_raw(len: usize, capacity: usize, sync_stages: usize) -> bool {
    len + anticipation_window(sync_stages) > capacity
}

/// The raw anticipating new-empty flag at occupancy `len`: fewer items
/// than the [`anticipation_window`].
pub(crate) fn ne_raw(len: usize, sync_stages: usize) -> bool {
    len < anticipation_window(sync_stages)
}

/// A protocol violation — absorbing once reached.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Fault {
    /// A put proceeded into a full queue.
    Overflow,
    /// A get proceeded on an empty queue.
    Underflow,
    /// A token left out of issue order (something was dropped).
    Loss,
}

/// One abstract FIFO state. Tokens are numbered in issue order; `q` is
/// the queue content, oldest first. Pipes a discipline does not use stay
/// zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct FifoState {
    /// Queue content, oldest first.
    pub q: TokenQueue,
    /// Tokens the source has committed (enqueued or — under the hazard —
    /// believed enqueued).
    pub issued: u8,
    /// Tokens the sink has received.
    pub delivered: u8,
    /// Put-side view of *full* (anticipating).
    pub full_pipe: FlagPipe,
    /// Get-side anticipating new-empty chain.
    pub ne_pipe: FlagPipe,
    /// Get-side once-empty chain (with the `en_get` re-arm OR).
    pub oe_pipe: FlagPipe,
    /// Put-side stale copy pipeline of `delivered` (exact discipline).
    pub rd_pipe: CountPipe,
    /// Get-side stale copy pipeline of the enqueued count (exact).
    pub wr_pipe: CountPipe,
    /// Set when a safety property has been violated; absorbing.
    pub fault: Option<Fault>,
}

impl FifoState {
    fn enqueued(&self) -> u8 {
        self.delivered + self.q.len() as u8
    }

    /// Dequeues the oldest token and checks it against issue order: the
    /// move delivers it, or faults with [`Fault::Loss`].
    fn deliver(&mut self) -> bool {
        if self.q.pop_front() == self.delivered {
            self.delivered += 1;
            true
        } else {
            self.fault = Some(Fault::Loss);
            false
        }
    }
}

// Move codes. A FIFO move has a put half and a get half, either possibly
// absent (both are present only in the liveness pass's rounds). Bits 0–2
// pick the put half's label, bits 3–5 the get half's base label, and the
// get half carries `?g` (consumer requests), `!d` (the move's delivery
// bit) and `·p` (the shared clock's put) markers, printed in that order.
const PUT_HALVES: [&str; 5] = ["", "put", "put·meta", "put·idle", "aput"];
const GET_HALVES: [&str; 6] = ["", "get", "aget", "get·idle", "get·blocked", "clk"];
const PUT: u32 = 1;
const PUT_META: u32 = 2;
const PUT_IDLE: u32 = 3;
const APUT: u32 = 4;
const GET: u32 = 1 << 3;
const AGET: u32 = 2 << 3;
const GET_IDLE: u32 = 3 << 3;
const GET_BLOCKED: u32 = 4 << 3;
const CLK: u32 = 5 << 3;
const REQ: u32 = 1 << 6;
const SHARED_PUT: u32 = 1 << 7;

fn fifo_label(m: Move) -> String {
    let c = m.code();
    let mut get = GET_HALVES[(c >> 3 & 7) as usize].to_string();
    if c & REQ != 0 {
        get.push_str("?g");
    }
    if m.delivers() {
        get.push_str("!d");
    }
    if c & SHARED_PUT != 0 {
        get.push_str("·p");
    }
    join_halves(&[PUT_HALVES[(c & 7) as usize], &get])
}

impl TransitionSystem for FifoModel {
    type State = FifoState;

    fn initial(&self) -> FifoState {
        // Power-on: flags read "empty", matching the netlists' flop
        // initialisation (full chain L, ne/oe chains H).
        let k = self.sync_stages;
        let empty = if self.get == FlagDiscipline::Bimodal {
            FlagPipe::high(k)
        } else {
            FlagPipe::default()
        };
        FifoState {
            ne_pipe: empty,
            oe_pipe: empty,
            ..FifoState::default()
        }
    }

    /// Labels: `put`/`get` carry `·idle` when the side does not attempt,
    /// `?g` when the consumer requests, `!d` when a token is delivered,
    /// `·meta` for the metastable half-commit. The liveness pass keys off
    /// the delivery bit behind `!d`.
    fn successors(&self, s: &FifoState, out: &mut Vec<(Move, FifoState)>) {
        if s.fault.is_some() {
            return;
        }
        self.put_choices(s, |put, n| out.push((Move::new(put, false), n)));
        match self.get {
            FlagDiscipline::Bimodal | FlagDiscipline::Exact => {
                out.push(self.get_edge(s, true));
                out.push(self.get_edge(s, false));
            }
            FlagDiscipline::Direct => out.extend(self.async_get(s)),
            FlagDiscipline::SameCycle => {}
            FlagDiscipline::Anticipating => unreachable!("anticipating is a put discipline"),
        }
        if self.put == FlagDiscipline::SameCycle {
            // One shared clock: both sides act on the same edge, each
            // decision taken on the pre-edge state.
            for attempt_put in [true, false] {
                for attempt_get in [true, false] {
                    out.push(self.shared_clock_edge(s, attempt_put, attempt_get));
                }
            }
        }
    }

    fn label(&self, m: Move) -> String {
        fifo_label(m)
    }
}

impl FifoModel {
    fn observed_full(&self, s: &FifoState) -> bool {
        let k = self.sync_stages;
        match self.put {
            FlagDiscipline::Anticipating => s.full_pipe.observed(k),
            FlagDiscipline::Exact => s.enqueued() - s.rd_pipe.observed(k) >= self.capacity as u8,
            _ => unreachable!("unclocked put has no observed flag"),
        }
    }

    /// Is the put-side flag different from its latest sample (a change is
    /// crossing the synchronizer right now)?
    fn put_flag_in_flight(&self, s: &FifoState) -> bool {
        match self.put {
            FlagDiscipline::Anticipating => {
                full_raw(s.q.len(), self.capacity, self.sync_stages) != s.full_pipe.newest()
            }
            FlagDiscipline::Exact => s.delivered != s.rd_pipe.newest(),
            _ => false,
        }
    }

    /// The put interface's choices at `s`, in order: its put-half move
    /// code and the resulting state. The shared-clock discipline has none
    /// of its own (its edges carry both sides).
    fn put_choices(&self, s: &FifoState, mut choice: impl FnMut(u32, FifoState)) {
        match self.put {
            FlagDiscipline::Anticipating | FlagDiscipline::Exact => {
                if s.issued < self.max_tokens {
                    choice(PUT, self.put_edge(s, true, false));
                    // Single-flop chain with a get-side transition in
                    // flight: the sample can go metastable, and whichever
                    // way it resolves, part of the put logic can read the
                    // *other* value — the not-full reading half-commits.
                    if self.sync_stages < 2 && self.put_flag_in_flight(s) {
                        choice(PUT_META, self.put_edge(s, true, true));
                    }
                }
                choice(PUT_IDLE, self.put_edge(s, false, false));
            }
            FlagDiscipline::Direct => {
                if s.issued < self.max_tokens && s.q.len() < self.capacity {
                    let mut n = *s;
                    n.q.push(n.issued);
                    n.issued += 1;
                    choice(APUT, n);
                }
            }
            FlagDiscipline::SameCycle => {}
            FlagDiscipline::Bimodal => unreachable!("bimodal is a get discipline"),
        }
    }

    /// A put-domain clock edge. `attempt`: the source offers a token.
    /// `meta`: the half-commit hazard (token consumed, never enqueued).
    fn put_edge(&self, s: &FifoState, attempt: bool, meta: bool) -> FifoState {
        let mut n = *s;
        let len = s.q.len();
        if attempt && meta {
            n.issued += 1; // believed enqueued, actually dropped
        } else if attempt && !self.observed_full(s) {
            if len == self.capacity {
                n.fault = Some(Fault::Overflow);
            } else {
                n.q.push(n.issued);
                n.issued += 1;
            }
        }
        // Shift the put-side pipes. Stage 0 samples the *post-edge*
        // occupancy: the cell's claim (`e_i`) falls combinationally as
        // `en_put` rises, ahead of the latching edge, so the chain's
        // sample at this edge already counts this edge's put (the early
        // warning the anticipation margin needs — see module docs).
        let k = self.sync_stages;
        match self.put {
            FlagDiscipline::Anticipating => n
                .full_pipe
                .shift(full_raw(n.q.len(), self.capacity, self.sync_stages), k),
            FlagDiscipline::Exact => n.rd_pipe.shift(s.delivered, k),
            _ => {}
        }
        n
    }

    /// A get-domain clock edge. `attempt`: the consumer requests.
    fn get_edge(&self, s: &FifoState, attempt: bool) -> (Move, FifoState) {
        let k = self.sync_stages;
        let mut n = *s;
        let len = s.q.len();
        let empty_obs = match self.get {
            FlagDiscipline::Bimodal => {
                s.ne_pipe.observed(k) && (self.ne_only || s.oe_pipe.observed(k))
            }
            FlagDiscipline::Exact => s.wr_pipe.observed(k) == s.delivered,
            _ => unreachable!("unclocked get has no observed flag"),
        };
        let en_get = attempt && !empty_obs;
        let mut delivered = false;
        if en_get {
            if n.q.is_empty() {
                match self.get {
                    // A stale bi-modal window (granted one edge after the
                    // last item left) opens on an uncommitted cell: the
                    // `f_at_open` gate makes it deliver an explicit
                    // bubble — absorbed, not underflow.
                    FlagDiscipline::Bimodal => {}
                    _ => n.fault = Some(Fault::Underflow),
                }
            } else {
                delivered = n.deliver();
            }
        }
        // Shift the get-side pipes.
        match self.get {
            FlagDiscipline::Bimodal => {
                n.ne_pipe.shift(ne_raw(len, self.sync_stages), k);
                // oe: stage 0 samples raw; later stages OR in this
                // cycle's en_get (the re-arm of build_bimodal_empty).
                n.oe_pipe.shift(len == 0, k);
                n.oe_pipe.rearm(en_get, k);
            }
            FlagDiscipline::Exact => n.wr_pipe.shift(s.enqueued(), k),
            _ => {}
        }
        let code = if attempt { GET | REQ } else { GET_IDLE };
        (Move::new(code, delivered), n)
    }

    /// The handshake consumer's get: only possible on a non-empty queue.
    fn async_get(&self, s: &FifoState) -> Option<(Move, FifoState)> {
        if s.q.is_empty() {
            return None;
        }
        let mut n = *s;
        let delivered = n.deliver();
        Some((Move::new(AGET | REQ, delivered), n))
    }

    /// One edge of the single shared clock, each side's decision taken on
    /// the pre-edge state.
    fn shared_clock_edge(
        &self,
        s: &FifoState,
        attempt_put: bool,
        attempt_get: bool,
    ) -> (Move, FifoState) {
        let attempt_put = attempt_put && s.issued < self.max_tokens;
        let len = s.q.len();
        let mut n = *s;
        let mut code = CLK;
        let mut delivered = false;
        if attempt_get {
            code |= REQ;
            if len > 0 {
                delivered = n.deliver();
            }
        }
        if n.fault.is_none() && attempt_put && len < self.capacity {
            n.q.push(n.issued);
            n.issued += 1;
            code |= SHARED_PUT;
        }
        (Move::new(code, delivered), n)
    }
}

/// The exhaustive verdicts for one FIFO configuration.
#[derive(Debug)]
pub struct FifoCheck {
    /// The model's report name.
    pub name: String,
    /// (property, verdict) in a fixed order: lossless (covering
    /// overflow/underflow/order), deadlock-freedom, empty-liveness.
    pub verdicts: Vec<(Property, Verdict)>,
    /// The explored space.
    pub space: StateSpace<FifoState>,
}

impl FifoCheck {
    /// The verdict for `p`, if checked.
    pub fn verdict(&self, p: Property) -> Option<&Verdict> {
        self.verdicts.iter().find(|(q, _)| *q == p).map(|(_, v)| v)
    }

    /// All properties proven.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|(_, v)| v.holds())
    }

    /// The first counterexample, if any.
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.verdicts.iter().find_map(|(_, v)| v.counterexample())
    }
}

/// Exhaustively explores `model` under all environment interleavings and
/// decides losslessness, deadlock-freedom, and empty-liveness.
///
/// # Errors
///
/// `Err` if the model does not fit the fixed-size state (its capacity
/// exceeds [`MAX_CAP`], its token budget overflows a `u8`, or a clocked
/// flag has no synchronizer stage or more than [`MAX_STAGES`]), or if the
/// state budget (`budget`, a blowup fuse) is exhausted.
pub fn check_fifo(model: &FifoModel, budget: usize) -> Result<FifoCheck, String> {
    check_bounds(
        &model.name,
        &[model.capacity],
        model.sync_stages,
        clocked(model.put) || clocked(model.get),
    )?;
    let space = StateSpace::explore(model, budget);
    if space.truncated {
        return Err(format!("{}: state budget {budget} exhausted", model.name));
    }

    // Safety: the first faulted state refutes losslessness.
    let lossless = space.states.iter().enumerate().find_map(|(i, s)| {
        let reason = match s.fault? {
            Fault::Overflow => "put proceeded into a full queue".into(),
            Fault::Underflow => "get proceeded on an empty queue".into(),
            Fault::Loss => format!(
                "a token was delivered out of issue order while {} was \
                 expected — an earlier token was dropped",
                s.delivered
            ),
        };
        Some(Counterexample {
            property: Property::Lossless,
            trace: space.trace_to(i),
            lasso: vec![],
            reason,
        })
    });

    // Deadlock: every healthy state must have a successor, except the
    // graceful terminal of the pure-handshake models (source exhausted,
    // queue drained — the stream simply completed).
    let deadlock = space.states.iter().enumerate().find_map(|(i, s)| {
        let complete = s.q.is_empty() && s.issued == model.max_tokens;
        (s.fault.is_none() && !complete && space.edges(i).is_empty()).then(|| Counterexample {
            property: Property::DeadlockFree,
            trace: space.trace_to(i),
            lasso: vec![],
            reason: "no interface can take a step".into(),
        })
    });

    // Liveness over the round reduction (see module docs): one put edge
    // then one requesting get edge per round. Monotone token counters
    // make every cycle of this graph put- and delivery-free, so a cycle
    // through a token-holding state is a fair schedule that starves the
    // consumer forever.
    let rspace = StateSpace::explore(&RoundSystem { model }, budget);
    if rspace.truncated {
        return Err(format!(
            "{}: round-system state budget {budget} exhausted",
            model.name
        ));
    }
    let liveness = rspace
        .delivery_free_cycle(|s| !s.q.is_empty())
        .map(|(i, lasso)| Counterexample {
            property: Property::EmptyLiveness,
            trace: rspace.trace_to(i),
            lasso,
            reason: format!(
                "{} token(s) held while the consumer requests every round",
                rspace.states[i].q.len()
            ),
        });

    Ok(FifoCheck {
        name: model.name.clone(),
        verdicts: vec![
            (Property::Lossless, lossless.into()),
            (Property::DeadlockFree, deadlock.into()),
            (Property::EmptyLiveness, liveness.into()),
        ],
        space,
    })
}

/// The fairness reduction for the liveness check: one round is one
/// put-interface edge (each nondeterministic choice) followed by one
/// get-interface edge with the consumer requesting. Labels join the two
/// halves with `;`.
struct RoundSystem<'a> {
    model: &'a FifoModel,
}

impl RoundSystem<'_> {
    /// The requesting get half applied to the post-put state `s`, after
    /// the put half `put`.
    fn get_half(&self, put: u32, s: &FifoState, out: &mut Vec<(Move, FifoState)>) {
        let m = self.model;
        let mut push = |(get, n): (Move, FifoState)| {
            out.push((Move::new(put | get.code(), get.delivers()), n));
        };
        match m.get {
            FlagDiscipline::Bimodal | FlagDiscipline::Exact => push(m.get_edge(s, true)),
            // The handshake consumer blocks on an empty queue; the round
            // degenerates to the put half alone.
            FlagDiscipline::Direct => {
                push(
                    m.async_get(s)
                        .unwrap_or((Move::new(GET_BLOCKED, false), *s)),
                );
            }
            // One shared clock edge with the consumer requesting, the
            // producer nondeterministic.
            FlagDiscipline::SameCycle => {
                for attempt_put in [true, false] {
                    push(m.shared_clock_edge(s, attempt_put, true));
                }
            }
            FlagDiscipline::Anticipating => unreachable!("anticipating is a put discipline"),
        }
    }
}

impl TransitionSystem for RoundSystem<'_> {
    type State = FifoState;

    fn initial(&self) -> FifoState {
        self.model.initial()
    }

    fn successors(&self, s: &FifoState, out: &mut Vec<(Move, FifoState)>) {
        if s.fault.is_some() {
            return;
        }
        let m = self.model;
        let mut round = |put: u32, mid: FifoState| {
            if mid.fault.is_some() {
                out.push((Move::new(put, false), mid));
            } else {
                self.get_half(put, &mid, out);
            }
        };
        match m.put {
            // Folded into the get half: one shared edge per round.
            FlagDiscipline::SameCycle => round(0, *s),
            FlagDiscipline::Direct => {
                m.put_choices(s, &mut round);
                round(PUT_IDLE, *s);
            }
            _ => m.put_choices(s, &mut round),
        }
    }

    fn label(&self, m: Move) -> String {
        fifo_label(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_clock(cap: usize, stages: usize) -> FifoModel {
        FifoModel::new(
            format!("mixed_clock·c{cap}"),
            cap,
            FlagDiscipline::Anticipating,
            FlagDiscipline::Bimodal,
            stages,
        )
    }

    #[test]
    fn mixed_clock_is_clean_at_small_caps() {
        for cap in [3, 4] {
            let c = check_fifo(&mixed_clock(cap, 2), 2_000_000).expect("in budget");
            assert!(
                c.is_clean(),
                "cap {cap}: {}",
                c.first_counterexample().unwrap()
            );
        }
    }

    #[test]
    fn all_discipline_pairs_are_clean_when_stock() {
        use FlagDiscipline::*;
        let pairs = [
            (Direct, Bimodal),
            (Anticipating, Direct),
            (Direct, Direct),
            (Exact, Exact),
            (Direct, Exact),
            (SameCycle, SameCycle),
        ];
        for (p, g) in pairs {
            let m = FifoModel::new(format!("{p:?}/{g:?}"), 3, p, g, 2);
            let c = check_fifo(&m, 2_000_000).expect("in budget");
            assert!(
                c.is_clean(),
                "{}: {}",
                m.name,
                c.first_counterexample().unwrap()
            );
        }
    }

    #[test]
    fn single_flop_hazard_breaks_losslessness() {
        let c = check_fifo(&mixed_clock(4, 1), 2_000_000).expect("in budget");
        let v = c.verdict(Property::Lossless).unwrap();
        assert!(!v.holds(), "single-flop chain must admit the hazard");
        let cx = v.counterexample().unwrap();
        assert!(
            cx.trace.iter().any(|l| l == "put·meta"),
            "the trace passes through the metastable half-commit: {:?}",
            cx.trace
        );
        // The anticipation window itself still covers a 1-edge lag: no
        // overflow/underflow, the failure is precisely the dropped token.
        assert!(cx.reason.contains("dropped"), "{}", cx.reason);
    }

    #[test]
    fn anticipating_only_empty_detector_wedges() {
        // The motivating deadlock of paper Sec. 3.2: an anticipating-only
        // empty detector declares "empty" while up to window−1 items
        // remain, nothing re-arms it, and the tail of the stream is never
        // served. The stock bi-modal detector is live (covered by
        // `mixed_clock_is_clean_at_small_caps`); severing the once-empty
        // path must refute liveness with a lasso.
        let m = mixed_clock(3, 2).anticipating_only();
        let c = check_fifo(&m, 2_000_000).expect("in budget");
        // Safety is untouched: the wedge loses no tokens, it just stops.
        assert!(c.verdict(Property::Lossless).unwrap().holds());
        let v = c.verdict(Property::EmptyLiveness).unwrap();
        assert!(!v.holds(), "ne-only detector must starve the consumer");
        let cx = v.counterexample().unwrap();
        assert!(!cx.lasso.is_empty(), "a liveness witness needs a cycle");
        assert!(cx.reason.contains("token"), "{}", cx.reason);
    }

    #[test]
    fn deterministic_exploration() {
        let a = check_fifo(&mixed_clock(4, 2), 2_000_000).unwrap();
        let b = check_fifo(&mixed_clock(4, 2), 2_000_000).unwrap();
        assert_eq!(a.space.len(), b.space.len());
        assert_eq!(a.space.edge_count(), b.space.edge_count());
        assert_eq!(a.space.states, b.space.states, "same discovery order");
    }

    fn refusal(m: &FifoModel) -> String {
        check_fifo(m, 2_000_000).expect_err("model must be refused")
    }

    #[test]
    fn zero_stage_clocked_models_are_refused() {
        // Each clocked discipline on either side needs a synchronizer.
        let anticipating = FifoModel::new(
            "zero·put",
            3,
            FlagDiscipline::Anticipating,
            FlagDiscipline::Direct,
            0,
        );
        assert!(refusal(&anticipating).contains("synchronizer stages"));
        assert!(refusal(&mixed_clock(3, 0)).contains("synchronizer stages"));
        assert!(refusal(&mixed_clock(3, MAX_STAGES + 1)).contains("synchronizer stages"));
        // Unclocked disciplines have no pipe, so no stage is fine.
        let direct = FifoModel::new(
            "direct",
            3,
            FlagDiscipline::Direct,
            FlagDiscipline::Direct,
            0,
        );
        assert!(check_fifo(&direct, 2_000_000).expect("no pipes").is_clean());
    }

    #[test]
    fn oversized_capacity_is_refused() {
        let err = refusal(&mixed_clock(MAX_CAP + 1, 2));
        assert!(err.contains("exceeds MAX_CAP"), "{err}");
    }

    #[test]
    fn overflowing_token_budget_is_refused() {
        let m = mixed_clock(253, 2);
        assert_eq!(m.max_tokens, u8::MAX, "the budget saturates, never wraps");
        let err = refusal(&m);
        assert!(err.contains("token budget"), "{err}");
    }

    #[test]
    fn tiny_state_budget_is_refused() {
        let err = check_fifo(&mixed_clock(3, 2), 10).expect_err("10 states cannot cover c3");
        assert!(err.contains("state budget 10 exhausted"), "{err}");
    }
}
