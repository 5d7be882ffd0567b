//! The heterogeneous-chain formal twin: two coupled abstract FIFO stages
//! reproducing the `tests/deadlock.rs` scenario — an asynchronous source
//! feeding an async-sync stage whose get side shares a clock domain with
//! the put side of a mixed-clock relay-station stage, drained by a sink
//! that may stop requesting at any moment (including mid-handshake).
//!
//! Three timing domains, exactly as in the simulated chain:
//!
//! * the **source** is asynchronous: it hands tokens to stage 1 by
//!   handshake whenever the stage has room (`aput`);
//! * the **boundary** clock drives both stage 1's bi-modal empty
//!   detector and stage 2's anticipating full detector; on each edge the
//!   relay transfers one token when it observes stage 1 non-empty and
//!   stage 2 non-full (`xfer`);
//! * the **sink** clock drives stage 2's bi-modal empty detector; the
//!   consumer's `stop_in` is nondeterministic per edge, which covers
//!   every stall pattern of the simulated `ChainDrive` schedules —
//!   including stopping in the middle of an in-flight handshake.
//!
//! The same sampling conventions as [`crate::fifo`] apply: put-side
//! claims precede the latching edge (stage 2's full sample counts the
//! same edge's transfer), get-side dequeues commit mid-cycle (empty
//! samples count only earlier windows), and a stale window on an empty
//! queue is an absorbed bubble. Liveness uses the same round reduction:
//! one source choice, one boundary edge, one requesting sink edge per
//! round.

use std::hash::{Hash, Hasher};

use crate::fifo::{check_bounds, full_raw, ne_raw, token_budget, Fault, FlagPipe, TokenQueue};
use crate::space::{
    join_halves, Counterexample, Move, Property, StateSpace, TransitionSystem, Verdict,
};

/// The two-stage chain configuration.
#[derive(Clone, Debug)]
pub struct ChainModel {
    /// Report name.
    pub name: String,
    /// Stage 1 (async-sync) capacity, at most [`crate::fifo::MAX_CAP`].
    pub cap1: usize,
    /// Stage 2 (mixed-clock relay station) capacity, at most
    /// [`crate::fifo::MAX_CAP`].
    pub cap2: usize,
    /// Synchronizer depth of every flag chain (1 to
    /// [`crate::fifo::MAX_STAGES`]).
    pub sync_stages: usize,
    /// Tokens the source offers.
    pub max_tokens: u8,
}

impl ChainModel {
    /// A chain with the standard token budget for its combined depth
    /// (saturated when it overflows, which [`check_chain`] then refuses).
    pub fn new(cap1: usize, cap2: usize, sync_stages: usize) -> Self {
        ChainModel {
            name: format!("chain·{cap1}+{cap2}"),
            cap1,
            cap2,
            sync_stages,
            max_tokens: token_budget(cap1.saturating_add(cap2)).unwrap_or(u8::MAX),
        }
    }
}

/// One abstract chain state. Tokens are numbered globally in issue
/// order; they move `q1` → `q2` → delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChainState {
    /// Stage 1 content, oldest first.
    pub q1: TokenQueue,
    /// Stage 2 content, oldest first.
    pub q2: TokenQueue,
    /// Tokens the source has handed over.
    pub issued: u8,
    /// Tokens the sink has received.
    pub delivered: u8,
    /// Stage 1 anticipating new-empty chain (boundary domain).
    pub ne1: FlagPipe,
    /// Stage 1 once-empty chain with the `en_get` re-arm.
    pub oe1: FlagPipe,
    /// Stage 2 anticipating full chain (boundary domain).
    pub full2: FlagPipe,
    /// Stage 2 anticipating new-empty chain (sink domain).
    pub ne2: FlagPipe,
    /// Stage 2 once-empty chain with the re-arm.
    pub oe2: FlagPipe,
    /// Absorbing protocol violation.
    pub fault: Option<Fault>,
}

impl ChainState {
    /// The state packed into four words, one-to-one: each stage's slots,
    /// then the byte-sized fields.
    pub(crate) fn words(&self) -> [u64; 4] {
        // A queue holds at most `MAX_CAP` (8) tokens, so its length is a byte.
        let len = |q: TokenQueue| q.len() as u8;
        [
            self.q1.slots(),
            self.q2.slots(),
            u64::from_le_bytes([
                len(self.q1),
                len(self.q2),
                self.issued,
                self.delivered,
                self.ne1.bits(),
                self.oe1.bits(),
                self.full2.bits(),
                self.ne2.bits(),
            ]),
            u64::from(self.oe2.bits()) | u64::from(Fault::code(self.fault)) << 8,
        ]
    }
}

/// Hashes `ChainState::words`: equal states have equal words.
impl Hash for ChainState {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for w in self.words() {
            h.write_u64(w);
        }
    }
}

// Move codes: bits 0–1 pick the source's label, bits 2–3 the boundary
// edge's, bit 4 marks a sink edge, bit 5 its `?g` request; `!d` is the
// move's delivery bit. A round carries all three parts.
const SOURCE_PARTS: [&str; 3] = ["", "aput", "src·idle"];
const BOUNDARY_PARTS: [&str; 3] = ["", "xfer", "xfer!t"];
const APUT: u32 = 1;
const SRC_IDLE: u32 = 2;
const XFER: u32 = 1 << 2;
const XFER_TOKEN: u32 = 2 << 2;
const SINK: u32 = 1 << 4;
const REQ: u32 = 1 << 5;

fn chain_label(m: Move) -> String {
    let c = m.code();
    let mut sink = String::new();
    if c & SINK != 0 {
        sink.push_str("get");
        if c & REQ != 0 {
            sink.push_str("?g");
        }
        if m.delivers() {
            sink.push_str("!d");
        }
    }
    join_halves(&[
        SOURCE_PARTS[(c & 3) as usize],
        BOUNDARY_PARTS[(c >> 2 & 3) as usize],
        &sink,
    ])
}

impl ChainModel {
    /// The source's handshake put, if stage 1 has room.
    fn source_put(&self, s: &ChainState) -> Option<ChainState> {
        (s.issued < self.max_tokens && s.q1.len() < self.cap1).then(|| {
            let mut n = *s;
            n.q1.push(n.issued);
            n.issued += 1;
            n
        })
    }

    /// The boundary-clock edge: stage 1's get and stage 2's put share it.
    /// Returns the edge's move code.
    fn xfer_edge(&self, s: &ChainState) -> (u32, ChainState) {
        let k = self.sync_stages;
        let mut n = *s;
        let len1 = s.q1.len();
        let len2 = s.q2.len();
        let empty1_obs = s.ne1.observed(k) && s.oe1.observed(k);
        let en = !empty1_obs && !s.full2.observed(k);
        let mut code = XFER;
        if en {
            if n.q1.is_empty() {
                // Stale window on a drained stage: absorbed bubble.
            } else if len2 == self.cap2 {
                n.fault = Some(Fault::Overflow);
            } else {
                let tok = n.q1.pop_front();
                n.q2.push(tok);
                code = XFER_TOKEN;
            }
        }
        // Stage 1 empty chains: pre-edge samples (dequeues commit
        // mid-cycle); the oe re-arm ORs this edge's enable.
        n.ne1.shift(ne_raw(len1, self.sync_stages), k);
        n.oe1.shift(len1 == 0, k);
        n.oe1.rearm(en, k);
        // Stage 2 full chain: post-edge sample (the claim precedes the
        // latching edge, so this edge's transfer is already counted).
        n.full2
            .shift(full_raw(n.q2.len(), self.cap2, self.sync_stages), k);
        (code, n)
    }

    /// The sink-clock edge. `attempt`: the consumer requests (`stop_in`
    /// deasserted).
    fn sink_edge(&self, s: &ChainState, attempt: bool) -> (Move, ChainState) {
        let k = self.sync_stages;
        let mut n = *s;
        let len2 = s.q2.len();
        let empty2_obs = s.ne2.observed(k) && s.oe2.observed(k);
        let en = attempt && !empty2_obs;
        let mut delivered = false;
        // An empty stage under an enabled window is an absorbed bubble.
        if en && !n.q2.is_empty() {
            if n.q2.pop_front() == n.delivered {
                n.delivered += 1;
                delivered = true;
            } else {
                n.fault = Some(Fault::Loss);
            }
        }
        n.ne2.shift(ne_raw(len2, self.sync_stages), k);
        n.oe2.shift(len2 == 0, k);
        n.oe2.rearm(en, k);
        let code = if attempt { SINK | REQ } else { SINK };
        (Move::new(code, delivered), n)
    }
}

impl TransitionSystem for ChainModel {
    type State = ChainState;

    fn initial(&self) -> ChainState {
        let k = self.sync_stages;
        ChainState {
            ne1: FlagPipe::high(k),
            oe1: FlagPipe::high(k),
            ne2: FlagPipe::high(k),
            oe2: FlagPipe::high(k),
            ..ChainState::default()
        }
    }

    fn successors(&self, s: &ChainState, out: &mut Vec<(Move, ChainState)>) {
        if s.fault.is_some() {
            return;
        }
        if let Some(n) = self.source_put(s) {
            out.push((Move::new(APUT, false), n));
        }
        let (xfer, n) = self.xfer_edge(s);
        out.push((Move::new(xfer, false), n));
        out.push(self.sink_edge(s, true));
        out.push(self.sink_edge(s, false));
    }

    fn label(&self, m: Move) -> String {
        chain_label(m)
    }
}

/// The round reduction for the chain's liveness: one source choice, one
/// boundary edge, one requesting sink edge.
struct ChainRounds<'a> {
    model: &'a ChainModel,
}

impl TransitionSystem for ChainRounds<'_> {
    type State = ChainState;

    fn initial(&self) -> ChainState {
        self.model.initial()
    }

    fn successors(&self, s: &ChainState, out: &mut Vec<(Move, ChainState)>) {
        if s.fault.is_some() {
            return;
        }
        let m = self.model;
        let mut round = |source: u32, mid: ChainState| {
            let (xfer, x) = m.xfer_edge(&mid);
            if x.fault.is_some() {
                out.push((Move::new(source | xfer, false), x));
                return;
            }
            let (get, n) = m.sink_edge(&x, true);
            out.push((Move::new(source | xfer | get.code(), get.delivers()), n));
        };
        round(SRC_IDLE, *s);
        if let Some(n) = m.source_put(s) {
            round(APUT, n);
        }
    }

    fn label(&self, m: Move) -> String {
        chain_label(m)
    }
}

/// The exhaustive verdicts for one chain configuration.
#[derive(Debug)]
pub struct ChainCheck {
    /// The model's report name.
    pub name: String,
    /// (property, verdict): lossless, deadlock-freedom, empty-liveness.
    pub verdicts: Vec<(Property, Verdict)>,
    /// The explored space (full interleaving graph).
    pub space: StateSpace<ChainState>,
}

impl ChainCheck {
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

/// Exhaustively checks the chain under all interleavings and stall
/// patterns.
///
/// # Errors
///
/// `Err` if the model does not fit the fixed-size state (a stage
/// capacity exceeds [`crate::fifo::MAX_CAP`], the token budget overflows
/// a `u8`, or the synchronizers have no stage or more than
/// [`crate::fifo::MAX_STAGES`]), or if the state budget is exhausted.
pub fn check_chain(model: &ChainModel, budget: usize) -> Result<ChainCheck, String> {
    check_bounds(
        &model.name,
        &[model.cap1, model.cap2],
        model.sync_stages,
        true,
    )?;
    let space = StateSpace::explore(model, budget);
    if space.truncated {
        return Err(format!("{}: state budget {budget} exhausted", model.name));
    }

    let lossless = space.states.iter().enumerate().find_map(|(i, s)| {
        let reason = match s.fault? {
            Fault::Overflow => "transfer proceeded into a full stage 2".into(),
            Fault::Underflow => "get proceeded on an empty stage".into(),
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

    let deadlock = space.states.iter().enumerate().find_map(|(i, s)| {
        (s.fault.is_none() && space.edges(i).is_empty()).then(|| Counterexample {
            property: Property::DeadlockFree,
            trace: space.trace_to(i),
            lasso: vec![],
            reason: "no interface can take a step".into(),
        })
    });

    let rspace = StateSpace::explore(&ChainRounds { model }, budget);
    if rspace.truncated {
        return Err(format!(
            "{}: round-system state budget {budget} exhausted",
            model.name
        ));
    }
    let liveness = rspace
        .delivery_free_cycle(|s| !s.q1.is_empty() || !s.q2.is_empty())
        .map(|(i, lasso)| {
            let s = &rspace.states[i];
            Counterexample {
                property: Property::EmptyLiveness,
                trace: rspace.trace_to(i),
                lasso,
                reason: format!(
                    "{} token(s) held across the chain while the consumer \
                     requests every round",
                    s.q1.len() + s.q2.len()
                ),
            }
        });

    Ok(ChainCheck {
        name: model.name.clone(),
        verdicts: vec![
            (Property::Lossless, lossless.into()),
            (Property::DeadlockFree, deadlock.into()),
            (Property::EmptyLiveness, liveness.into()),
        ],
        space,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::MAX_CAP;
    use crate::space::assert_words_exact;

    #[test]
    fn small_chains_are_clean() {
        for (c1, c2) in [(3, 3), (3, 4), (4, 3)] {
            let m = ChainModel::new(c1, c2, 2);
            let c = check_chain(&m, 1 << 22).expect("in budget");
            assert!(
                c.is_clean(),
                "{}: {}",
                m.name,
                c.first_counterexample().unwrap()
            );
        }
    }

    #[test]
    fn one_token_crosses_the_chain() {
        // The smallest end-to-end liveness statement: a single item put
        // into a quiescent chain is always eventually delivered, no
        // matter how the three domains interleave or when the sink
        // stalls.
        let mut m = ChainModel::new(3, 3, 2);
        m.max_tokens = 1;
        let c = check_chain(&m, 1 << 20).expect("in budget");
        assert!(c.is_clean(), "{}", c.first_counterexample().unwrap());
    }

    #[test]
    fn unfit_chains_are_refused() {
        let refusal = |m: ChainModel| check_chain(&m, 1 << 22).expect_err("must be refused");
        assert!(refusal(ChainModel::new(3, 4, 0)).contains("synchronizer stages"));
        let err = refusal(ChainModel::new(3, MAX_CAP + 1, 2));
        assert!(err.contains("exceeds MAX_CAP"), "{err}");
        let wide = ChainModel::new(200, 60, 2);
        assert_eq!(
            wide.max_tokens,
            u8::MAX,
            "the budget saturates, never wraps"
        );
        assert!(refusal(wide).contains("token budget"));
        let err = check_chain(&ChainModel::new(3, 4, 2), 10).expect_err("10 states");
        assert!(err.contains("state budget 10 exhausted"), "{err}");
    }

    #[test]
    fn packed_words_are_exact_on_the_chain_spaces() {
        let m = ChainModel::new(3, 4, 2);
        let c = check_chain(&m, 1 << 22).expect("in budget");
        assert_words_exact(&c.space, ChainState::words);
        let r = StateSpace::explore(&ChainRounds { model: &m }, 1 << 22);
        assert_words_exact(&r, ChainState::words);
    }

    /// The liveness pass's round space at 3+4: its size and the shortest
    /// round sequence to its last-discovered state.
    #[test]
    fn round_space_is_pinned() {
        let m = ChainModel::new(3, 4, 2);
        let r = StateSpace::explore(&ChainRounds { model: &m }, 1 << 22);
        assert_eq!((r.len(), r.edge_count()), (491, 904));
        assert_eq!(
            r.trace_to(r.len() - 1),
            [
                "aput;xfer;get?g",
                "aput;xfer;get?g",
                "src·idle;xfer!t;get?g",
                "src·idle;xfer!t;get?g",
                "aput;xfer!t;get?g!d",
                "aput;xfer;get?g!d",
                "aput;xfer;get?g!d",
                "src·idle;xfer!t;get?g!d",
                "aput;xfer!t;get?g",
                "aput;xfer!t;get?g!d",
                "aput;xfer!t;get?g",
                "src·idle;xfer!t;get?g!d",
                "aput;xfer!t;get?g!d",
                "src·idle;xfer;get?g!d",
                "aput;xfer;get?g!d",
                "src·idle;xfer;get?g",
                "src·idle;xfer!t;get?g",
                "src·idle;xfer;get?g",
            ]
        );
    }
}
