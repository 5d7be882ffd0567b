//! Byte-exact pins on what the checker reports: every counterexample's
//! trace, lasso and reason text, the chain twin's state and edge counts,
//! and the breadth-first discovery order of every registry model.
//!
//! The verdicts alone are not the contract. Reviewers, the `formal`
//! report and the simulator replays all consume the *text* of a witness,
//! and a shortest trace is only reproducible if exploration visits states
//! in the same order. Any change to the explorer or the models that moves
//! one of these strings or digests is a behaviour change, not a refactor.

use mtf_async::{dv_as_spec, BmSpec, BmTransition};
use mtf_core::{DesignKind, FlagDiscipline};
use mtf_mc::designs::{check_all, check_controllers, fifo_model, BUDGET};
use mtf_mc::{
    check_bm, check_chain, check_fifo, check_stg, ChainModel, Counterexample, FifoModel, Property,
    StateSpace,
};

fn mixed_clock(cap: usize, stages: usize) -> FifoModel {
    FifoModel::new(
        format!("mixed_clock·c{cap}"),
        cap,
        FlagDiscipline::Anticipating,
        FlagDiscipline::Bimodal,
        stages,
    )
}

/// Move labels never contain whitespace, so a pinned sequence is written
/// as one space-separated string.
fn words(v: &str) -> Vec<String> {
    v.split_whitespace().map(str::to_string).collect()
}

fn assert_cx(cx: &Counterexample, trace: &str, lasso: &str, reason: &str) {
    assert_eq!(cx.trace, words(trace), "trace");
    assert_eq!(cx.lasso, words(lasso), "lasso");
    assert_eq!(cx.reason, reason, "reason");
}

/// FNV-1a over every state's shortest trace, in discovery order: pins the
/// BFS order and every parent label of a space at once.
fn discovery_digest<S: Clone + Eq + std::hash::Hash>(space: &StateSpace<S>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for i in 0..space.len() {
        for b in space.trace_to(i).join(",").bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The paper's Sec. 3.2 wedge: the anticipating-only empty detector
/// strands one token, at both checked capacities.
#[test]
fn ne_only_wedge_text_is_pinned() {
    for model in [
        mixed_clock(3, 2).anticipating_only(),
        fifo_model(DesignKind::MixedClock, 4).anticipating_only(),
    ] {
        let c = check_fifo(&model, BUDGET).expect("in budget");
        assert!(c.verdict(Property::Lossless).unwrap().holds());
        assert!(c.verdict(Property::DeadlockFree).unwrap().holds());
        let cx = c.first_counterexample().expect("liveness refuted");
        assert_eq!(cx.property, Property::EmptyLiveness);
        assert_cx(
            cx,
            "put;get?g put·idle;get?g",
            "put·idle;get?g",
            "1 token(s) held while the consumer requests every round",
        );
        assert_eq!(
            cx.to_string(),
            "empty_liveness refuted after [put;get?g, put·idle;get?g] cycling \
             [put·idle;get?g]: 1 token(s) held while the consumer requests every round"
        );
    }
    let c = check_fifo(&mixed_clock(3, 2).anticipating_only(), BUDGET).unwrap();
    assert_eq!((c.space.len(), c.space.edge_count()), (305, 1150));
}

/// The single-flop `put·meta` half-commit drops token 3.
#[test]
fn single_flop_hazard_text_is_pinned() {
    let c = check_fifo(&mixed_clock(4, 1), BUDGET).expect("in budget");
    assert_eq!((c.space.len(), c.space.edge_count()), (182, 644));
    let cx = c.first_counterexample().expect("lossless refuted");
    assert_eq!(cx.property, Property::Lossless);
    assert_cx(
        cx,
        "put put put get?g get?g!d put·meta put get?g!d get?g!d get?g",
        "",
        "a token was delivered out of issue order while 3 was expected — an earlier \
         token was dropped",
    );
    assert_eq!(
        cx.to_string(),
        "lossless refuted after [put, put, put, get?g, get?g!d, put·meta, put, get?g!d, \
         get?g!d, get?g]: a token was delivered out of issue order while 3 was expected \
         — an earlier token was dropped"
    );
    assert!(c.verdict(Property::DeadlockFree).unwrap().holds());
    assert!(c.verdict(Property::EmptyLiveness).unwrap().holds());
}

/// `re−` without its produced arc: one put/get cycle to the dead marking.
#[test]
fn dropped_arc_stg_wedge_text_is_pinned() {
    let mut spec = dv_as_spec(0);
    spec.transitions[6].produce.clear();
    let c = check_stg(&spec).expect("checkable");
    let cx = c.first_counterexample().expect("deadlock refuted");
    assert_eq!(cx.property, Property::DeadlockFree);
    assert_cx(
        cx,
        "we+ ei− fi+ we− re+ fi− re−",
        "",
        "dead marking: no transition is enabled",
    );
    assert_eq!(
        c.verdicts.iter().filter(|(_, v)| !v.holds()).count(),
        1,
        "only deadlock-freedom falls"
    );
}

/// `we−` over-marking its own preset refutes 1-safety and, downstream,
/// consistency.
#[test]
fn unsafe_production_text_is_pinned() {
    let mut spec = dv_as_spec(0);
    spec.transitions[0].produce.push(0);
    let c = check_stg(&spec).expect("checkable");
    let one_safe = c.verdict(Property::OneSafe).unwrap().counterexample();
    assert_cx(
        one_safe.expect("1-safety refuted"),
        "we+ we−",
        "",
        "firing we− produces into an already-marked place",
    );
    let consistent = c.verdict(Property::Consistent).unwrap().counterexample();
    assert_cx(
        consistent.expect("consistency refuted"),
        "we+ ei− fi+ re+ fi− re− ei+",
        "",
        "we+ is marking-enabled while 'we' is already high",
    );
}

/// Both burst-mode refutations: a re-driven output and a dead end.
#[test]
fn bm_counterexample_text_is_pinned() {
    let redrive = BmSpec {
        name: "bad".into(),
        input_names: vec!["a".into()],
        output_names: vec!["y".into()],
        states: vec![
            vec![BmTransition {
                inputs: vec![(0, true)],
                outputs: vec![(0, true)],
                next: 1,
            }],
            vec![BmTransition {
                inputs: vec![(0, false)],
                outputs: vec![(0, true)],
                next: 0,
            }],
        ],
        initial_state: 0,
        initial_outputs: vec![false],
    };
    let c = check_bm(&redrive).expect("checkable");
    assert_cx(
        c.verdict(Property::Consistent)
            .unwrap()
            .counterexample()
            .expect("consistency refuted"),
        "a+ a−",
        "",
        "state 1: output burst re-drives 'y' to its current level",
    );

    let dead = BmSpec {
        name: "dead".into(),
        input_names: vec!["a".into()],
        output_names: vec![],
        states: vec![
            vec![BmTransition {
                inputs: vec![(0, true)],
                outputs: vec![],
                next: 1,
            }],
            vec![],
        ],
        initial_state: 0,
        initial_outputs: vec![],
    };
    let c = check_bm(&dead).expect("checkable");
    assert_cx(
        c.verdict(Property::DeadlockFree)
            .unwrap()
            .counterexample()
            .expect("deadlock refuted"),
        "a+",
        "",
        "state 1 expects no further input edge",
    );
}

/// The heterogeneous-chain twin at 3+4: counts and the shortest trace to
/// the last-discovered state.
#[test]
fn chain_twin_counts_and_deepest_trace_are_pinned() {
    let c = check_chain(&ChainModel::new(3, 4, 2), 1 << 22).expect("in budget");
    assert!(c.is_clean());
    assert_eq!((c.space.len(), c.space.edge_count()), (13_939, 50_669));
    assert_eq!(
        c.space.trace_to(c.space.len() - 1),
        words(
            "aput aput aput xfer xfer xfer!t aput xfer!t aput get?g get?g get?g!d \
             xfer!t aput get?g!d xfer!t aput get?g!d xfer!t aput get?g!d xfer!t aput \
             get?g!d xfer!t aput get?g!d xfer!t get?g!d xfer!t get?g!d xfer!t xfer \
             get?g!d get?g!d get"
        )
    );
    assert_eq!(discovery_digest(&c.space), 0x3d03_31a9_ca00_a96c);
}

/// Every registry model and controller: state count, edge count and
/// discovery digest.
#[test]
fn registry_discovery_order_is_pinned() {
    let expected: [(&str, usize, usize, u64); 20] = [
        ("mixed_clock·c3", 327, 1238, 0x9806_0c44_3b2a_d6f6),
        ("mixed_clock·c4", 440, 1670, 0x73c0_2e1d_c202_5986),
        ("async_sync·c3", 146, 381, 0x5064_7ec1_4db6_f13f),
        ("async_sync·c4", 213, 572, 0x2de0_ad2e_209a_7913),
        ("sync_async·c3", 57, 138, 0x00ca_660b_7a47_67b2),
        ("sync_async·c4", 80, 202, 0xa88d_abf7_d1c3_1f75),
        ("async_async·c3", 22, 30, 0xfbac_8e42_b714_a369),
        ("async_async·c4", 30, 44, 0x28d7_5a0b_ed5f_f5a7),
        ("mixed_clock_rs·c3", 327, 1238, 0x9806_0c44_3b2a_d6f6),
        ("mixed_clock_rs·c4", 440, 1670, 0x73c0_2e1d_c202_5986),
        ("async_sync_rs·c3", 146, 381, 0x5064_7ec1_4db6_f13f),
        ("async_sync_rs·c4", 213, 572, 0x2de0_ad2e_209a_7913),
        ("gray_pointer·c4", 443, 1680, 0xcfe1_fd54_b91d_8ddc),
        ("per_cell_sync·c3", 219, 828, 0x4387_9925_2499_679d),
        ("per_cell_sync·c4", 443, 1680, 0xcfe1_fd54_b91d_8ddc),
        ("shift_register·c3", 22, 88, 0x79d7_cecd_e733_43bd),
        ("shift_register·c4", 30, 120, 0x14cb_0ce2_612f_af75),
        ("seizovic·c3", 95, 235, 0xeb8e_2c7c_2fce_d24f),
        ("seizovic·c4", 175, 445, 0x5e17_39d7_4eb2_df1d),
        ("sync_rs·c2", 15, 60, 0xb0cf_d48f_307f_1ac3),
    ];
    let checks = check_all().expect("in budget");
    assert_eq!(checks.len(), expected.len());
    for (dc, (name, states, edges, digest)) in checks.iter().zip(expected) {
        let space = &dc.check.space;
        assert_eq!(format!("{}·c{}", dc.kind.name(), dc.capacity), name);
        assert_eq!(space.len(), states, "{name}");
        assert_eq!(space.edge_count(), edges, "{name}");
        assert_eq!(discovery_digest(space), digest, "{name}");
    }

    let (stg, bm) = check_controllers().expect("checkable");
    let got: Vec<(String, usize, u64)> = stg
        .iter()
        .map(|c| (c.name.clone(), c.space.len(), discovery_digest(&c.space)))
        .chain(
            bm.iter()
                .map(|c| (c.name.clone(), c.space.len(), discovery_digest(&c.space))),
        )
        .collect();
    let want = [
        ("DVas0", 24, 0xe3cb_b5c0_927b_131f),
        ("DVsa0", 14, 0x8bc2_9ebc_7b1b_c031),
        ("OPT0·notok", 4, 0x9c81_4a02_fae5_f5e0),
        ("OPT0·tok", 4, 0xeb4e_7d2d_f8cb_e176),
        ("OGT1", 4, 0x6ada_9688_a5fd_82d6),
    ];
    assert_eq!(got.len(), want.len());
    for ((name, states, digest), (wn, ws, wd)) in got.iter().zip(want) {
        assert_eq!((name.as_str(), *states, *digest), (wn, ws, wd));
    }
}
