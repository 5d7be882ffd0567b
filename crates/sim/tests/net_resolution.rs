//! Multi-driver net resolution against the `Logic::resolve` fold.
//!
//! The kernel resolves a net from counts of its drivers' `L`, `H` and `X`
//! contributions, updated on every change of one of them. This checks
//! those counts against a reference model that keeps every driver's
//! contribution and folds them, after every drive, on nets with 1–20
//! drivers scheduled through all three driving calls: testbench
//! [`Simulator::drive_at`], a component's [`Ctx::drive`] and its
//! [`Ctx::commit_drive`].

use mtf_sim::{Component, Ctx, DriverId, Logic, NetId, Simulator, Time};
use proptest::prelude::*;

/// Time between two scripted drives.
const STEP: Time = Time::from_ps(100);

/// Which call schedules a driver (each driver uses exactly one).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Via {
    DriveAt,
    Drive,
    Commit,
}

fn via() -> impl Strategy<Value = Via> {
    prop_oneof![Just(Via::DriveAt), Just(Via::Drive), Just(Via::Commit)]
}

/// Contributions, `Z` as often as the three levels: drivers keep going
/// back to high impedance, as the FIFO cells' tri-state bus drivers do.
fn level() -> impl Strategy<Value = Logic> {
    prop_oneof![
        3 => Just(Logic::Z),
        1 => Just(Logic::L),
        1 => Just(Logic::H),
        1 => Just(Logic::X),
    ]
}

/// One scripted drive: a net (taken modulo the net count), a driver on
/// it (modulo its driver count) and the contribution.
type Op = (usize, usize, Logic);

/// Lands the component-owned drives of a script, one step apart: drive
/// `i` at `(i + 1) × STEP`.
struct Script {
    drives: Vec<Option<(DriverId, Via, Logic)>>,
    step: usize,
}

impl Component for Script {
    fn name(&self) -> &str {
        "script"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        // The first wake is the initial one at time 0.
        if self.step > 0 {
            match self.drives[self.step - 1] {
                Some((d, Via::Drive, v)) => {
                    ctx.drive_now(d, v);
                }
                Some((d, Via::Commit, v)) => ctx.commit_drive(d, v),
                _ => {}
            }
        }
        self.step += 1;
        if self.step <= self.drives.len() {
            ctx.wake_in(STEP);
        }
    }
}

proptest! {
    /// After every drive, each net's value is the `Logic::resolve` fold of
    /// its drivers' contributions, and `driver_count` is its number of
    /// drivers. The scripts repeat contributions (the component path
    /// elides them, `drive_at` lands them unchanged) and return drivers to
    /// `Z`.
    #[test]
    fn net_value_is_the_fold_of_its_drivers(
        nets in prop::collection::vec(prop::collection::vec(via(), 1..=20), 1..4),
        ops in prop::collection::vec((0usize..64, 0usize..64, level()), 1..120),
    ) {
        let mut sim = Simulator::new(0);
        let ids: Vec<NetId> = (0..nets.len()).map(|i| sim.net(format!("n{i}"))).collect();
        let drivers: Vec<Vec<(DriverId, Via)>> = nets
            .iter()
            .zip(&ids)
            .map(|(vias, &n)| vias.iter().map(|&v| (sim.driver(n), v)).collect())
            .collect();
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(n, d, v)| (n % nets.len(), d % nets[n % nets.len()].len(), v))
            .collect();
        let mut drives = Vec::with_capacity(ops.len());
        for (i, &(n, d, v)) in ops.iter().enumerate() {
            let (drv, via) = drivers[n][d];
            if via == Via::DriveAt {
                let at = Time::from_ps(STEP.as_ps() * (i as u64 + 1));
                sim.drive_at(drv, ids[n], v, at);
                drives.push(None);
            } else {
                drives.push(Some((drv, via, v)));
            }
        }
        sim.add_component(Box::new(Script { drives, step: 0 }), &[]);

        let mut model: Vec<Vec<Logic>> = nets.iter().map(|v| vec![Logic::Z; v.len()]).collect();
        for (i, &(n, d, v)) in ops.iter().enumerate() {
            sim.run_until(Time::from_ps(STEP.as_ps() * (i as u64 + 1))).expect("script runs");
            model[n][d] = v;
            for (k, &net) in ids.iter().enumerate() {
                let want = model[k].iter().fold(Logic::Z, |a, &b| a.resolve(b));
                prop_assert_eq!(sim.value(net), want, "net {} after drive {}", k, i);
                prop_assert_eq!(sim.driver_count(net), model[k].len());
            }
        }
    }
}
