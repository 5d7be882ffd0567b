//! Free-running clock generation.

use crate::component::{Component, Ctx};
use crate::logic::Logic;
use crate::net::{DriverId, NetId};
use crate::sim::Simulator;
use crate::time::Time;

/// A free-running clock generator.
///
/// Drives its net low at `phase`, then repeats: high after
/// `period - high_time`, low after `high_time`... i.e. the *rising* edges
/// fall at `phase + period, phase + 2·period, …` and the duty cycle is
/// `high_time / period`. Two [`ClockGen`]s with incommensurate periods give
/// genuinely plesiochronous domains — exactly the situation the paper's
/// synchronizers must survive.
///
/// ```
/// use mtf_sim::{ClockGen, Logic, Simulator, Time};
///
/// let mut sim = Simulator::new(7);
/// let clk = sim.net("clk");
/// ClockGen::builder(Time::from_ns(10))
///     .phase(Time::from_ns(2))
///     .spawn(&mut sim, clk);
/// sim.run_until(Time::from_ns(13)).unwrap();
/// assert_eq!(sim.value(clk), Logic::H); // rose at 12 ns
/// ```
#[derive(Debug)]
pub struct ClockGen {
    driver: DriverId,
    period: Time,
    high_time: Time,
    phase: Time,
    started: bool,
    level: Logic,
}

/// Configures and spawns a [`ClockGen`].
#[derive(Debug, Clone)]
pub struct ClockGenBuilder {
    period: Time,
    high_time: Option<Time>,
    phase: Time,
}

impl ClockGen {
    /// Starts building a clock with the given `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn builder(period: Time) -> ClockGenBuilder {
        assert!(period > Time::ZERO, "clock period must be positive");
        ClockGenBuilder {
            period,
            high_time: None,
            phase: Time::ZERO,
        }
    }

    /// Convenience: spawns a 50%-duty, zero-phase clock on `net`.
    pub fn spawn_simple(sim: &mut Simulator, net: NetId, period: Time) {
        Self::builder(period).spawn(sim, net);
    }
}

impl ClockGenBuilder {
    /// Sets the high time (default: `period / 2`).
    ///
    /// # Panics
    ///
    /// Panics (at [`spawn`](Self::spawn)) if the high time is zero or not
    /// less than the period.
    pub fn high_time(mut self, high_time: Time) -> Self {
        self.high_time = Some(high_time);
        self
    }

    /// Sets the phase offset: the first rising edge occurs at
    /// `phase + period` (default phase: zero).
    pub fn phase(mut self, phase: Time) -> Self {
        self.phase = phase;
        self
    }

    /// Instantiates the clock in `sim`, driving `net`.
    pub fn spawn(self, sim: &mut Simulator, net: NetId) {
        let high_time = self.high_time.unwrap_or(self.period / 2);
        assert!(
            high_time > Time::ZERO && high_time < self.period,
            "high time must be inside (0, period)"
        );
        let driver = sim.driver(net);
        let gen = ClockGen {
            driver,
            period: self.period,
            high_time,
            phase: self.phase,
            started: false,
            level: Logic::L,
        };
        sim.add_component(Box::new(gen), &[]);
    }
}

impl Component for ClockGen {
    fn name(&self) -> &str {
        "clock"
    }

    fn kind(&self) -> &'static str {
        "clock"
    }

    fn eval(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            self.level = Logic::L;
            ctx.drive(self.driver, Logic::L, Time::ZERO);
            // First rising edge at phase + (period - high_time) past... no:
            // we define rising edges at phase + k·period (k ≥ 1), so the
            // low stretch before the first rise is period - high_time long
            // only in steady state; from t=0 we simply wait until
            // phase + period - high_time? Keep it simple and regular:
            // rise at phase + period, fall high_time later.
            let first_rise = self.phase + self.period;
            ctx.wake_in(first_rise.saturating_sub(ctx.now()));
            return;
        }
        // Toggle.
        if self.level == Logic::L {
            self.level = Logic::H;
            ctx.drive(self.driver, Logic::H, Time::ZERO);
            ctx.wake_in(self.high_time);
        } else {
            self.level = Logic::L;
            ctx.drive(self.driver, Logic::L, Time::ZERO);
            ctx.wake_in(self.period - self.high_time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Edge;

    #[test]
    fn fifty_percent_duty() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        sim.trace(clk);
        ClockGen::spawn_simple(&mut sim, clk, Time::from_ns(10));
        sim.run_until(Time::from_ns(100)).unwrap();
        let wf = sim.waveform(clk).unwrap();
        let rises: Vec<Time> = wf.edges(Edge::Rising).collect();
        // Events at exactly the horizon are processed, so the rise at
        // 100 ns is included.
        assert_eq!(
            rises,
            (1..=10).map(|k| Time::from_ns(10 * k)).collect::<Vec<_>>()
        );
        let falls: Vec<Time> = wf.edges(Edge::Falling).collect();
        // Starts low (not a fall), falls at 15, 25, ...
        assert_eq!(falls[0], Time::from_ns(15));
        assert_eq!(falls[1], Time::from_ns(25));
    }

    #[test]
    fn phase_shifts_edges() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        sim.trace(clk);
        ClockGen::builder(Time::from_ns(8))
            .phase(Time::from_ns(3))
            .spawn(&mut sim, clk);
        sim.run_until(Time::from_ns(40)).unwrap();
        let wf = sim.waveform(clk).unwrap();
        let rises: Vec<Time> = wf.edges(Edge::Rising).collect();
        assert_eq!(rises[0], Time::from_ns(11));
        assert_eq!(rises[1], Time::from_ns(19));
    }

    #[test]
    fn asymmetric_duty_cycle() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        sim.trace(clk);
        ClockGen::builder(Time::from_ns(10))
            .high_time(Time::from_ns(3))
            .spawn(&mut sim, clk);
        sim.run_until(Time::from_ns(50)).unwrap();
        let wf = sim.waveform(clk).unwrap();
        let rises: Vec<Time> = wf.edges(Edge::Rising).collect();
        let falls: Vec<Time> = wf.edges(Edge::Falling).collect();
        assert_eq!(rises[0], Time::from_ns(10));
        assert_eq!(falls[0], Time::from_ns(13));
        assert_eq!(rises[1], Time::from_ns(20));
    }

    #[test]
    #[should_panic]
    fn zero_period_rejected() {
        let _ = ClockGen::builder(Time::ZERO);
    }

    #[test]
    #[should_panic]
    fn degenerate_duty_rejected() {
        let mut sim = Simulator::new(0);
        let clk = sim.net("clk");
        ClockGen::builder(Time::from_ns(10))
            .high_time(Time::from_ns(10))
            .spawn(&mut sim, clk);
    }
}
