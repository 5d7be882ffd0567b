//! Consistency between the two timing views: the clock period static
//! timing analysis declares safe must simulate cleanly (no setup/hold
//! reports, correct data), and a substantially faster clock must trip the
//! flip-flops' setup checkers — i.e. the STA bound is neither vacuous nor
//! wildly conservative.

use mtf_bench::harness::{Drain, Feed, Harness};
use mtf_bench::measure::periods;
use mtf_core::design::MIXED_CLOCK;
use mtf_core::FifoParams;
use mtf_sim::{Time, ViolationKind};
use mtf_timing::Tech;

/// Simulates a transfer with both clocks at the given periods; returns
/// (setup/hold violation count, stream intact?).
fn simulate_at(params: FifoParams, t_put: Time, t_get: Time, seed: u64) -> (usize, bool) {
    // Same calibration as the STA measurements; ideal metastability so the
    // only reports are genuine setup/hold trips.
    let mut h = Harness::calibrated(seed);
    h.clock_nets_both()
        .gen_put(t_put)
        .gen_get_phased(t_get, Time::from_ps(seed * 131 % t_get.as_ps()));
    h.build_annotated(&MIXED_CLOCK, params, &Tech::hp06_custom());
    let items: Vec<u64> = (0..60).collect();
    let feed = Feed::Saturate {
        items: items.clone(),
        bundling: Time::ZERO,
        phase: Time::ZERO,
    };
    let pj = h.feed("prod", feed);
    let n = items.len() as u64;
    let cj = h.drain(
        "cons",
        Drain::Consume {
            n,
            phase: Time::ZERO,
        },
    );
    h.sim.run_until(Time::from_us(10)).unwrap();
    let viol = h.sim.violations_of(ViolationKind::Setup).count()
        + h.sim.violations_of(ViolationKind::Hold).count();
    let ok = pj.len() == items.len() && cj.values() == items;
    (viol, ok)
}

#[test]
fn sta_period_simulates_cleanly() {
    for &(cap, w) in &[(4usize, 8usize), (8, 8), (8, 16)] {
        let params = FifoParams::new(cap, w);
        let p = periods(&MIXED_CLOCK, params).expect("mixed-clock has timing paths");
        // 2% guard band over the STA bound.
        let t_put = Time::from_ps(p.put.unwrap().as_ps() * 51 / 50);
        let t_get = Time::from_ps(p.get.as_ps() * 51 / 50);
        for seed in 0..3 {
            let (viol, ok) = simulate_at(params, t_put, t_get, seed);
            assert_eq!(viol, 0, "{params} seed {seed}: clean at the STA period");
            assert!(ok, "{params} seed {seed}: data intact at the STA period");
        }
    }
}

#[test]
fn overclocking_trips_the_checkers() {
    let params = FifoParams::new(8, 8);
    let p = periods(&MIXED_CLOCK, params).expect("mixed-clock has timing paths");
    // 40% beyond the STA bound: the critical path no longer fits.
    let t_put = Time::from_ps(p.put.unwrap().as_ps() * 6 / 10);
    let t_get = Time::from_ps(p.get.as_ps() * 6 / 10);
    let mut any_viol = 0;
    for seed in 0..3 {
        let (viol, _ok) = simulate_at(params, t_put, t_get, seed);
        any_viol += viol;
    }
    assert!(
        any_viol > 0,
        "a 40% overclock must produce setup violations — otherwise the STA \
         bound is meaninglessly conservative"
    );
}

#[test]
fn binary_search_localizes_the_working_boundary() {
    // Independent cross-check: simulation's own working/broken boundary
    // sits at or below the STA bound (STA must be safe) and not absurdly
    // below it (STA must not be vacuous). The gap that exists comes from
    // STA charging worst-case paths that this particular workload and
    // clock phase never exercise.
    let factor = mtf_bench::measure::sim_fmax_factor_mixed_clock(FifoParams::new(8, 8));
    assert!(
        factor <= 1.03,
        "simulation must be clean at the STA bound (first-clean factor {factor:.2})"
    );
    assert!(
        factor >= 0.45,
        "a boundary this far below the STA bound means the analysis is          uselessly conservative (factor {factor:.2})"
    );
}

#[test]
fn sta_bound_is_tight_ish() {
    // The first violations should appear within ~35% below the STA period
    // (the gap is environment-delay modelling slack, not dead margin).
    let params = FifoParams::new(8, 8);
    let p = periods(&MIXED_CLOCK, params).expect("mixed-clock has timing paths");
    let base_put = p.put.unwrap().as_ps();
    let base_get = p.get.as_ps();
    let mut first_bad: Option<u64> = None;
    for pct in (55..=100).step_by(5) {
        let (viol, ok) = simulate_at(
            params,
            Time::from_ps(base_put * pct / 100),
            Time::from_ps(base_get * pct / 100),
            7,
        );
        if viol > 0 || !ok {
            first_bad = Some(pct);
        }
    }
    let pct = first_bad.expect("overclocking must eventually fail");
    assert!(
        pct >= 55,
        "violations should appear somewhere in the sweep (first at {pct}%)"
    );
}
