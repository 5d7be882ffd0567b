//! Pins every per-design fact the registry exposes, so a refactor of the
//! design layer cannot silently change what any design is or builds.
//!
//! For each of the eleven registered designs this records its name,
//! label, clocking, both interface specs and flag disciplines, its lint
//! waiver count, its `supports` verdict at four parameter points, and an
//! FNV-1a digest of the netlist it elaborates at 4×8 (instance names and
//! cell kinds in creation order, then every simulator net name), and a
//! digest of the `DesignPorts` that build returns (every field's net name
//! in field order, `-` for an absent net). The stock registry selections
//! are pinned by name.

use mtf_core::design::{ClockInputs, DesignPorts, DesignRegistry, MixedTimingDesign};
use mtf_core::{waivers_for, FifoParams};
use mtf_gates::Builder;
use mtf_sim::{NetId, Simulator};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn str(&mut self, s: &str) {
        for &x in s.as_bytes().iter().chain([0u8].iter()) {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digests of `design` elaborated at `params` with fresh clock nets and
/// nothing running: the netlist, then the returned ports.
fn build_digests(design: &dyn MixedTimingDesign, params: FifoParams) -> (u64, u64) {
    let mut sim = Simulator::new(0);
    let clk_put = design.clocking().needs_put().then(|| sim.net("clk_put"));
    let clk_get = design.clocking().needs_get().then(|| sim.net("clk_get"));
    let mut b = Builder::new(&mut sim);
    let ports = design.build(&mut b, params, ClockInputs { clk_put, clk_get });
    let netlist = b.finish();
    let mut h = Fnv::new();
    for inst in netlist.instances() {
        h.str(&inst.name);
        h.str(&format!("{:?}", inst.kind));
    }
    for i in 0..sim.net_count() {
        h.str(sim.net_name(NetId::from_index(i)));
    }
    (h.0, ports_digest(&sim, &ports))
}

/// Every field of `ports` in declaration order: the kind and parameters,
/// then each net's name (`-` when absent), each bus prefixed by its width.
fn ports_digest(sim: &Simulator, ports: &DesignPorts) -> u64 {
    let DesignPorts {
        kind,
        params,
        clk_put,
        clk_get,
        req_put,
        full,
        put_req,
        put_ack,
        valid_in,
        stop_out,
        data_put,
        req_get,
        valid_get,
        empty,
        stop_in,
        get_req,
        get_ack,
        data_get,
        nclk_get,
    } = ports;
    let one = |n: &Option<NetId>| vec![n.map_or("-", |n| sim.net_name(n)).to_string()];
    let bus = |bus: &[NetId]| {
        let names = bus.iter().map(|&n| sim.net_name(n).to_string());
        std::iter::once(bus.len().to_string())
            .chain(names)
            .collect::<Vec<_>>()
    };
    let fields = [
        vec![kind.name().to_string(), format!("{params:?}")],
        one(clk_put),
        one(clk_get),
        one(req_put),
        one(full),
        one(put_req),
        one(put_ack),
        one(valid_in),
        one(stop_out),
        bus(data_put),
        one(req_get),
        one(valid_get),
        one(empty),
        one(stop_in),
        one(get_req),
        one(get_ack),
        bus(data_get),
        one(nclk_get),
    ];
    let mut h = Fnv::new();
    for field in fields.iter().flatten() {
        h.str(field);
    }
    h.0
}

/// One line of pinned facts per design.
fn describe(design: &dyn MixedTimingDesign) -> String {
    let kind = design.kind();
    let p48 = FifoParams::new(4, 8);
    let supports: Vec<&str> = [(3, 8), (4, 8), (6, 8), (8, 16)]
        .into_iter()
        .map(|(c, w)| match design.supports(FifoParams::new(c, w)) {
            Ok(()) => "ok",
            Err(_) => "err",
        })
        .collect();
    let (netlist, ports) = build_digests(design, p48);
    format!(
        "{} | {} | {:?} | {:?} / {:?} | {:?} / {:?} | waivers {} | supports {} | netlist {:016x} | ports {:016x}",
        kind.name(),
        kind.label(),
        design.clocking(),
        design.put_interface(p48),
        design.get_interface(p48),
        kind.put_discipline(),
        kind.get_discipline(),
        waivers_for(kind).len(),
        supports.join(","),
        netlist,
        ports,
    )
}

const PINNED: [&str; 11] = [
    "mixed_clock | Mixed-Clock | PutAndGet | SyncFifo { width: 8 } / SyncFifo { width: 8 } | Anticipating / Bimodal | waivers 3 | supports ok,ok,ok,ok | netlist da12d3597518c5d2 | ports 9bf7f67b43b92284",
    "async_sync | Async-Sync | GetOnly | Async4Phase { width: 8 } / SyncFifo { width: 8 } | Direct / Bimodal | waivers 1 | supports ok,ok,ok,ok | netlist 5af88f4dc9903361 | ports 5c76ccfd864745e6",
    "mixed_clock_rs | Mixed-Clock RS | PutAndGet | SyncStream { width: 8 } / SyncStream { width: 8 } | Anticipating / Bimodal | waivers 3 | supports ok,ok,ok,ok | netlist 71b5b5d275463153 | ports 1b776e4797255447",
    "async_sync_rs | Async-Sync RS | GetOnly | Async4Phase { width: 8 } / SyncStream { width: 8 } | Direct / Bimodal | waivers 1 | supports ok,ok,ok,ok | netlist 11662dfd692e9eeb | ports 30315dfc8968ffd2",
    "async_async | Async-Async | Unclocked | Async4Phase { width: 8 } / Async4Phase { width: 8 } | Direct / Direct | waivers 0 | supports ok,ok,ok,ok | netlist 7713316b322d1bcf | ports 771e99a8d89d5a95",
    "sync_async | Sync-Async | PutOnly | SyncFifo { width: 8 } / Async4Phase { width: 8 } | Anticipating / Direct | waivers 0 | supports ok,ok,ok,ok | netlist df70e5fd37f81e0a | ports 1acd4a4c7f1d3b00",
    "gray_pointer | Gray-pointer | PutAndGet | SyncFifo { width: 8 } / SyncFifo { width: 8 } | Exact / Exact | waivers 0 | supports err,ok,err,ok | netlist f64ce28f59a8ff98 | ports 8f961a6f3ea0fdef",
    "per_cell_sync | Per-cell sync | PutAndGet | SyncFifo { width: 8 } / SyncFifo { width: 8 } | Exact / Exact | waivers 1 | supports ok,ok,ok,ok | netlist 5497a35d50927114 | ports 07b58f0ffcb5d2fa",
    "shift_register | Shift-register | PutOnly | SyncFifo { width: 8 } / SyncFifo { width: 8 } | SameCycle / SameCycle | waivers 0 | supports ok,ok,ok,ok | netlist 3fd8e47314acdf5b | ports 656e86d3079f031a",
    "seizovic | Seizovic | GetOnly | Async4Phase { width: 8 } / SyncFifo { width: 8 } | Direct / Exact | waivers 0 | supports ok,ok,ok,ok | netlist 1a6786590c4a19b5 | ports a4d1c09060cc59ee",
    "sync_rs | Sync RS (Carloni) | GetOnly | SyncStream { width: 8 } / SyncStream { width: 8 } | SameCycle / SameCycle | waivers 0 | supports ok,ok,ok,ok | netlist fbc28877d559768c | ports 5f56a4dff03ec21a",
];

#[test]
fn every_design_keeps_its_pinned_facts() {
    let got: Vec<String> = DesignRegistry::standard().iter().map(describe).collect();
    assert_eq!(got, PINNED);
}

#[test]
fn registry_selections_keep_their_pinned_names() {
    assert_eq!(
        DesignRegistry::standard().names(),
        [
            "mixed_clock",
            "async_sync",
            "mixed_clock_rs",
            "async_sync_rs",
            "async_async",
            "sync_async",
            "gray_pointer",
            "per_cell_sync",
            "shift_register",
            "seizovic",
            "sync_rs",
        ]
    );
    assert_eq!(
        DesignRegistry::paper().names(),
        [
            "mixed_clock",
            "async_sync",
            "mixed_clock_rs",
            "async_sync_rs",
            "async_async",
            "sync_async",
        ]
    );
    assert_eq!(
        DesignRegistry::table1().names(),
        [
            "mixed_clock",
            "async_sync",
            "mixed_clock_rs",
            "async_sync_rs"
        ]
    );
    assert_eq!(
        DesignRegistry::baselines().names(),
        [
            "gray_pointer",
            "per_cell_sync",
            "shift_register",
            "seizovic"
        ]
    );
    assert_eq!(
        DesignRegistry::streams().names(),
        ["mixed_clock_rs", "sync_rs"]
    );
}
