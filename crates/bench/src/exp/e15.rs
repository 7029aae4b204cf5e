//! E15 — §4 "Economics and adoption": "providers could charge a higher
//! unit price that is still attractive to users since they can tailor
//! their cloud usages and only pay for what is used."
//!
//! Four sections, all exported into one structured artifact:
//!
//! 1. **Win-win pricing** (the seed sweep): the UDC unit-price
//!    multiplier region where users still save vs IaaS catalog shapes
//!    AND the provider earns more per unit of hardware consumed.
//! 2. **Spot market: utilization vs revenue.** At each utilization
//!    level the provider auctions its surplus to seeded extension-VM
//!    bidding policies; scarcer lots at higher demand clear higher, so
//!    revenue per unit rises with utilization.
//! 3. **Price of anarchy vs bid shading.** Sweeping how many bidders
//!    shade below their true valuation shows the second-price auction's
//!    welfare loss when tenants deviate from the dominant strategy.
//! 4. **Quota-gated admission audit.** A tiny-plan tenant submits the
//!    medical pipeline, the gate denies it, and the denial lands in the
//!    decision log — `udc-trace results/exp_15_economics.json
//!    --explain S1` prints the economic rejection like any capacity
//!    one.
//!
//! Every section records into one telemetry hub. The market trials of
//! sections 2 and 3 run in order, each deriving its seed from its index
//! and stamping its records with its own logical clock.

use crate::{banner, pct, trial_ticks, Table};
use udc_baseline::IaasProvisioner;
use udc_economics::{
    BidderPolicy, Lot, PlanSpec, QuotaGate, SpotMarket, AGGRESSIVE_BIDDER, BUDGET_BIDDER,
    SHADED_BIDDER, TRUTHFUL_BIDDER,
};
use udc_extvm::assemble;
use udc_failure::mix64;
use udc_spec::{ResourceKind, ResourceVector};
use udc_telemetry::{EventKind, FieldValue, Labels, Telemetry};
use udc_workload::{medical_pipeline, DemandSampler};

const EPOCHS: u64 = 32;

/// What one market trial sold and how efficiently.
#[derive(Debug, Default, PartialEq)]
struct MarketTally {
    revenue: u64,
    /// Sum and count of the clearing prices of the lots that sold.
    clearing_sum: u64,
    sold: u64,
    unsold: u64,
    achieved_welfare: u64,
    optimal_welfare: u64,
}

impl MarketTally {
    fn mean_clearing_price(&self) -> f64 {
        if self.sold == 0 {
            0.0
        } else {
            self.clearing_sum as f64 / self.sold as f64
        }
    }

    fn price_of_anarchy(&self) -> f64 {
        self.optimal_welfare as f64 / self.achieved_welfare.max(1) as f64
    }
}

/// One market trial: `tenants` bidding policies (name, program source)
/// auction `EPOCHS` lots at the given utilization, recording into
/// `tel`. Valuations are drawn per epoch per bidder from the trial
/// seed; scarcity raises them (tighter supply is worth more).
fn market_trial(
    tel: &Telemetry,
    seed: u64,
    utilization_pct: u64,
    tenants: &[(&str, &str)],
) -> MarketTally {
    trial_ticks(tel);
    let mut gate = QuotaGate::new();
    for (name, _) in tenants {
        gate.open_account(name, PlanSpec::unlimited("spot"), 0);
        // Working capital so the budget policy has headroom.
        gate.account_mut(name).unwrap().pay(0, 2_000_000);
    }
    let mut market = SpotMarket::default();
    let surplus = (100 - utilization_pct).max(4);
    let lot = Lot {
        kind: ResourceKind::Cpu,
        units: surplus,
        reserve_price: 2 + utilization_pct / 10,
    };
    let mut tally = MarketTally::default();
    for epoch in 0..EPOCHS {
        let bidders: Vec<BidderPolicy> = tenants
            .iter()
            .enumerate()
            .map(|(i, (name, asm))| {
                let r = mix64(seed ^ (epoch << 8) ^ i as u64);
                BidderPolicy {
                    tenant: name.to_string(),
                    program: assemble(asm).expect("canned policy assembles"),
                    // 10..50 µ$/unit base, shifted up with utilization.
                    valuation: 10 + r % 40 + utilization_pct / 4,
                }
            })
            .collect();
        let out = market.run_epoch(
            epoch * 1_000_000,
            &lot,
            &bidders,
            utilization_pct,
            &mut gate,
            tel,
        );
        tally.revenue += out.revenue;
        if out.winner.is_some() {
            tally.clearing_sum += out.clearing_price;
            tally.sold += 1;
        } else {
            tally.unsold += 1;
        }
        tally.achieved_welfare += out.achieved_welfare;
        tally.optimal_welfare += out.optimal_welfare;
    }
    tally
}

pub fn run() -> String {
    banner(
        "E15",
        "Tenant economics: win-win pricing, spot market, quota gate",
        "UDC can raise unit prices and still undercut users' total cost; \
         surplus capacity clears through a tenant-programmable auction",
    );
    let tel = Telemetry::enabled();

    // ---- 1. Win-win pricing region (the seed sweep) -----------------
    let mut sampler = DemandSampler::new(99);
    let demands: Vec<ResourceVector> = sampler.sample_n(2_000);
    let iaas = IaasProvisioner::new();
    let iaas_out = iaas.provision(&demands);
    let iaas_hourly = iaas_out.hourly_cost as f64;
    let udc_base_hourly: f64 = demands
        .iter()
        .map(|d| {
            d.iter()
                .map(|(k, v)| {
                    udc_hal::PerfProfile::default_for(k).micro_dollars_per_unit_hour as f64
                        * v as f64
                })
                .sum::<f64>()
        })
        .sum();

    // Provider cost model (stated assumptions): amortized hardware,
    // power and operations cost ~40% of the UDC base price for capacity
    // actually PROVISIONED. IaaS must provision used/(1-waste); UDC
    // provisions used/0.8 (20% elasticity headroom) — the paper's
    // consolidation argument.
    let hw_cost_fraction = 0.4;
    let iaas_provisioned = 1.0 / (1.0 - iaas_out.mean_waste);
    let udc_provisioned = 1.0 / 0.8;
    let iaas_profit = iaas_hourly - hw_cost_fraction * udc_base_hourly * iaas_provisioned;

    let mut t = Table::new(&[
        "price multiplier",
        "user bill (UDC)",
        "user bill (IaaS)",
        "user saving",
        "provider profit vs IaaS",
        "win-win",
    ]);
    for mult10 in [10u64, 11, 12, 13, 14, 15, 16, 18, 20] {
        let mult = mult10 as f64 / 10.0;
        let udc_hourly = udc_base_hourly * mult;
        let saving = 1.0 - udc_hourly / iaas_hourly;
        let udc_profit = udc_hourly - hw_cost_fraction * udc_base_hourly * udc_provisioned;
        let profit_ratio = udc_profit / iaas_profit;
        let win_win = saving > 0.0 && profit_ratio >= 1.0;
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("mult{mult10}")),
            &[
                ("udc_hourly", FieldValue::from(udc_hourly)),
                ("iaas_hourly", FieldValue::from(iaas_hourly)),
                ("user_saving", FieldValue::from(saving)),
                ("profit_ratio", FieldValue::from(profit_ratio)),
                ("win_win", FieldValue::from(win_win)),
            ],
        );
        t.row(&[
            format!("{mult:.1}x"),
            format!("${:.0}/h", udc_hourly / 1e6),
            format!("${:.0}/h", iaas_hourly / 1e6),
            pct(saving),
            format!("{profit_ratio:.2}x"),
            if win_win { "YES" } else { "no" }.to_string(),
        ]);
    }
    t.print();
    println!(
        "IaaS mean waste on this population: {}. Assumptions: hardware+ops \
         cost = 40% of base unit price for provisioned capacity; IaaS \
         provisions 1/(1-waste) per used unit, UDC 1/0.8 (consolidation, E4).",
        pct(iaas_out.mean_waste)
    );

    // ---- 2. Spot market: utilization vs revenue ---------------------
    // A mixed, realistic policy population: two truthful tenants, one
    // shader, one over-bidder, one budget-capped.
    const POPULATION: [(&str, &str); 5] = [
        ("alice", TRUTHFUL_BIDDER),
        ("bob", SHADED_BIDDER),
        ("carol", AGGRESSIVE_BIDDER),
        ("dave", BUDGET_BIDDER),
        ("erin", TRUTHFUL_BIDDER),
    ];
    let utilizations: [u64; 6] = [50, 60, 70, 80, 90, 95];
    let mut t = Table::new(&[
        "utilization",
        "lot size",
        "revenue (µ$)",
        "mean clearing µ$/unit",
        "unsold lots",
    ]);
    for (idx, &util) in utilizations.iter().enumerate() {
        let tally = market_trial(&tel, 2026 + idx as u64, util, &POPULATION);
        let clearing = tally.mean_clearing_price();
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("util{util}")),
            &[
                ("utilization_pct", FieldValue::from(util)),
                ("revenue_microdollars", FieldValue::from(tally.revenue)),
                ("mean_clearing_price", FieldValue::from(clearing)),
                ("unsold_lots", FieldValue::from(tally.unsold)),
                (
                    "price_of_anarchy",
                    FieldValue::from(tally.price_of_anarchy()),
                ),
            ],
        );
        t.row(&[
            format!("{util}%"),
            format!("{}", (100 - util).max(4)),
            tally.revenue.to_string(),
            format!("{clearing:.1}"),
            tally.unsold.to_string(),
        ]);
    }
    t.print();
    println!(
        "Scarcity pricing: as utilization rises the surplus lot shrinks and \
         valuations climb, so the per-unit clearing price rises — the \
         provider monetizes exactly the capacity users compete for."
    );

    // ---- 3. Price of anarchy vs bid shading -------------------------
    let shaded_counts: [usize; 5] = [0, 1, 2, 3, 4];
    let mut t = Table::new(&["shaded bidders (of 4)", "price of anarchy"]);
    for (idx, &shaded) in shaded_counts.iter().enumerate() {
        let names = ["t0", "t1", "t2", "t3"];
        let tenants: Vec<(&str, &str)> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    *name,
                    if i < shaded {
                        SHADED_BIDDER
                    } else {
                        TRUTHFUL_BIDDER
                    },
                )
            })
            .collect();
        let tally = market_trial(&tel, 4040 + idx as u64, 70, &tenants);
        let poa = tally.price_of_anarchy();
        tel.event(
            EventKind::Measurement,
            Labels::tenant(format!("shaded{shaded}")),
            &[
                ("shaded_bidders", FieldValue::from(shaded as u64)),
                ("price_of_anarchy", FieldValue::from(poa)),
                ("achieved_welfare", FieldValue::from(tally.achieved_welfare)),
                ("optimal_welfare", FieldValue::from(tally.optimal_welfare)),
            ],
        );
        t.row(&[shaded.to_string(), format!("{poa:.3}")]);
    }
    t.print();
    println!(
        "All-truthful bidding is efficient (PoA = 1.0, Vickrey's dominant \
         strategy). Asymmetric shading hands lots to lower-valuation rivals \
         and welfare drops; when every bidder shades by the same factor the \
         ranking — and so the allocation — is restored."
    );

    // ---- 4. Quota-gated admission audit -----------------------------
    // A tiny plan (2 CPUs) cannot admit the medical pipeline; the
    // denial is recorded per module in the decision log and the
    // artifact answers `udc-trace --explain S1`.
    let mut cloud = udc_core::UdcCloud::new(udc_core::CloudConfig::default());
    cloud.set_observer(tel.clone());
    let mut gate = QuotaGate::new();
    let tiny = PlanSpec {
        quota: ResourceVector::new().with(ResourceKind::Cpu, 2),
        ..PlanSpec::unlimited("tiny")
    };
    gate.open_account("tenant", tiny, 0);
    cloud.attach_economics(udc_economics::shared(gate));
    let denied = cloud.submit(&medical_pipeline());
    let denial_msg = match denied {
        Err(e) => e.to_string(),
        Ok(_) => "UNEXPECTED ADMIT".to_string(),
    };
    let denials = tel
        .decisions()
        .iter()
        .filter(|d| d.stage == "sched.admit")
        .count() as u64;
    tel.event(
        EventKind::Measurement,
        Labels::tenant("quota_demo"),
        &[
            ("denied", FieldValue::from(denial_msg.as_str())),
            ("admit_decisions", FieldValue::from(denials)),
        ],
    );
    println!();
    println!("Quota-gated admission: {denial_msg}");
    println!(
        "  {denials} per-module denial records in the decision log — try \
         `udc-trace results/exp_15_economics.json --explain S1`"
    );

    tel.snapshot().to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_telemetry::{Histogram, SeriesName};

    const TENANTS: [(&str, &str); 3] = [
        ("alice", TRUTHFUL_BIDDER),
        ("bob", SHADED_BIDDER),
        ("dave", BUDGET_BIDDER),
    ];

    fn clearing_prices(tel: &Telemetry) -> Histogram {
        let view = tel.view().expect("enabled hub");
        let found = view
            .histograms_named(&SeriesName::new("market.clearing_price"), 0)
            .map(|(_, h)| h.clone())
            .next();
        found.unwrap_or_default()
    }

    #[test]
    fn a_market_tally_is_the_trials_share_of_the_shared_hub() {
        let tel = Telemetry::enabled();
        let counter = |name: &str| tel.counter(name, &Labels::none());
        for (idx, util) in [50u64, 95].into_iter().enumerate() {
            let revenue = counter("market.revenue_microdollars");
            let unsold = counter("market.unsold_lots");
            let before = clearing_prices(&tel);
            let tally = market_trial(&tel, 2026 + idx as u64, util, &TENANTS);
            let prices = clearing_prices(&tel).diff(&before);
            assert_eq!(
                tally.revenue,
                counter("market.revenue_microdollars") - revenue
            );
            assert_eq!(tally.unsold, counter("market.unsold_lots") - unsold);
            assert_eq!(tally.sold, prices.count());
            assert_eq!(u128::from(tally.clearing_sum), prices.sum());
            assert_eq!(tally.sold + tally.unsold, EPOCHS);
        }
    }

    #[test]
    fn a_market_trial_ignores_what_ran_before_it() {
        // The same trial on a fresh hub and after another trial on a
        // shared one tallies and decides identically, timestamps included.
        let decisions = |tel: &Telemetry, from: usize| -> Vec<String> {
            tel.decisions()[from..]
                .iter()
                .map(|d| {
                    format!(
                        "{} {} {} {} {} {:?} {:?}",
                        d.at_us, d.stage, d.candidate, d.accepted, d.detail, d.reason, d.score
                    )
                })
                .collect()
        };
        let fresh = Telemetry::enabled();
        let alone = market_trial(&fresh, 4041, 70, &TENANTS);
        let shared = Telemetry::enabled();
        market_trial(&shared, 4040, 60, &TENANTS);
        let earlier = shared.decisions().len();
        let after = market_trial(&shared, 4041, 70, &TENANTS);
        assert_eq!(alone, after);
        assert!(earlier > 0, "the first trial decided something");
        assert_eq!(decisions(&fresh, 0), decisions(&shared, earlier));
    }
}
