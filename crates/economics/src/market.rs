//! The seeded second-price spot market for surplus capacity.
//!
//! Each accounting epoch the provider offers a **lot** of surplus
//! capacity (a resource kind and unit count with a reserve price) and
//! tenants bid through their own **extension-VM bidding policies** —
//! gas-metered programs whose only view of the market is the host
//! functions below (Design Principles 1–2 applied to economics: the
//! tenant programs the provider's market, safely). The auction is
//! sealed-bid second price (Vickrey): the highest bidder wins but pays
//! `max(second bid, reserve)`, which makes truthful bidding the
//! dominant strategy — and makes the shaded/aggressive canned policies
//! below produce a measurable price of anarchy for `exp_15`.
//!
//! Determinism: bidders are evaluated in the caller-supplied order but
//! ranked by `(bid desc, tenant name asc)`, every input comes from the
//! gate or the seeded experiment, and the VM is deterministic, so the
//! same seed yields byte-identical auction telemetry run to run.

use udc_extvm::{CompiledCache, Host, Program, Vm, VmLimits};
use udc_spec::ResourceKind;
use udc_telemetry::{Decision, Labels, ReasonCode, Telemetry};

use crate::gate::QuotaGate;

/// Host-function indices a bidding policy may call (all niladic).
pub mod hostfn {
    /// Tenant's current ledger balance, µ$ (negative when overdue).
    pub const BALANCE: u8 = 0;
    /// Units of capacity in the lot on offer.
    pub const LOT_UNITS: u8 = 1;
    /// Clearing price of the previous epoch's auction (0 at first).
    pub const LAST_PRICE: u8 = 2;
    /// Provider utilization, percent 0–100.
    pub const UTILIZATION: u8 = 3;
    /// The lot's reserve price, µ$ per unit.
    pub const RESERVE: u8 = 4;
    /// The tenant's private per-unit valuation, µ$.
    pub const VALUATION: u8 = 5;
}

/// Bids its true valuation — the dominant strategy under second price.
pub const TRUTHFUL_BIDDER: &str = "
    hostcall 5.0
    ret
";

/// Shades to 4/5 of valuation (rational under *first*-price intuition;
/// under-bids here and loses lots it values most — anarchy source #1).
pub const SHADED_BIDDER: &str = "
    hostcall 5.0
    push 4
    mul
    push 5
    div
    ret
";

/// Over-bids at 6/5 of valuation, chasing utilization spikes — wins
/// lots it values less than it pays for (anarchy source #2).
pub const AGGRESSIVE_BIDDER: &str = "
    hostcall 5.0
    push 6
    mul
    push 5
    div
    ret
";

/// Truthful but capped by what the balance can afford per unit:
/// `min(valuation, balance / units)`.
pub const BUDGET_BIDDER: &str = "
    hostcall 5.0
    hostcall 0.0
    hostcall 1.0
    div
    min
    push 0
    max
    ret
";

/// A lot of surplus capacity on offer for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lot {
    /// What is being sold.
    pub kind: ResourceKind,
    /// How many units.
    pub units: u64,
    /// Minimum acceptable per-unit price, µ$.
    pub reserve_price: u64,
}

/// One tenant's bidding policy: a compiled extension-VM program plus
/// the private per-unit valuation the [`hostfn::VALUATION`] call
/// exposes to it (drawn by the seeded experiment, never shared between
/// bidders).
#[derive(Debug, Clone)]
pub struct BidderPolicy {
    /// Tenant the policy bids for (must match a gate account to win).
    pub tenant: String,
    /// The compiled bidding program.
    pub program: Program,
    /// Private valuation, µ$ per unit.
    pub valuation: u64,
}

/// One evaluated bid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BidRecord {
    /// Bidding tenant.
    pub tenant: String,
    /// The bid, µ$ per unit (0 when the policy trapped).
    pub bid: u64,
    /// Gas the policy burned.
    pub gas_used: u64,
    /// Whether the policy trapped (gas, stack, or host error).
    pub trapped: bool,
}

/// The outcome of one epoch's auction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuctionOutcome {
    /// The lot that was offered.
    pub lot: Lot,
    /// Winning tenant, when any bid met the reserve.
    pub winner: Option<String>,
    /// Per-unit price the winner pays: `max(second bid, reserve)`.
    pub clearing_price: u64,
    /// Total µ$ the auction raised (`clearing_price × units`).
    pub revenue: u64,
    /// Welfare achieved: the winner's true valuation × units.
    pub achieved_welfare: u64,
    /// Welfare an omniscient allocation would achieve: the highest
    /// eligible valuation × units. `optimal / achieved` is the price
    /// of anarchy `exp_15` sweeps.
    pub optimal_welfare: u64,
    /// Every evaluated bid, in ranked order.
    pub bids: Vec<BidRecord>,
}

/// The market host: a read-only window onto one tenant's view of the
/// auction. Unknown indices or any arguments trap the policy.
struct MarketHost {
    balance: i64,
    lot_units: u64,
    last_price: u64,
    utilization_pct: u64,
    reserve: u64,
    valuation: u64,
}

impl Host for MarketHost {
    fn call(&mut self, idx: u8, args: &[i64]) -> Result<i64, String> {
        if !args.is_empty() {
            return Err(format!("market host fn {idx} takes no arguments"));
        }
        match idx {
            hostfn::BALANCE => Ok(self.balance),
            hostfn::LOT_UNITS => Ok(self.lot_units.min(i64::MAX as u64) as i64),
            hostfn::LAST_PRICE => Ok(self.last_price.min(i64::MAX as u64) as i64),
            hostfn::UTILIZATION => Ok(self.utilization_pct.min(100) as i64),
            hostfn::RESERVE => Ok(self.reserve.min(i64::MAX as u64) as i64),
            hostfn::VALUATION => Ok(self.valuation.min(i64::MAX as u64) as i64),
            _ => Err(format!("unknown market host fn {idx}")),
        }
    }
}

/// The provider-side market: runs one sealed-bid second-price auction
/// per accounting epoch and carries the last clearing price forward so
/// policies can react to it.
#[derive(Debug)]
pub struct SpotMarket {
    limits: VmLimits,
    last_clearing_price: u64,
    epoch: u64,
    /// Compiled bidding programs, keyed by program hash: the canned
    /// policies re-bid every epoch, so after the first epoch every
    /// evaluation is a cache hit running the fused register IR.
    cache: CompiledCache,
    /// One reusable VM for all bidders — buffers are reset in place
    /// between runs, so steady-state epochs never allocate.
    vm: Vm,
}

impl Default for SpotMarket {
    fn default() -> Self {
        Self::new(VmLimits::default())
    }
}

impl SpotMarket {
    /// A market enforcing `limits` on every bidding policy.
    pub fn new(limits: VmLimits) -> Self {
        Self {
            limits,
            last_clearing_price: 0,
            epoch: 0,
            cache: CompiledCache::new(),
            vm: Vm::new(limits),
        }
    }

    /// The clearing price of the most recent auction that sold.
    pub fn last_clearing_price(&self) -> u64 {
        self.last_clearing_price
    }

    /// Runs one epoch's auction over `lot`.
    ///
    /// Suspended accounts are skipped (recorded with a `Suspended`
    /// decision); every other bidder's policy runs gas-metered against
    /// its private `MarketHost` view. The winner is debited
    /// `clearing_price × units` on its ledger; losers get `Outbid`
    /// decisions so `udc-trace --explain` can audit why a tenant did
    /// not receive surplus capacity.
    pub fn run_epoch(
        &mut self,
        now_us: u64,
        lot: &Lot,
        bidders: &[BidderPolicy],
        utilization_pct: u64,
        gate: &mut QuotaGate,
        tel: &Telemetry,
    ) -> AuctionOutcome {
        self.epoch += 1;
        let lot_name = format!("lot:{}", lot.kind.name());
        let mut records: Vec<BidRecord> = Vec::new();
        let mut skipped: Vec<&str> = Vec::new();

        for b in bidders {
            if gate.account(&b.tenant).is_some_and(|a| a.is_suspended()) {
                skipped.push(&b.tenant);
                tel.decide(Decision {
                    ctx: None,
                    stage: "market.auction",
                    module: &lot_name,
                    candidate: &b.tenant,
                    accepted: false,
                    reason: ReasonCode::Suspended,
                    score: None,
                    detail: "account suspended; bid not evaluated".into(),
                });
                continue;
            }
            let balance = gate
                .account(&b.tenant)
                .map(|a| a.ledger.balance_microdollars())
                .unwrap_or(0);
            let mut host = MarketHost {
                balance,
                lot_units: lot.units,
                last_price: self.last_clearing_price,
                utilization_pct,
                reserve: lot.reserve_price,
                valuation: b.valuation,
            };
            let compiled = self.cache.get_or_compile(&b.program, self.limits);
            // Fresh-VM semantics on a reused VM: clear the gas readback
            // so a gasless trap reports 0, exactly as a new VM would.
            self.vm.clear_last_gas();
            let (bid, trapped) = match compiled.run(&mut self.vm, &[], &mut host) {
                Ok(v) => (v.max(0) as u64, false),
                Err(_) => {
                    tel.incr("market.traps", Labels::tenant(&b.tenant), 1);
                    (0, true)
                }
            };
            records.push(BidRecord {
                tenant: b.tenant.clone(),
                bid,
                gas_used: self.vm.last_gas_used(),
                trapped,
            });
        }

        // Rank: highest bid first, tenant name breaks ties — total
        // order independent of input order.
        records.sort_by(|a, b| b.bid.cmp(&a.bid).then_with(|| a.tenant.cmp(&b.tenant)));

        let qualifying = records
            .iter()
            .filter(|r| r.bid >= lot.reserve_price)
            .count();
        let (winner, clearing_price) = if qualifying == 0 {
            (None, 0)
        } else {
            let second = records.get(1).map(|r| r.bid).unwrap_or(0);
            (
                Some(records[0].tenant.clone()),
                second.max(lot.reserve_price),
            )
        };
        let revenue = clearing_price.saturating_mul(lot.units);

        // Decisions + the winner's ledger debit.
        for (rank, r) in records.iter().enumerate() {
            let won = winner.as_deref() == Some(r.tenant.as_str());
            tel.decide(Decision {
                ctx: None,
                stage: "market.auction",
                module: &lot_name,
                candidate: &r.tenant,
                accepted: won,
                reason: if won {
                    ReasonCode::Accepted
                } else {
                    ReasonCode::Outbid
                },
                score: Some(r.bid.min(i64::MAX as u64) as i64),
                detail: if won {
                    format!("pays {clearing_price} µ$/unit × {} units", lot.units)
                } else if r.bid < lot.reserve_price {
                    format!("bid {} below reserve {}", r.bid, lot.reserve_price)
                } else {
                    format!("ranked #{}", rank + 1)
                },
            });
        }
        if let Some(w) = &winner {
            if let Some(acct) = gate.account_mut(w) {
                acct.charge(
                    now_us,
                    revenue,
                    None,
                    &format!("spot market: {} × {}", lot.units, lot.kind.name()),
                );
            }
            self.last_clearing_price = clearing_price;
        }

        // Welfare accounting for the price-of-anarchy sweep: optimal
        // assigns the lot to the highest *valuation* among evaluated
        // (non-suspended) bidders; achieved is the actual winner's.
        let valuation_of = |t: &str| {
            bidders
                .iter()
                .find(|b| b.tenant == t)
                .map(|b| b.valuation)
                .unwrap_or(0)
        };
        let optimal_welfare = records
            .iter()
            .map(|r| valuation_of(&r.tenant))
            .max()
            .unwrap_or(0)
            .saturating_mul(lot.units);
        let achieved_welfare = winner
            .as_deref()
            .map(valuation_of)
            .unwrap_or(0)
            .saturating_mul(lot.units);

        // Extension-VM engine counters for this epoch: compiled vs
        // interpreter (deopt) runs, cache hits, and fusions applied.
        let vm_stats = self.cache.take_stats();
        let (compiled_runs, interp_runs) = self.vm.take_run_counts();
        tel.incr("extvm.cache_hits", Labels::none(), vm_stats.hits);
        tel.incr("extvm.fused_ops", Labels::none(), vm_stats.fused_ops);
        tel.incr("extvm.compiled_runs", Labels::none(), compiled_runs);
        tel.incr("extvm.interp_runs", Labels::none(), interp_runs);

        tel.incr("market.lots", Labels::none(), 1);
        tel.incr("market.revenue_microdollars", Labels::none(), revenue);
        if winner.is_some() {
            tel.observe("market.clearing_price", Labels::none(), clearing_price);
        } else {
            tel.incr("market.unsold_lots", Labels::none(), 1);
        }
        tel.observe("market.utilization_pct", Labels::none(), utilization_pct);

        AuctionOutcome {
            lot: lot.clone(),
            winner,
            clearing_price,
            revenue,
            achieved_welfare,
            optimal_welfare,
            bids: records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanSpec;
    use udc_extvm::assemble;

    fn bidder(tenant: &str, asm: &str, valuation: u64) -> BidderPolicy {
        BidderPolicy {
            tenant: tenant.to_string(),
            program: assemble(asm).expect("canned policy assembles"),
            valuation,
        }
    }

    fn lot() -> Lot {
        Lot {
            kind: ResourceKind::Cpu,
            units: 10,
            reserve_price: 5,
        }
    }

    fn gate_with(tenants: &[&str]) -> QuotaGate {
        let mut g = QuotaGate::new();
        for t in tenants {
            g.open_account(t, PlanSpec::unlimited("spot"), 0);
            g.account_mut(t).unwrap().pay(0, 10_000);
        }
        g
    }

    #[test]
    fn winner_pays_second_price_and_is_debited() {
        let mut g = gate_with(&["alice", "bob"]);
        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        let out = m.run_epoch(
            100,
            &lot(),
            &[
                bidder("alice", TRUTHFUL_BIDDER, 40),
                bidder("bob", TRUTHFUL_BIDDER, 25),
            ],
            50,
            &mut g,
            &tel,
        );
        assert_eq!(out.winner.as_deref(), Some("alice"));
        assert_eq!(out.clearing_price, 25, "second price, not own bid");
        assert_eq!(out.revenue, 250);
        assert_eq!(out.achieved_welfare, 400);
        assert_eq!(out.optimal_welfare, 400, "truthful bidding is efficient");
        assert_eq!(
            g.account("alice").unwrap().ledger.balance_microdollars(),
            10_000 - 250
        );
        assert_eq!(m.last_clearing_price(), 25);
        // Bob's loss is auditable.
        let outbid: Vec<_> = tel
            .decisions()
            .into_iter()
            .filter(|d| d.reason == ReasonCode::Outbid)
            .collect();
        assert_eq!(outbid.len(), 1);
        assert_eq!(outbid[0].candidate, "bob");
    }

    #[test]
    fn shading_loses_lots_it_values_most() {
        let mut g = gate_with(&["shady", "modest"]);
        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        // Shady values the lot at 50 but bids 40; modest truthfully
        // bids 45 — inefficient allocation, price of anarchy > 1.
        let out = m.run_epoch(
            100,
            &lot(),
            &[
                bidder("shady", SHADED_BIDDER, 50),
                bidder("modest", TRUTHFUL_BIDDER, 45),
            ],
            50,
            &mut g,
            &tel,
        );
        assert_eq!(out.winner.as_deref(), Some("modest"));
        assert_eq!(out.achieved_welfare, 450);
        assert_eq!(out.optimal_welfare, 500);
        assert!(out.optimal_welfare > out.achieved_welfare);
    }

    #[test]
    fn reserve_and_suspension_are_enforced() {
        let mut g = gate_with(&["alice", "bob"]);
        // Suspend bob outright.
        let plan = PlanSpec {
            degrade_after_us: 0,
            suspend_after_us: 0,
            ..PlanSpec::unlimited("strict")
        };
        g.open_account("bob", plan, 0);
        g.account_mut("bob").unwrap().charge(1, 10, None, "debt");
        g.settle_all(2);
        assert!(g.account("bob").unwrap().is_suspended());

        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        // Alice's valuation (3) is below the reserve (5): lot unsold.
        let out = m.run_epoch(
            100,
            &lot(),
            &[
                bidder("alice", TRUTHFUL_BIDDER, 3),
                bidder("bob", TRUTHFUL_BIDDER, 100),
            ],
            50,
            &mut g,
            &tel,
        );
        assert_eq!(out.winner, None);
        assert_eq!(out.revenue, 0);
        assert_eq!(out.bids.len(), 1, "suspended bob never evaluated");
        assert!(tel
            .decisions()
            .iter()
            .any(|d| d.candidate == "bob" && d.reason == ReasonCode::Suspended));
        assert_eq!(tel.counter("market.unsold_lots", &Labels::none()), 1);
    }

    #[test]
    fn budget_bidder_caps_at_affordable_price_and_traps_are_bid_zero() {
        let mut g = gate_with(&["poor", "rich"]);
        // poor's balance is 100 → can afford 10 µ$/unit on a 10-unit
        // lot despite valuing it at 90.
        g.account_mut("poor")
            .unwrap()
            .charge(1, 9_900, None, "spend");
        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        let bad = BidderPolicy {
            tenant: "rich".into(),
            // Calls an unknown host fn → traps → bid 0.
            program: assemble("hostcall 9.0\nret").unwrap(),
            valuation: 80,
        };
        let out = m.run_epoch(
            100,
            &lot(),
            &[bidder("poor", BUDGET_BIDDER, 90), bad],
            50,
            &mut g,
            &tel,
        );
        assert_eq!(out.winner.as_deref(), Some("poor"));
        assert_eq!(out.bids[0].bid, 10, "capped by balance/units");
        assert!(out.bids[1].trapped);
        assert_eq!(out.bids[1].bid, 0);
        assert_eq!(tel.counter("market.traps", &Labels::tenant("rich")), 1);
    }

    #[test]
    fn rebids_hit_the_compile_cache() {
        let mut g = gate_with(&["a", "b", "c", "d"]);
        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        let bidders = [
            bidder("a", TRUTHFUL_BIDDER, 30),
            bidder("b", SHADED_BIDDER, 40),
            bidder("c", AGGRESSIVE_BIDDER, 20),
            // An affine bid (2·valuation + 1): the mul+add chain fuses
            // into a MulAdd superinstruction.
            bidder("d", "hostcall 5.0\npush 2\nmul\npush 1\nadd\nret", 10),
        ];
        for _ in 0..4 {
            m.run_epoch(100, &lot(), &bidders, 50, &mut g, &tel);
        }
        // Epoch 1 compiles all four programs; epochs 2–4 are pure
        // cache hits. Every bid ran on the compiled backend, and the
        // fusion count (charged once, at compile time) is visible.
        assert_eq!(tel.counter("extvm.cache_hits", &Labels::none()), 12);
        assert_eq!(tel.counter("extvm.compiled_runs", &Labels::none()), 16);
        assert_eq!(tel.counter("extvm.interp_runs", &Labels::none()), 0);
        assert_eq!(tel.counter("extvm.fused_ops", &Labels::none()), 1);
    }

    #[test]
    fn trapping_bidder_reports_fresh_vm_gas() {
        // A gasless trap (BadArg-class) on the shared VM must report
        // gas 0 in the bid record, exactly as the old fresh-Vm-per-call
        // market did — not a stale readback from the previous bidder.
        let mut g = gate_with(&["clean", "broken"]);
        let tel = Telemetry::enabled();
        let mut m = SpotMarket::default();
        let broken = BidderPolicy {
            tenant: "broken".into(),
            program: assemble("arg 9\nret").unwrap(),
            valuation: 80,
        };
        let out = m.run_epoch(
            100,
            &lot(),
            &[bidder("clean", TRUTHFUL_BIDDER, 40), broken],
            50,
            &mut g,
            &tel,
        );
        let rec = out.bids.iter().find(|r| r.tenant == "broken").unwrap();
        assert!(rec.trapped);
        assert_eq!(rec.gas_used, 0, "gasless trap reads back fresh-VM gas");
        let clean = out.bids.iter().find(|r| r.tenant == "clean").unwrap();
        assert!(clean.gas_used > 0);
    }

    #[test]
    fn auction_is_order_independent() {
        let run = |order: &[(&str, u64)]| {
            let mut g = gate_with(&["a", "b", "c"]);
            let tel = Telemetry::enabled();
            let mut m = SpotMarket::default();
            let bidders: Vec<_> = order
                .iter()
                .map(|(t, v)| bidder(t, TRUTHFUL_BIDDER, *v))
                .collect();
            let out = m.run_epoch(100, &lot(), &bidders, 50, &mut g, &tel);
            (out.winner, out.clearing_price, out.bids)
        };
        let fwd = run(&[("a", 30), ("b", 30), ("c", 20)]);
        let rev = run(&[("c", 20), ("b", 30), ("a", 30)]);
        assert_eq!(fwd, rev, "ranked order ignores input order");
        assert_eq!(fwd.0.as_deref(), Some("a"), "ties break by name");
    }
}
