//! The per-tenant usage ledger: the economic system of record.
//!
//! §4's trust argument extended to money over time: every charge and
//! every payment is one **append-only** entry, so the tenant (or an
//! auditor) can replay the account's entire history and recompute the
//! balance from scratch. The conservation invariant —
//! `credits == debits + balance` — is checkable at any moment and is
//! enforced by the property suite under arbitrary operation sequences.
//!
//! Amounts are micro-dollars, priced by the caller (the control plane
//! prices module holding windows with the `BillingModel` agreed at
//! submit); the ledger itself never invents a price, which is exactly
//! what makes it usable as the reconciliation oracle in
//! `verify_deployment`.

/// Whether an entry adds to or draws from the balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Money in: entitlement renewal, payment, market refund.
    Credit,
    /// Money out: metered usage, suspension fees, market purchases.
    Debit,
}

/// One immutable ledger line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Append order (0-based, dense).
    pub seq: u64,
    /// Sim-clock time the entry was recorded.
    pub at_us: u64,
    /// Credit or debit.
    pub kind: EntryKind,
    /// Magnitude in micro-dollars (always non-negative).
    pub amount_microdollars: u64,
    /// The module the charge meters, when it meters one.
    pub module: Option<String>,
    /// Human-readable cause, e.g. `"usage window"` or `"entitlement"`.
    pub memo: String,
}

/// An append-only account ledger with a running balance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageLedger {
    entries: Vec<LedgerEntry>,
    /// Running balance in micro-dollars (may go negative — that is the
    /// overdue signal the lifecycle acts on).
    balance: i64,
}

impl UsageLedger {
    /// An empty ledger at balance zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn append(
        &mut self,
        at_us: u64,
        kind: EntryKind,
        amount: u64,
        module: Option<&str>,
        memo: impl Into<String>,
    ) -> &LedgerEntry {
        let seq = self.entries.len() as u64;
        match kind {
            EntryKind::Credit => self.balance = self.balance.saturating_add_unsigned(amount),
            EntryKind::Debit => self.balance = self.balance.saturating_sub_unsigned(amount),
        }
        self.entries.push(LedgerEntry {
            seq,
            at_us,
            kind,
            amount_microdollars: amount,
            module: module.map(str::to_string),
            memo: memo.into(),
        });
        self.entries.last().expect("just pushed")
    }

    /// Records a credit (payment, entitlement, refund).
    pub fn credit(&mut self, at_us: u64, amount: u64, memo: impl Into<String>) {
        self.append(at_us, EntryKind::Credit, amount, None, memo);
    }

    /// Records a debit, optionally metered against a module.
    pub fn debit(
        &mut self,
        at_us: u64,
        amount: u64,
        module: Option<&str>,
        memo: impl Into<String>,
    ) {
        self.append(at_us, EntryKind::Debit, amount, module, memo);
    }

    /// Current balance in micro-dollars (negative = owing).
    pub fn balance_microdollars(&self) -> i64 {
        self.balance
    }

    /// Sum of all credits ever recorded.
    pub fn total_credits(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Credit)
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// Sum of all debits ever recorded.
    pub fn total_debits(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Debit)
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// Sum of debits metered against `module` — the tenant-side number
    /// billing reconciliation compares the provider's counters against.
    pub fn debits_for_module(&self, module: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Debit && e.module.as_deref() == Some(module))
            .map(|e| e.amount_microdollars)
            .sum()
    }

    /// The full history, in append order.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Replays the whole history and checks it against the running
    /// balance: `credits == debits + balance` (in i128 so no operation
    /// sequence can overflow the check itself), and entry sequence
    /// numbers are dense and ordered. This is the auditability claim as
    /// a predicate.
    pub fn conservation_holds(&self) -> bool {
        let credits = self.total_credits() as i128;
        let debits = self.total_debits() as i128;
        let dense = self
            .entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq == i as u64);
        dense && credits == debits + self.balance as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_tracks_entries_and_conserves() {
        let mut l = UsageLedger::new();
        l.credit(0, 1_000, "entitlement");
        l.debit(5, 300, Some("A1"), "usage window");
        l.debit(9, 900, Some("A2"), "usage window");
        assert_eq!(l.balance_microdollars(), -200, "overdue is representable");
        assert_eq!(l.total_credits(), 1_000);
        assert_eq!(l.total_debits(), 1_200);
        assert_eq!(l.debits_for_module("A1"), 300);
        assert_eq!(l.debits_for_module("A2"), 900);
        assert_eq!(l.debits_for_module("A3"), 0);
        assert!(l.conservation_holds());
        assert_eq!(l.entries().len(), 3);
        assert_eq!(l.entries()[2].seq, 2);
    }

    #[test]
    fn an_empty_ledger_conserves_at_zero() {
        let l = UsageLedger::new();
        assert_eq!(
            (
                l.balance_microdollars(),
                l.total_credits(),
                l.total_debits()
            ),
            (0, 0, 0)
        );
        assert!(l.entries().is_empty() && l.conservation_holds());
    }

    #[test]
    fn entries_record_time_kind_module_and_memo() {
        let mut l = UsageLedger::new();
        l.debit(7, 40, Some("A1"), "usage window");
        l.credit(9, 50, "payment");
        let debit = LedgerEntry {
            seq: 0,
            at_us: 7,
            kind: EntryKind::Debit,
            amount_microdollars: 40,
            module: Some("A1".into()),
            memo: "usage window".into(),
        };
        assert_eq!(l.entries()[0], debit);
        assert_eq!(
            (l.entries()[1].seq, l.entries()[1].kind),
            (1, EntryKind::Credit)
        );
        assert_eq!(
            (
                l.entries()[1].module.as_deref(),
                l.entries()[1].memo.as_str()
            ),
            (None, "payment")
        );
    }

    #[test]
    fn unmetered_debits_count_toward_no_module() {
        let mut l = UsageLedger::new();
        l.debit(0, 30, None, "suspension fee");
        l.debit(1, 5, Some("A1"), "usage window");
        assert_eq!((l.total_debits(), l.debits_for_module("A1")), (35, 5));
        assert_eq!(l.balance_microdollars(), -35);
    }

    #[test]
    fn a_saturated_balance_fails_the_conservation_check() {
        // The running balance saturates instead of wrapping; the replay
        // in i128 sees that it no longer matches the entries.
        let mut l = UsageLedger::new();
        l.debit(0, u64::MAX, None, "runaway");
        assert_eq!(l.balance_microdollars(), i64::MIN);
        assert!(!l.conservation_holds());
    }
}
