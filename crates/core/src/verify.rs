//! The verification service (§4).
//!
//! "UDC must enable users to verify that the cloud vendor is correctly
//! providing their selected features. ... However, many features that
//! UDC allows users to define cannot be verified with today's remote
//! attestation primitives (e.g., whether or not resources were provided
//! as specified)."
//!
//! This module extends quote claims with exactly those features: the
//! realized isolation level, tenancy, and per-kind resource amounts. A
//! tenant verifies each user-verifiable module against a policy derived
//! from its own aspects — trusting only the device keys, never the
//! provider's software.

use std::collections::BTreeMap;
use udc_crypto::attest::{AttestError, AttestationPolicy, Quote, Verifier};
use udc_crypto::MeasurementRegister;
use udc_spec::ModuleId;

/// Verification status of one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleVerification {
    /// The module's environment produced a quote that satisfied the
    /// tenant's policy.
    Verified,
    /// A quote was produced but verification failed — the provider did
    /// not fulfill the definition (or forged the quote).
    Failed(String),
    /// The chosen environment class cannot be verified (medium/weak
    /// isolation — "require trust in the provider", §3.3).
    NotVerifiable,
}

/// One module's billing cross-check: the amount the provider charged
/// (from the `core.billed_microdollars` telemetry counter) against what
/// the tenant recomputes from telemetry-observed holding time at the
/// prices agreed at submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BillingCheck {
    /// Micro-dollars the provider recorded as billed.
    pub billed: u64,
    /// Micro-dollars expected from observed usage at agreed prices.
    pub expected: u64,
    /// Whether `billed` is within the reconciliation tolerance of
    /// `expected`.
    pub within_tolerance: bool,
}

/// Telemetry-vs-billing reconciliation across a deployment (§4: "how
/// can users trust the cloud?" — by recomputing the bill from what
/// observably happened).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BillingReconciliation {
    /// Per-module checks (only modules with recorded usage appear).
    pub modules: BTreeMap<ModuleId, BillingCheck>,
    /// Relative tolerance applied (rounding happens per device slice).
    pub tolerance: f64,
}

impl BillingReconciliation {
    /// True when every checked module's bill matched expectations.
    pub fn consistent(&self) -> bool {
        self.modules.values().all(|c| c.within_tolerance)
    }

    /// Modules whose bill fell outside tolerance.
    pub fn flagged(&self) -> Vec<&ModuleId> {
        self.modules
            .iter()
            .filter(|(_, c)| !c.within_tolerance)
            .map(|(id, _)| id)
            .collect()
    }
}

/// The per-deployment verification report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerificationReport {
    /// Per-module outcome.
    pub modules: BTreeMap<ModuleId, ModuleVerification>,
    /// Billing reconciliation, present when the cloud runs with
    /// telemetry enabled and the deployment has recorded usage.
    pub billing: Option<BillingReconciliation>,
}

impl VerificationReport {
    /// Count of verified modules.
    pub fn verified(&self) -> usize {
        self.modules
            .values()
            .filter(|v| **v == ModuleVerification::Verified)
            .count()
    }

    /// Count of failed modules.
    pub fn failed(&self) -> usize {
        self.modules
            .values()
            .filter(|v| matches!(v, ModuleVerification::Failed(_)))
            .count()
    }

    /// Count of modules the tenant simply has to trust.
    pub fn not_verifiable(&self) -> usize {
        self.modules
            .values()
            .filter(|v| **v == ModuleVerification::NotVerifiable)
            .count()
    }

    /// True when nothing failed (unverifiable modules are allowed; the
    /// user chose those isolation levels) and, when a billing
    /// reconciliation ran, every module's bill matched observed usage.
    pub fn all_fulfilled(&self) -> bool {
        self.failed() == 0
            && self
                .billing
                .as_ref()
                .map(|b| b.consistent())
                .unwrap_or(true)
    }
}

/// Builds the attestation policy a tenant derives from a module's
/// aspects and expected software stack.
pub fn policy_for_module(
    expected_events: &[String],
    isolation: &str,
    single_tenant: bool,
    resources: &[(String, u64)],
) -> AttestationPolicy {
    let expected = MeasurementRegister::replay(expected_events);
    let mut policy = AttestationPolicy::measurement(expected)
        .require("isolation", isolation)
        .require(
            "tenancy",
            if single_tenant {
                "single_tenant"
            } else {
                "shared"
            },
        );
    for (kind, units) in resources {
        policy = policy.require(format!("resources.{kind}"), units.to_string());
    }
    policy
}

/// Verifies one quote against a policy, mapping the result into a
/// [`ModuleVerification`].
pub fn check_quote(
    verifier: &Verifier,
    quote: &Quote,
    nonce: &[u8; 32],
    policy: &AttestationPolicy,
) -> ModuleVerification {
    match verifier.verify(quote, nonce, policy) {
        Ok(()) => ModuleVerification::Verified,
        Err(e @ AttestError::ClaimMismatch { .. }) => {
            ModuleVerification::Failed(format!("definition not fulfilled: {e}"))
        }
        Err(e) => ModuleVerification::Failed(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udc_crypto::attest::RootOfTrust;

    #[test]
    fn honest_provider_verifies() {
        let key = [1u8; 32];
        let mut rot = RootOfTrust::new("env0", key);
        rot.measure("boot: udc-runtime v1");
        rot.measure("load: A1");
        let mut verifier = Verifier::new();
        verifier.trust_device("env0", key);
        let nonce = [9u8; 32];
        let mut claims = BTreeMap::new();
        claims.insert("isolation".to_string(), "strongest".to_string());
        claims.insert("tenancy".to_string(), "single_tenant".to_string());
        claims.insert("resources.cpu".to_string(), "4".to_string());
        let quote = rot.quote(nonce, claims);
        let policy = policy_for_module(
            &["boot: udc-runtime v1".to_string(), "load: A1".to_string()],
            "strongest",
            true,
            &[("cpu".to_string(), 4)],
        );
        assert_eq!(
            check_quote(&verifier, &quote, &nonce, &policy),
            ModuleVerification::Verified
        );
    }

    #[test]
    fn underprovisioned_resources_detected() {
        // The paper's headline extension: the provider gave 2 cores but
        // the user defined 4 — classic attestation cannot see this; UDC
        // claims can.
        let key = [1u8; 32];
        let mut rot = RootOfTrust::new("env0", key);
        rot.measure("boot");
        let mut verifier = Verifier::new();
        verifier.trust_device("env0", key);
        let nonce = [2u8; 32];
        let mut claims = BTreeMap::new();
        claims.insert("isolation".to_string(), "strong".to_string());
        claims.insert("tenancy".to_string(), "shared".to_string());
        claims.insert("resources.cpu".to_string(), "2".to_string());
        let quote = rot.quote(nonce, claims);
        let policy = policy_for_module(
            &["boot".to_string()],
            "strong",
            false,
            &[("cpu".to_string(), 4)],
        );
        match check_quote(&verifier, &quote, &nonce, &policy) {
            ModuleVerification::Failed(msg) => {
                assert!(msg.contains("definition not fulfilled"), "{msg}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn report_counters() {
        let mut report = VerificationReport::default();
        report
            .modules
            .insert("A1".into(), ModuleVerification::Verified);
        report
            .modules
            .insert("A2".into(), ModuleVerification::NotVerifiable);
        report
            .modules
            .insert("A3".into(), ModuleVerification::Failed("x".into()));
        assert_eq!(report.verified(), 1);
        assert_eq!(report.not_verifiable(), 1);
        assert_eq!(report.failed(), 1);
        assert!(!report.all_fulfilled());
    }
}
